"""A small DPLL(T)-style satisfiability engine for theory predicates.

The query answered here is the one the KMT decision procedure needs (paper
Theorem 3.7): given a Boolean combination of *primitive theory tests*, is
there a state (more precisely, a trace) that satisfies it?

The engine branches over the primitive tests occurring in the predicate, in
the usual DPLL fashion, with two prunings:

* Boolean: after each decision the predicate is simplified under the partial
  assignment; branches whose predicate collapses to ``0`` are abandoned, and
  a predicate that collapses to ``1`` only needs the decided literals to be
  theory-consistent.
* Theory: after each decision the partial literal set is checked for
  consistency with the client theory's ``satisfiable_conjunction`` oracle
  (e.g. ``x > 5`` together with ``~(x > 3)`` is pruned immediately for the
  IncNat theory).

This mirrors the role Z3 plays in the OCaml implementation; the paper notes
custom solvers are usually faster, and every shipped theory supplies a custom
``satisfiable_conjunction``.
"""

from __future__ import annotations

from itertools import product

from repro.core import terms as T
from repro.smt.bdd import BDD, FALSE, TRUE
from repro.smt.literals import atoms_of, evaluate, substitute


def dpll_satisfiable(pred, theory):
    """Decide satisfiability of ``pred`` over the given theory's tests."""
    return dpll_model(pred, theory) is not None


def dpll_model(pred, theory):
    """Return a satisfying literal assignment ``[(alpha, bool), ...]`` or None."""
    if isinstance(pred, T.PZero):
        return None
    atoms = atoms_of(pred)
    return _search(pred, atoms, 0, [], theory)


def _search(pred, atoms, index, literals, theory):
    if isinstance(pred, T.PZero):
        return None
    if literals and not theory.satisfiable_conjunction(literals):
        return None
    if isinstance(pred, T.POne):
        # The remaining atoms are unconstrained; the decided literals are
        # already theory-consistent (checked above), so we are satisfiable.
        return list(literals)
    if index >= len(atoms):
        # All atoms decided; pred should have collapsed to a constant, but a
        # theory atom can appear under an uninterpreted wrapper — fall back to
        # evaluation under the assignment.
        assignment = {alpha: polarity for alpha, polarity in literals}
        return list(literals) if evaluate(pred, assignment) else None
    alpha = atoms[index]
    for polarity in (True, False):
        simplified = substitute(pred, alpha, polarity)
        found = _search(simplified, atoms, index + 1, literals + [(alpha, polarity)], theory)
        if found is not None:
            return found
    return None


def enumerate_models(pred, theory):
    """Yield every theory-consistent total assignment satisfying ``pred``.

    Exponential in the number of atoms — intended for tests and small
    diagnostics, not for the decision procedure.
    """
    atoms = atoms_of(pred)
    for values in product((True, False), repeat=len(atoms)):
        literals = list(zip(atoms, values))
        if not evaluate(pred, dict(literals)):
            continue
        if literals and not theory.satisfiable_conjunction(literals):
            continue
        yield literals


def naive_satisfiable(pred, theory):
    """Unpruned enumeration-based satisfiability (the ablation baseline)."""
    if isinstance(pred, T.POne):
        return True
    if isinstance(pred, T.PZero):
        return False
    for _ in enumerate_models(pred, theory):
        return True
    return False


# ---------------------------------------------------------------------------
# AllSAT-style enumeration of guard signatures
# ---------------------------------------------------------------------------


class SignatureSearchStats:
    """Counters for one :func:`enumerate_signatures` search."""

    def __init__(self):
        self.decisions = 0
        self.propagations = 0
        self.theory_pruned = 0
        self.blocked_pruned = 0

    def as_dict(self):
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "theory_pruned": self.theory_pruned,
            "blocked_pruned": self.blocked_pruned,
        }

    def __repr__(self):
        return f"SignatureSearchStats({self.as_dict()})"


def enumerate_signatures(guards, theory, satisfiable=None, stats=None, cancel=None):
    """Enumerate the theory-realizable truth valuations of ``guards``.

    ``guards`` is a list of predicates over the theory's primitive tests.  A
    *signature* is a tuple of booleans, one per guard; it is realizable when
    some theory-consistent assignment of the primitive tests gives each guard
    the corresponding truth value.  Yields ``(signature, witness)`` pairs
    where ``witness`` is a theory-satisfiable list of ``(alpha, polarity)``
    literals, in :func:`~repro.smt.literals.atoms_of` order, under which every
    guard evaluates to its signature bit.  The witness may be *partial*: tests
    no guard depends on stay undecided.

    This is AllSAT with blocking clauses, projected onto the guards: each
    found signature ``S`` adds the clause ``∨ᵢ (gᵢ ≠ Sᵢ)``.  Guards and
    clauses are nodes of one :class:`~repro.smt.bdd.BDD` built for this
    search over its atoms in ``atoms_of`` order.  One depth-first search
    branches on the smallest atom some guard still depends on, True first,
    restricting guards and clauses along the path, and continues after every
    model.  A clause found in an earlier branch joins a path restricted by
    the path's literals, so a subtree whose completions all reproduce seen
    signatures folds to false; a clause reduced to one literal is
    propagated without branching.  Every decision and propagation asks the
    theory's ``satisfiable_conjunction`` oracle, never twice for one literal
    set.

    ``satisfiable`` optionally overrides that oracle (a callable on
    non-empty literal lists); ``stats`` collects :class:`SignatureSearchStats`
    counters; ``cancel`` is an optional cooperative-cancellation callable
    invoked once per decision, aborting the enumeration by raising (see
    :class:`~repro.utils.errors.QueryCancelled`).
    """
    guards = list(guards)
    if stats is None:
        stats = SignatureSearchStats()
    if satisfiable is None:
        satisfiable = theory.satisfiable_conjunction
    bdd = BDD(atoms_of(*guards))
    atoms, levels, terminal = bdd.atoms, bdd.level, len(bdd.atoms)
    memo = {}
    originals = [bdd.from_pred(guard, memo) for guard in guards]
    blocked = []  # one clause per found signature, unrestricted

    def restrict_clauses(clauses, level, value):
        """Restrict every live clause; None when one folds to false."""
        out = []
        for clause in clauses:
            clause = bdd.restrict(clause, level, value)
            if clause == FALSE:
                return None
            if clause != TRUE:
                out.append(clause)
        return out

    def consistent(path):
        return satisfiable([(atoms[level], value) for level, value in path])

    def search(guards, clauses, imported, path):
        for clause in blocked[imported:]:
            for level, value in path:
                clause = bdd.restrict(clause, level, value)
            if clause == FALSE:
                stats.blocked_pruned += 1
                return
            if clause != TRUE:
                clauses = clauses + [clause]
        imported = len(blocked)
        while True:
            unit = next(filter(None, map(bdd.unit, clauses)), None)
            if unit is None:
                break
            stats.propagations += 1
            path = path + [unit]
            if not consistent(path):
                stats.theory_pruned += 1
                return
            guards = [bdd.restrict(guard, *unit) for guard in guards]
            clauses = restrict_clauses(clauses, *unit)
            if clauses is None:
                stats.blocked_pruned += 1
                return
        top = min(map(levels.__getitem__, guards), default=terminal)
        if top == terminal:
            # Every guard decided, and no clause folded to false: a fresh
            # signature (a seen one would have made its clause false).
            signature = tuple(guard == TRUE for guard in guards)
            clause = FALSE
            for guard, bit in zip(originals, signature):
                clause = bdd.disj(clause, bdd.negate(guard) if bit else guard)
            blocked.append(clause)
            yield signature, [(atoms[level], value) for level, value in sorted(path)]
            return
        stats.decisions += 1
        if cancel is not None:
            cancel()
        for value in (True, False):
            extended = path + [(top, value)]
            if not consistent(extended):
                stats.theory_pruned += 1
                continue
            branch = restrict_clauses(clauses, top, value)
            if branch is None:
                stats.blocked_pruned += 1
                continue
            yield from search([bdd.restrict(guard, top, value) for guard in guards],
                              branch, imported, extended)

    yield from search(originals, [], 0, [])
