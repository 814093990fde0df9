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
    some theory-consistent assignment of the underlying primitive tests gives
    each guard the corresponding truth value.  Yields ``(signature, witness)``
    pairs where ``witness`` is a theory-satisfiable list of
    ``(alpha, polarity)`` literals under which every guard evaluates to its
    signature bit (the witness may be *partial* — primitive tests that no
    guard depends on are left undecided, and any satisfying state for the
    witness extends it without changing the guards).

    This is AllSAT with blocking clauses, projected onto the guard formulas:
    each found signature ``S`` contributes the clause ``∨ᵢ (gᵢ ≠ Sᵢ)``.  A
    single depth-first search over the atoms carries the clause set as a flat
    list (never one nested formula, so depth stays bounded by the clause
    width) and continues after every model instead of restarting; clauses
    discovered in earlier branches are imported lazily into the current path,
    so a subtree all of whose completions reproduce already-seen signatures
    folds to false and is abandoned wholesale.  A clause reduced to a bare
    primitive test (or its negation) is unit-propagated without branching.
    Decisions are pruned against the theory's ``satisfiable_conjunction``
    oracle exactly like :func:`dpll_satisfiable`.

    ``satisfiable`` optionally overrides the consistency oracle (a callable
    on literal lists — the decision procedure passes a memoized wrapper);
    ``stats`` optionally collects :class:`SignatureSearchStats` counters;
    ``cancel`` is an optional cooperative-cancellation callable invoked once
    per decision, aborting the enumeration by raising (see
    :class:`~repro.utils.errors.QueryCancelled`).
    """
    guards = list(guards)
    if stats is None:
        stats = SignatureSearchStats()
    if satisfiable is None:
        def satisfiable(literals):
            return not literals or theory.satisfiable_conjunction(literals)
    blocked = []  # original (unsubstituted) blocking clauses, grown per model
    yield from _search_signatures(guards, list(guards), [], 0, [], blocked,
                                  satisfiable, stats, cancel)


def _import_clauses(clauses, imported, literals, blocked, stats):
    """Bring blocking clauses found in earlier branches into this path.

    Applies the path's literals to every clause in ``blocked[imported:]``;
    returns ``(clauses, imported)`` or ``None`` when a clause folds to false
    (every completion of this path reproduces a seen signature).
    """
    while imported < len(blocked):
        clause = blocked[imported]
        imported += 1
        for alpha, polarity in literals:
            clause = substitute(clause, alpha, polarity)
        value = _constant_value(clause)
        if value is False:
            stats.blocked_pruned += 1
            return None
        if value is not True:
            clauses = clauses + [clause]
    return clauses, imported


def _search_signatures(originals, guards, clauses, imported, literals, blocked,
                       satisfiable, stats, cancel=None):
    state = _import_clauses(clauses, imported, literals, blocked, stats)
    if state is None:
        return
    clauses, imported = state
    # Propagate literals forced by unit clauses before branching.
    while True:
        unit = next((u for u in map(_clause_unit, clauses) if u is not None), None)
        if unit is None:
            break
        alpha, polarity = unit
        stats.propagations += 1
        literals = literals + [(alpha, polarity)]
        if not satisfiable(literals):
            stats.theory_pruned += 1
            return
        guards = [substitute(g, alpha, polarity) for g in guards]
        clauses = _substitute_clauses(clauses, alpha, polarity)
        if clauses is None:
            stats.blocked_pruned += 1
            return
    alpha = _pick_atom(guards)
    if alpha is None:
        # Every guard decided, and no imported clause folded to false — a
        # fresh signature (a seen one would have made its clause false).
        signature = tuple(bool(_constant_value(g)) for g in guards)
        blocked.append(_blocking_clause(originals, signature))
        yield signature, list(literals)
        return
    stats.decisions += 1
    if cancel is not None:
        cancel()
    for polarity in (True, False):
        extended = literals + [(alpha, polarity)]
        if not satisfiable(extended):
            stats.theory_pruned += 1
            continue
        branch_clauses = _substitute_clauses(clauses, alpha, polarity)
        if branch_clauses is None:
            stats.blocked_pruned += 1
            continue
        yield from _search_signatures(
            originals,
            [substitute(g, alpha, polarity) for g in guards],
            branch_clauses,
            imported,
            extended,
            blocked,
            satisfiable,
            stats,
            cancel,
        )


def _substitute_clauses(clauses, alpha, polarity):
    """Apply one literal to every live clause; None when one folds to false."""
    out = []
    for clause in clauses:
        reduced = substitute(clause, alpha, polarity)
        value = _constant_value(reduced)
        if value is False:
            return None
        if value is not True:
            out.append(reduced)
    return out


def _blocking_clause(guards, signature):
    """The clause "at least one guard differs from ``signature``"."""
    return T.por_all(
        T.pnot(guard) if bit else guard for guard, bit in zip(guards, signature)
    )


def _constant_value(pred):
    """``True``/``False`` when ``pred`` contains no primitive tests, else None.

    Substitution normally constant-folds through the smart constructors, but
    those can be switched off (``terms.smart_constructors_disabled``), leaving
    shapes like ``PAnd(POne, POne)`` unfolded — so the search folds logically
    here instead of trusting ``isinstance(_, POne/PZero)``.
    """
    if isinstance(pred, T.POne):
        return True
    if isinstance(pred, T.PZero):
        return False
    if isinstance(pred, T.PPrim):
        return None
    if isinstance(pred, T.PNot):
        value = _constant_value(pred.arg)
        return None if value is None else not value
    if isinstance(pred, T.PAnd):
        left = _constant_value(pred.left)
        if left is False:
            return False
        right = _constant_value(pred.right)
        if right is False:
            return False
        return True if left and right else None
    if isinstance(pred, T.POr):
        left = _constant_value(pred.left)
        if left is True:
            return True
        right = _constant_value(pred.right)
        if right is True:
            return True
        return False if left is False and right is False else None
    raise TypeError(f"not a Pred: {pred!r}")


def _clause_unit(clause):
    """The forced literal of a clause that collapsed to a bare literal, or None."""
    if isinstance(clause, T.PPrim):
        return clause.alpha, True
    if isinstance(clause, T.PNot) and isinstance(clause.arg, T.PPrim):
        return clause.arg.alpha, False
    return None


def _min_atom(pred, best):
    """Fold the smallest primitive test of ``pred`` into ``best``.

    ``best`` is ``(alpha, sort_key)`` or ``(None, None)``; a direct recursive
    walk so the hot search loop avoids building and sorting the full
    ``atoms_of`` list per guard per decision node.
    """
    if isinstance(pred, (T.POne, T.PZero)):
        return best
    if isinstance(pred, T.PPrim):
        key = pred.sort_key()
        if best[1] is None or key < best[1]:
            return (pred.alpha, key)
        return best
    if isinstance(pred, T.PNot):
        return _min_atom(pred.arg, best)
    if isinstance(pred, (T.PAnd, T.POr)):
        return _min_atom(pred.right, _min_atom(pred.left, best))
    raise TypeError(f"not a Pred: {pred!r}")


def _pick_atom(guards):
    """The smallest undecided primitive test still constraining some guard."""
    best = (None, None)
    for guard in guards:
        best = _min_atom(guard, best)
    return best[0]


