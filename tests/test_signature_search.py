"""Differential: the BDD signature search against the tree-form search.

:func:`repro.smt.dpll.enumerate_signatures` runs its AllSAT search on a
decision diagram built for the one search.  :func:`tree_signatures` below is
the same search on predicate trees: every guard and blocking clause is
rebuilt through ``literals.substitute`` at each node, and constants are
folded logically so it also terminates with the smart constructors off.  It
is kept only as the reference for these tests.

For drawn guard lists over bitvec, incnat and ltlf atoms, with the smart
constructors on and off, both searches must yield the same signatures in the
same order, and the BDD search must never ask the oracle more often, decide
more often or prune more branches than the tree search.  Every witness must
be theory-satisfiable, list its literals in atom order, and decide every
guard to its signature bit.

The witnesses are the same literal sets whenever the two searches do the
same work.  Otherwise the tree search branched on an atom that still occurs
in a guard's syntax but no longer changes its value (``a; 0`` with the smart
constructors off, ``(a; b) + (a; ~b)`` with them on); the BDD search skips
that atom, so its witness is a subset of the tree search's.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import terms as T
from repro.smt.bdd import BDD, FALSE, TRUE
from repro.smt.dpll import SignatureSearchStats, enumerate_signatures
from repro.smt.literals import atoms_of, evaluate, substitute
from repro.theories.bitvec import BitVecTheory, BoolEq
from repro.theories.incnat import Gt, IncNatTheory
from repro.theories.ltlf import LtlfTheory


# ---------------------------------------------------------------------------
# the tree-form reference search
# ---------------------------------------------------------------------------


def tree_signatures(guards, theory, satisfiable=None, stats=None):
    """The signature search on predicate trees; same contract as
    :func:`~repro.smt.dpll.enumerate_signatures`, witnesses in decision
    order."""
    guards = list(guards)
    if stats is None:
        stats = SignatureSearchStats()
    if satisfiable is None:
        def satisfiable(literals):
            return not literals or theory.satisfiable_conjunction(literals)
    blocked = []
    yield from _tree_search(guards, list(guards), [], 0, [], blocked, satisfiable, stats)


def _tree_search(originals, guards, clauses, imported, literals, blocked, satisfiable, stats):
    while imported < len(blocked):
        clause = blocked[imported]
        imported += 1
        for alpha, polarity in literals:
            clause = substitute(clause, alpha, polarity)
        value = _constant_value(clause)
        if value is False:
            stats.blocked_pruned += 1
            return
        if value is not True:
            clauses = clauses + [clause]
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
        signature = tuple(bool(_constant_value(g)) for g in guards)
        blocked.append(T.por_all(
            T.pnot(guard) if bit else guard for guard, bit in zip(originals, signature)))
        yield signature, list(literals)
        return
    stats.decisions += 1
    for polarity in (True, False):
        extended = literals + [(alpha, polarity)]
        if not satisfiable(extended):
            stats.theory_pruned += 1
            continue
        branch_clauses = _substitute_clauses(clauses, alpha, polarity)
        if branch_clauses is None:
            stats.blocked_pruned += 1
            continue
        yield from _tree_search(originals, [substitute(g, alpha, polarity) for g in guards],
                                branch_clauses, imported, extended, blocked, satisfiable,
                                stats)


def _substitute_clauses(clauses, alpha, polarity):
    out = []
    for clause in clauses:
        reduced = substitute(clause, alpha, polarity)
        value = _constant_value(reduced)
        if value is False:
            return None
        if value is not True:
            out.append(reduced)
    return out


def _constant_value(pred):
    """``True``/``False`` when ``pred`` contains no primitive tests, else None."""
    if isinstance(pred, T.POne):
        return True
    if isinstance(pred, T.PZero):
        return False
    if isinstance(pred, T.PPrim):
        return None
    if isinstance(pred, T.PNot):
        value = _constant_value(pred.arg)
        return None if value is None else not value
    left, right = _constant_value(pred.left), _constant_value(pred.right)
    if isinstance(pred, T.PAnd):
        if left is False or right is False:
            return False
        return True if left and right else None
    if left is True or right is True:
        return True
    return False if left is False and right is False else None


def _clause_unit(clause):
    if isinstance(clause, T.PPrim):
        return clause.alpha, True
    if isinstance(clause, T.PNot) and isinstance(clause.arg, T.PPrim):
        return clause.arg.alpha, False
    return None


def _pick_atom(guards):
    """The smallest primitive test still occurring in some guard."""
    atoms = atoms_of(*guards)
    return atoms[0] if atoms else None


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _bitvec():
    return BitVecTheory(variables=("a", "b", "c")), [BoolEq(v) for v in "abc"]


def _incnat():
    return (IncNatTheory(variables=("x", "y")),
            [Gt(v, k) for v in ("x", "y") for k in range(3)])


def _ltlf():
    inner = BitVecTheory(variables=("a", "b"))
    theory = LtlfTheory(inner)
    a, b = inner.eq("a", True), inner.eq("b", True)
    return theory, [a.alpha, b.alpha, theory.last(a).alpha, theory.last(b).alpha]


THEORIES = {"bitvec": _bitvec, "incnat": _incnat, "ltlf": _ltlf}


def _preds(atoms):
    return st.recursive(
        st.sampled_from(atoms).map(T.pprim) | st.sampled_from([T.pone(), T.pzero()]),
        lambda children: st.one_of(
            children.map(T.pnot),
            st.tuples(children, children).map(lambda pair: T.pand(*pair)),
            st.tuples(children, children).map(lambda pair: T.por(*pair)),
        ),
        max_leaves=6,
    )


class _CountingOracle:
    """The theory's conjunction oracle, recording its calls.

    The oracle itself always runs with the smart constructors on: only the
    searches are under test, and the ltlf oracle's bounded expansion is
    exponential without them.
    """

    def __init__(self, theory):
        self.theory = theory
        self.asked = []

    def __call__(self, literals):
        self.asked.append(frozenset(literals))
        saved, T.CONFIG.smart_constructors = T.CONFIG.smart_constructors, True
        try:
            return self.theory.satisfiable_conjunction(literals)
        finally:
            T.CONFIG.smart_constructors = saved


def _run(search, guards, theory):
    oracle, stats = _CountingOracle(theory), SignatureSearchStats()
    found = list(search(guards, theory, satisfiable=oracle, stats=stats))
    return found, oracle, stats


def _decides(guard, witness, bit):
    """Every completion of ``witness`` over ``guard``'s atoms gives ``bit``."""
    fixed = dict(witness)
    free = [alpha for alpha in atoms_of(guard) if alpha not in fixed]
    for values in product((True, False), repeat=len(free)):
        if evaluate(guard, {**fixed, **dict(zip(free, values))}) != bit:
            return False
    return True


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bdd_search_matches_tree_search(data):
    name = data.draw(st.sampled_from(sorted(THEORIES)), label="theory")
    theory, atoms = THEORIES[name]()
    smart = data.draw(st.booleans(), label="smart constructors")
    with nullcontext() if smart else T.smart_constructors_disabled():
        guards = data.draw(st.lists(_preds(atoms), max_size=4), label="guards")
        got, oracle, stats = _run(enumerate_signatures, guards, theory)
        want, tree_oracle, tree_stats = _run(tree_signatures, guards, theory)

    assert [signature for signature, _ in got] == [signature for signature, _ in want]
    for (_, witness), (_, tree_witness) in zip(got, want):
        assert set(witness) <= set(tree_witness)
        if stats.as_dict() == tree_stats.as_dict():
            assert set(witness) == set(tree_witness)
    assert len(oracle.asked) <= len(tree_oracle.asked)
    assert len(set(oracle.asked)) == len(oracle.asked)  # never the same question twice
    assert stats.decisions <= tree_stats.decisions
    assert stats.theory_pruned <= tree_stats.theory_pruned
    for signature, witness in got:
        assert not witness or theory.satisfiable_conjunction(witness)
        decided = dict(witness)
        assert [alpha for alpha, _ in witness] == \
            [alpha for alpha in atoms_of(*guards) if alpha in decided]  # atom order
        for guard, bit in zip(guards, signature):
            assert _decides(guard, witness, bit)


class TestBDD:
    """The diagram package on its own."""

    def test_equal_functions_share_one_node(self):
        bdd = BDD([BoolEq("a"), BoolEq("b")])
        a, b = (T.pprim(BoolEq(v)) for v in "ab")
        with T.smart_constructors_disabled():
            left = T.por(T.pand(a, b), T.pand(a, T.pnot(b)))
            excluded_middle = T.por(b, T.pnot(b))
        assert bdd.from_pred(left, {}) == bdd.from_pred(a, {})
        assert bdd.from_pred(excluded_middle, {}) == TRUE
        assert bdd.from_pred(T.pand(a, T.pnot(a)), {}) == FALSE

    def test_restrict_and_unit(self):
        bdd = BDD([BoolEq("a"), BoolEq("b")])
        a, b = (T.pprim(BoolEq(v)) for v in "ab")
        both = bdd.from_pred(T.pand(a, b), {})
        assert bdd.unit(both) is None
        assert bdd.restrict(both, 0, False) == FALSE
        only_b = bdd.restrict(both, 0, True)
        assert only_b == bdd.from_pred(b, {})
        assert bdd.unit(only_b) == (1, True)
        assert bdd.unit(bdd.negate(only_b)) == (1, False)
        assert bdd.unit(TRUE) is None
