"""Hypothesis differential: the production checker against the reference oracle.

For random small terms over four theories (incnat, bitvec, sets and ltlf),
the production checker (:mod:`repro.core.decision`: signature search,
compiled automata, product walk) and the reference oracle
(:mod:`repro.core.oracle`: explicit cells, Brzozowski derivatives) must
return the same equivalence, inclusion, membership and emptiness verdicts.
Every production witness must lie in a theory-satisfiable cell and be
accepted by exactly one side's restricted actions there (by the left side
only, for inclusion).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.oracle import OracleChecker, derivative_accepts
from repro.theories.bitvec import BitVecTheory, BoolAssign, BoolEq
from repro.theories.incnat import AssignNat, Gt, IncNatTheory, Incr
from repro.theories.ltlf import LtlfTheory
from repro.theories.sets import NatExpressionAdapter, SetAdd, SetIn, SetTheory
from repro.utils.errors import KmtError

BUDGET = 60_000


def _bitvec():
    theory = BitVecTheory(variables=("a", "b"))
    tests = [T.pprim(BoolEq(v)) for v in ("a", "b")]
    actions = [BoolAssign(v, value) for v in ("a", "b") for value in (True, False)]
    return theory, tests, actions


def _incnat():
    theory = IncNatTheory(variables=("x", "y"))
    tests = [T.pprim(Gt(v, k)) for v in ("x", "y") for k in range(3)]
    actions = [Incr("x"), Incr("y"), AssignNat("x", 1)]
    return theory, tests, actions


def _sets():
    nat = IncNatTheory(variables=("i",))
    theory = SetTheory(nat, NatExpressionAdapter(nat, variables=("i",)),
                       set_variables=("X",))
    tests = [T.pprim(SetIn("X", k)) for k in range(2)] + [T.pprim(Gt("i", 0))]
    actions = [SetAdd("X", "i"), SetAdd("X", 1), Incr("i")]
    return theory, tests, actions


def _ltlf():
    inner = BitVecTheory(variables=("a", "b"))
    theory = LtlfTheory(inner)
    a = inner.eq("a", True)
    tests = [a, inner.eq("b", True), theory.last(a)]
    actions = [BoolAssign("a", True), BoolAssign("a", False), BoolAssign("b", True)]
    return theory, tests, actions


SPECS = {"bitvec": _bitvec, "incnat": _incnat, "sets": _sets, "ltlf": _ltlf}

_SETUPS = {}


def _setup(name):
    """Per theory: (production KMT, oracle, tests, actions), built once.

    The oracle shares the production KMT's theory instance: higher-order
    theories (ltlf) need a KMT attached before they can normalize.
    """
    if name not in _SETUPS:
        theory, tests, actions = SPECS[name]()
        kmt = KMT(theory, budget=BUDGET)
        _SETUPS[name] = (kmt, OracleChecker(theory, budget=BUDGET), tests, actions)
    return _SETUPS[name]


def _terms(tests, actions):
    test = st.sampled_from(tests).flatmap(
        lambda pred: st.sampled_from([T.ttest(pred), T.ttest(T.pnot(pred))]))
    action = st.sampled_from(actions).map(T.tprim)
    leaf = st.one_of(test, action, action.map(T.tstar))
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: T.tseq(*pair)),
            st.tuples(children, children).map(lambda pair: T.tplus(*pair)),
        ),
        max_leaves=5,
    )


def _assert_witness(theory, result, left_only=False):
    cex = result.counterexample
    assert cex is not None
    if cex.cell:
        assert theory.satisfiable_conjunction(list(cex.cell))
    left = derivative_accepts(cex.left_actions, cex.word)
    right = derivative_accepts(cex.right_actions, cex.word)
    if left_only:
        assert left and not right
    else:
        assert left != right


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_production_matches_oracle(name, data):
    kmt, oracle, tests, actions = _setup(name)
    terms = _terms(tests, actions)
    p, q = data.draw(terms, label="p"), data.draw(terms, label="q")
    if data.draw(st.booleans(), label="equivalent variant"):
        # Independent random terms are almost always inequivalent; unroll a
        # star (a*; p == p + a; a*; p) so equivalent verdicts get coverage.
        star = T.tstar(T.tprim(data.draw(st.sampled_from(actions), label="a")))
        p, q = T.tseq(star, p), T.tplus(p, T.tseq(star.arg, T.tseq(star, p)))
    checker = kmt.checker
    cold = KMT(kmt.theory, budget=BUDGET)
    try:
        x, y = cold.normalize(p), cold.normalize(q)
    except KmtError:
        assume(False)  # pushback budget blow-ups are exercised elsewhere

    equivalence = checker.check_equivalent_nf(x, y)
    assert equivalence.equivalent == oracle.check_equivalent_nf(x, y).equivalent
    if not equivalence.equivalent:
        _assert_witness(kmt.theory, equivalence)

    inclusion = checker.check_inclusion_nf(x, y)
    assert inclusion.includes == oracle.check_inclusion_nf(x, y).includes
    if not inclusion.includes:
        _assert_witness(kmt.theory, inclusion, left_only=True)

    assert checker.is_empty_nf(x) == oracle.is_empty_nf(x)

    words = data.draw(st.lists(st.lists(st.sampled_from(actions), max_size=3).map(tuple),
                               max_size=4), label="words")
    if equivalence.counterexample is not None:
        words.append(equivalence.counterexample.word)
    assert checker.member_nf_many(x, words) == [oracle.member_nf(x, word) for word in words]
