"""Tests for the KMT facade object (parsing, coercion, recursive knot)."""

import pytest

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.normalform import NormalForm
from repro.core.pushback import normalize_with_stats
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import Gt, IncNatTheory, Incr
from repro.utils.errors import TheoryError
from repro.utils.frozendict import FrozenDict


class TestConstruction:
    def test_attaches_theory(self):
        theory = IncNatTheory()
        kmt = KMT(theory)
        assert theory.kmt is kmt
        assert "incnat" in repr(kmt)

    def test_unattached_theory_refuses_recursive_calls(self):
        theory = IncNatTheory()
        with pytest.raises(TheoryError):
            theory.require_kmt()


class TestCoercion:
    def test_strings_preds_and_terms_accepted(self, kmt_incnat):
        term = kmt_incnat.parse("inc(x)")
        pred = kmt_incnat.parse_pred("x > 1")
        assert kmt_incnat.equivalent(term, "inc(x)")
        assert kmt_incnat.equivalent(pred, "x > 1")
        assert kmt_incnat.equivalent(T.ttest(pred), pred)

    def test_bad_input_rejected(self, kmt_incnat):
        with pytest.raises(TypeError):
            kmt_incnat.equivalent(42, "inc(x)")

    def test_satisfiable_accepts_strings(self, kmt_incnat):
        assert kmt_incnat.satisfiable("x > 1; ~(x > 5)")
        assert not kmt_incnat.satisfiable("x > 5; ~(x > 5)")


class TestDerivedOperations:
    def test_normalize_returns_normal_form(self, kmt_incnat):
        nf = kmt_incnat.normalize(kmt_incnat.parse("inc(x); x > 1"))
        assert isinstance(nf, NormalForm)

    def test_normalize_with_stats(self, kmt_incnat):
        # The session's step counter (what ``kmt norm`` reports) matches one
        # uncached pushback run on the same term.
        term = kmt_incnat.parse("inc(x)*; x > 1")
        nf, stats = normalize_with_stats(term, kmt_incnat.theory)
        assert kmt_incnat.normalize(term) == nf
        assert len(nf) == 3
        assert stats.steps > 0
        assert kmt_incnat.stats()["session"]["normalization_steps"] == stats.steps

    def test_pretty_round(self, kmt_incnat):
        term = kmt_incnat.parse("inc(x); x > 1")
        assert kmt_incnat.parse(kmt_incnat.pretty(term)) == term
        pred = kmt_incnat.parse_pred("x > 1")
        assert kmt_incnat.pretty(pred) == "x > 1"

    def test_run_uses_initial_state_by_default(self):
        kmt = KMT(IncNatTheory(variables=("x",)))
        traces = kmt.run("inc(x); inc(x)")
        (trace,) = traces
        assert trace.last_state["x"] == 2
        assert kmt.accepts("inc(x); x > 0")
        assert not kmt.accepts("x > 3")

    def test_output_states(self):
        kmt = KMT(IncNatTheory(variables=("x",)))
        states = kmt.output_states("inc(x) + inc(x); inc(x)")
        assert {s["x"] for s in states} == {1, 2}

    def test_run_with_explicit_state(self, kmt_incnat):
        traces = kmt_incnat.run("x > 3", state=FrozenDict(x=5, y=0))
        assert len(traces) == 1

    def test_eval_pred_on_trace(self, kmt_incnat):
        from repro.core.semantics import Trace

        trace = Trace.initial(FrozenDict(x=4, y=0))
        assert kmt_incnat.eval_pred(kmt_incnat.parse_pred("x > 3"), trace)


class TestWeakestPrecondition:
    def test_primitive_test(self, kmt_incnat):
        wp = kmt_incnat.weakest_precondition(Incr("x"), T.pprim(Gt("x", 3)))
        assert wp == T.pprim(Gt("x", 2))

    def test_compound_test(self, kmt_incnat):
        pred = T.pand(T.pprim(Gt("x", 3)), T.pnot(T.pprim(Gt("x", 5))))
        wp = kmt_incnat.weakest_precondition(Incr("x"), pred)
        # inc x; (x>3 ; ~(x>5))  ==  (x>2 ; ~(x>4)); inc x
        assert wp == T.pand(T.pprim(Gt("x", 2)), T.pnot(T.pprim(Gt("x", 4))))

    def test_constant_tests(self, kmt_incnat):
        assert kmt_incnat.weakest_precondition(Incr("x"), T.pone()) is T.pone()
        assert kmt_incnat.weakest_precondition(Incr("x"), T.pzero()) is T.pzero()


class TestBudgetThreading:
    def test_budget_respected(self):
        from repro.utils.errors import NormalizationBudgetExceeded

        kmt = KMT(BitVecTheory(), budget=1_000)
        with pytest.raises(NormalizationBudgetExceeded):
            kmt.normalize(kmt.parse("(flip a + flip b + flip c)*"))
