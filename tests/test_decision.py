"""Tests for the equivalence decision procedure (paper Theorem 3.7)."""

import pytest
from hypothesis import given, settings

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.oracle import OracleChecker
from repro.core.semantics import equivalent_up_to_length
from repro.theories.bitvec import BitVecTheory, BoolAssign, BoolEq
from repro.theories.incnat import Gt, IncNatTheory, Incr
from repro.utils.frozendict import FrozenDict
from tests.conftest import all_bitvec_states, bitvec_terms


class TestBasicVerdicts:
    def test_reflexivity(self, kmt_incnat):
        term = kmt_incnat.parse("inc(x); x > 1")
        assert kmt_incnat.equivalent(term, term)

    def test_zero_one(self, kmt_bitvec):
        assert not kmt_bitvec.equivalent("true", "false")
        assert kmt_bitvec.equivalent("true", "~false")

    def test_test_order_irrelevant(self, kmt_bitvec):
        assert kmt_bitvec.equivalent("a = T; b = T", "b = T; a = T")

    def test_different_actions_differ(self, kmt_bitvec):
        assert not kmt_bitvec.equivalent("a := T", "a := F")

    def test_tracing_distinguishes_repeated_assignments(self, kmt_bitvec):
        """Section 2.1: unlike KAT+B!, a:=T;a:=T is not equal to a:=T."""
        assert not kmt_bitvec.equivalent("a := T; a := T", "a := T")

    def test_theory_facts_used(self, kmt_incnat):
        """x>5 implies x>3, so the conjunction collapses (GT-Min)."""
        assert kmt_incnat.equivalent("x > 5; x > 3", "x > 5")
        assert kmt_incnat.equivalent("x > 5; ~(x > 3)", "false")
        assert not kmt_incnat.equivalent("x > 3", "x > 5")

    def test_loop_unrolling_equivalence(self, kmt_incnat):
        """Section 1.1: a loop is equivalent to its unfolding."""
        loop = "(x < 3; inc(x))*; ~(x < 3); x > 2"
        unrolled = "(true + x < 3; inc(x); (x < 3; inc(x))*); ~(x < 3); x > 2"
        assert kmt_incnat.equivalent(loop, unrolled)


class TestResultObject:
    def test_result_reports_cells(self, kmt_bitvec):
        # The sides' restricted-action sums must differ syntactically, or the
        # reflexivity fast path answers without a language comparison and
        # cells_explored stays 0 (see test_identical_sums_need_no_comparison).
        result = kmt_bitvec.check_equivalent("(b := T)*", "(b := T)*; (b := T)*")
        assert result.equivalent
        assert result.cells_explored >= 1
        assert result.signatures_explored >= 1
        assert "equivalent" in repr(result)

    def test_identical_sums_need_no_comparison(self, kmt_bitvec):
        """Both sides enable the identical sum in every signature: decided by
        reflexivity, no language comparison performed."""
        result = kmt_bitvec.check_equivalent("a = T + ~(a = T)", "true")
        assert result.equivalent
        assert result.cells_explored == 0
        assert result.signatures_explored >= 1

    def test_enumerate_mode_reports_no_signatures(self, bitvec, kmt_bitvec):
        oracle = OracleChecker(bitvec)
        result = oracle.check_equivalent(kmt_bitvec.parse("a = T + ~(a = T)"),
                                         kmt_bitvec.parse("true"))
        assert result.equivalent
        assert result.cells_explored >= 1
        assert result.signatures_explored == 0

    def test_counterexample_available(self, kmt_bitvec):
        result = kmt_bitvec.check_equivalent("a = T; b := T", "a = T; b := F")
        assert not result.equivalent
        counterexample = result.counterexample
        assert counterexample is not None
        described = counterexample.describe()
        assert "cell" in described
        assert counterexample.word is not None

    def test_counterexample_cell_mentions_guard(self, kmt_incnat):
        result = kmt_incnat.check_equivalent("x > 1; inc(x)", "x > 2; inc(x)")
        assert not result.equivalent
        cell = dict(result.counterexample.cell)
        # The distinguishing cell satisfies x > 1 but not x > 2.
        assert cell[Gt("x", 1)] is True
        assert cell[Gt("x", 2)] is False


class TestOrderingAndEmptiness:
    def test_less_or_equal(self, kmt_incnat):
        assert kmt_incnat.less_or_equal("x > 5", "x > 3")
        assert not kmt_incnat.less_or_equal("x > 3", "x > 5")
        assert kmt_incnat.less_or_equal("inc(x)", "inc(x) + inc(y)")

    def test_is_empty(self, kmt_incnat):
        assert kmt_incnat.is_empty("false")
        assert kmt_incnat.is_empty("x > 3; ~(x > 1)")
        assert not kmt_incnat.is_empty("inc(x)")
        assert kmt_incnat.is_empty("x < 1; inc(x); inc(x); x > 5")
        assert not kmt_incnat.is_empty("x < 1; inc(x); inc(x); x > 1")

    def test_partition_groups_equivalent_terms(self, kmt_incnat):
        terms = [
            kmt_incnat.parse("inc(x); x > 1"),
            kmt_incnat.parse("x > 0; inc(x)"),
            kmt_incnat.parse("inc(x)"),
            kmt_incnat.parse("x > 0; inc(x) + false"),
        ]
        classes = kmt_incnat.partition(terms)
        as_sets = {frozenset(members) for members in classes}
        assert as_sets == {frozenset({0, 1, 3}), frozenset({2})}


class TestPruningAblation:
    """``prune_unsat_cells`` applies to the reference cell enumerator."""

    def test_unpruned_checker_agrees(self):
        theory = BitVecTheory()
        pruned = OracleChecker(theory, prune_unsat_cells=True)
        unpruned = OracleChecker(theory, prune_unsat_cells=False)
        kmt = KMT(theory)
        pairs = [
            ("a = T; a := F", "a = T; a := F"),
            ("a := T; a = T", "a := T"),
            ("a := T; a = F", "false"),
            ("a = T + b = T", "b = T + a = T"),
            ("a := T", "a := F"),
        ]
        for left, right in pairs:
            p, q = kmt.parse(left), kmt.parse(right)
            assert pruned.equivalent(p, q) == unpruned.equivalent(p, q)

    def test_pruning_skips_inconsistent_cells(self):
        theory = IncNatTheory()
        kmt = KMT(theory)
        checker = OracleChecker(theory, prune_unsat_cells=True)
        p = kmt.parse("x > 5; x > 3; inc(x)")
        result = checker.check_equivalent(p, p)
        assert result.equivalent
        assert result.cells_pruned >= 1


class TestKatTheorems:
    """The Fig. 5 'Consequences' hold in the decision procedure."""

    def test_denesting(self, kmt_bitvec):
        assert kmt_bitvec.equivalent("(a := T + b := T)*", "(a := T)*; (b := T; (a := T)*)*")

    def test_sliding(self, kmt_bitvec):
        assert kmt_bitvec.equivalent(
            "a := T; (b := T; a := T)*", "(a := T; b := T)*; a := T"
        )

    def test_pushback_neg_consequence(self, kmt_incnat):
        """inc x; x>1 == x>0; inc x  implies  inc x; ~(x>1) == ~(x>0); inc x."""
        assert kmt_incnat.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        assert kmt_incnat.equivalent("inc(x); ~(x > 1)", "~(x > 0); inc(x)")

    def test_star_unroll_left_and_right(self, kmt_bitvec):
        assert kmt_bitvec.equivalent("(a := T)*", "true + a := T; (a := T)*")
        assert kmt_bitvec.equivalent("(a := T)*", "true + (a := T)*; a := T")


class TestDifferentialAgainstSemantics:
    """If the decision procedure says 'equivalent', the executable tracing
    semantics must agree on every start state (soundness, Theorem 3.1); if the
    bounded semantics finds a difference, the procedure must say 'different'
    (completeness, Theorem 3.7)."""

    @settings(max_examples=30, deadline=None)
    @given(bitvec_terms(max_leaves=4), bitvec_terms(max_leaves=4))
    def test_decision_matches_bounded_semantics(self, p, q):
        theory = BitVecTheory(variables=("a", "b", "c"))
        kmt = KMT(theory, budget=30_000)
        try:
            verdict = kmt.equivalent(p, q)
        except Exception:
            return  # budget blow-ups are exercised elsewhere
        semantic = equivalent_up_to_length(
            p, q, all_bitvec_states(), theory, max_actions=4
        )
        if verdict:
            assert semantic
        if not semantic:
            assert not verdict

    @settings(max_examples=25, deadline=None)
    @given(bitvec_terms(max_leaves=4))
    def test_every_term_equivalent_to_itself_plus_itself(self, p):
        theory = BitVecTheory(variables=("a", "b", "c"))
        kmt = KMT(theory, budget=30_000)
        try:
            assert kmt.equivalent(T.tplus(p, p), p)
        except Exception:
            return
