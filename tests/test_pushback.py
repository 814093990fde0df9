"""Tests for pushback-based normalization (paper Fig. 8, Theorems 3.4/3.5)."""

import json
import time

import pytest
from hypothesis import given, settings

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.normalform import NormalForm
from repro.core.pushback import DEFAULT_BUDGET, Normalizer, normalize, normalize_with_stats
from repro.core.semantics import equivalent_up_to_length
from repro.engine.server import run_batch_lines
from repro.theories import build_theory
from repro.theories.bitvec import BitVecTheory, BoolAssign, BoolEq
from repro.theories.incnat import AssignNat, Gt, IncNatTheory, Incr
from repro.utils.errors import NormalizationBudgetExceeded, PushbackCycle
from repro.utils.frozendict import FrozenDict
from tests.conftest import all_bitvec_states, bitvec_terms, incnat_terms


def gt(var, bound):
    return T.pprim(Gt(var, bound))


def inc(var):
    return T.tprim(Incr(var))


class TestNormalizeStructure:
    def test_test_normalizes_to_itself(self, incnat):
        nf = normalize(T.ttest(gt("x", 2)), incnat)
        assert nf.pairs == frozenset({(gt("x", 2), T.tone())})

    def test_primitive_action(self, incnat):
        nf = normalize(inc("x"), incnat)
        assert nf.pairs == frozenset({(T.pone(), inc("x"))})

    def test_plus_joins_sums(self, incnat):
        nf = normalize(T.tplus(T.ttest(gt("x", 2)), inc("x")), incnat)
        assert len(nf) == 2

    def test_all_actions_restricted(self, incnat):
        term = T.tseq(T.tstar(inc("x")), T.ttest(gt("x", 2)))
        nf = normalize(term, incnat)
        for _, action in nf:
            assert T.is_restricted(action)

    def test_seq_pushes_test_to_front(self, incnat):
        """inc(x); x > 1  ==  (x > 0); inc(x)  (the Inc-GT axiom)."""
        nf = normalize(T.tseq(inc("x"), T.ttest(gt("x", 1))), incnat)
        assert nf.pairs == frozenset({(gt("x", 0), inc("x"))})

    def test_seq_pushes_to_one_when_trivial(self, incnat):
        """inc(x); x > 0  ==  inc(x)  (the Inc-GT-Z axiom)."""
        nf = normalize(T.tseq(inc("x"), T.ttest(gt("x", 0))), incnat)
        assert nf.pairs == frozenset({(T.pone(), inc("x"))})

    def test_assignment_resolves_statically(self, incnat):
        """x := 5; x > 3  ==  x := 5   and   x := 2; x > 3  ==  0."""
        assign5 = T.tprim(AssignNat("x", 5))
        assign2 = T.tprim(AssignNat("x", 2))
        nf_true = normalize(T.tseq(assign5, T.ttest(gt("x", 3))), incnat)
        assert nf_true.pairs == frozenset({(T.pone(), assign5)})
        nf_false = normalize(T.tseq(assign2, T.ttest(gt("x", 3))), incnat)
        assert nf_false.is_vacuous()

    def test_star_of_pure_actions_is_kept_whole(self, incnat):
        nf = normalize(T.tstar(inc("x")), incnat)
        assert nf.pairs == frozenset({(T.pone(), T.tstar(inc("x")))})

    def test_star_with_guard_generates_case_split(self, incnat):
        """inc(x)*; x > 2 splits into the cases x>2, x>1, x>0 and 'always'."""
        term = T.tseq(T.tstar(inc("x")), T.ttest(gt("x", 2)))
        nf = normalize(term, incnat)
        tests = {test for test, _ in nf}
        assert gt("x", 2) in tests
        assert gt("x", 1) in tests
        assert gt("x", 0) in tests
        assert T.pone() in tests
        assert len(nf) == 4

    def test_negated_test_through_action(self, incnat):
        """inc(x); ~(x > 1)  ==  ~(x > 0); inc(x)  (PrimNeg + Pushback-Neg)."""
        nf = normalize(T.tseq(inc("x"), T.ttest(T.pnot(gt("x", 1)))), incnat)
        assert nf.pairs == frozenset({(T.pnot(gt("x", 0)), inc("x"))})

    def test_mixed_variables_commute(self, incnat):
        """inc(y); x > 3  ==  (x > 3); inc(y)  (GT-Comm)."""
        nf = normalize(T.tseq(inc("y"), T.ttest(gt("x", 3))), incnat)
        assert nf.pairs == frozenset({(gt("x", 3), inc("y"))})


class TestPaperExamples:
    def test_section_2_3_set_like_loop_shape(self, incnat):
        """(inc x)*; x > 1 has one summand per unrolling depth plus the tail."""
        term = T.tseq(T.tstar(inc("x")), T.ttest(gt("x", 1)))
        nf, stats = normalize_with_stats(term, incnat)
        assert len(nf) == 3
        assert stats.prim_pushbacks >= 2

    def test_population_count_structure(self, kmt_product):
        """Fig. 9 row 6's two sides normalize to normal forms over the same tests."""
        kmt = kmt_product
        lhs = kmt.parse("y < 1; a = T; inc(y); y > 0")
        nf = kmt.normalize(lhs)
        for _, action in nf:
            assert T.is_restricted(action)
        assert len(nf) >= 1


class TestStats:
    def test_stats_accumulate(self, incnat):
        term = T.tseq(T.tstar(inc("x")), T.ttest(gt("x", 3)))
        nf, stats = normalize_with_stats(term, incnat)
        assert stats.steps > 0
        assert stats.max_normal_form_size >= len(nf)
        assert stats.as_dict()["steps"] == stats.steps
        assert "steps" in repr(stats)

    def test_denest_counted(self):
        """A sum of two guarded assignments under star exercises the Denest rule."""
        theory = BitVecTheory()
        set_a = T.tseq(
            T.ttest(T.pnot(T.pprim(BoolEq("a")))), T.tprim(BoolAssign("a", True))
        )
        set_b = T.tseq(
            T.ttest(T.pnot(T.pprim(BoolEq("b")))), T.tprim(BoolAssign("b", True))
        )
        term = T.tstar(T.tplus(set_a, set_b))
        _, stats = normalize_with_stats(term, theory)
        assert stats.denests > 0


class TestBudget:
    def test_budget_exceeded_raises(self):
        theory = BitVecTheory()
        flips = []
        for var in ("a", "b", "c"):
            flips.append(
                T.tplus(
                    T.tseq(T.ttest(T.pprim(BoolEq(var))), T.tprim(BoolAssign(var, False))),
                    T.tseq(T.ttest(T.pnot(T.pprim(BoolEq(var)))), T.tprim(BoolAssign(var, True))),
                )
            )
        blow_up = T.tstar(T.tplus_all(flips))
        with pytest.raises(NormalizationBudgetExceeded) as excinfo:
            normalize(blow_up, theory, budget=5_000)
        assert excinfo.value.budget == 5_000

    def test_unbudgeted_small_terms_fine(self, incnat):
        nf = normalize(T.tstar(inc("x")), incnat, budget=None)
        assert len(nf) == 1

    def test_default_budget_is_generous(self):
        assert DEFAULT_BUDGET >= 100_000


#: ``prog_equiv`` requests whose pushback re-enters a PB• pair it is still
#: computing: pushing a loop guard back through the loop meets the same
#: ``(action, test)`` pair again.  Normalization does not terminate on them
#: yet; until it does, each must answer a ``pushback_cycle`` error quickly
#: instead of recursing into ``input_too_deep``.
PUSHBACK_CYCLES = [
    ("sets", "add(X, i);", "while (in(X, 0)) { add(X, i); inc(i); }"),
    ("sets", "add(X, i);", "while (in(X, 1)) { inc(i); add(X, i); }"),
    ("sets", "add(X, j);", "while (in(X, 2)) { inc(j); add(X, j); inc(j); }"),
    ("sets", "add(X, i);", "while (in(X, 0); i > 1) { add(X, i); inc(i); }"),
    ("maps", "m[i] := p;", "while (m[0] = p) { m[i] := p; inc(i); }"),
    ("maps", "m[i] := p;", "while (~(m[0] = p)) { m[i] := p; inc(i); }"),
    ("maps", "m[i] := p;", "while (m[1] = p) { inc(i); m[i] := p; }"),
]


class TestPushbackCycle:
    @pytest.mark.parametrize("theory,left,right", PUSHBACK_CYCLES)
    def test_cycle_answers_pushback_cycle(self, theory, left, right):
        follow_up = {"op": "prog_equiv", "theory": theory, "left": left, "right": left}
        started = time.monotonic()
        responses, _ = run_batch_lines([
            json.dumps({"op": "prog_equiv", "theory": theory, "left": left,
                        "right": right}),
            json.dumps(follow_up),
        ])
        assert time.monotonic() - started < 5.0
        cycle, after = responses
        assert cycle["error_code"] == "pushback_cycle", cycle
        assert "PB•" in cycle["error"]
        # The guard leaves the session usable for the next query.
        assert after["ok"] and after["result"]["equivalent"], after

    def test_guard_names_the_theory(self):
        theory = build_theory("sets")
        kmt = KMT(theory)
        _, left, right = PUSHBACK_CYCLES[0]
        with pytest.raises(PushbackCycle) as excinfo:
            kmt.prog_equiv(left, right)
        assert excinfo.value.theory_name == theory.name
        assert repr(theory.name) in str(excinfo.value)


class TestNormalizerReuse:
    def test_prim_pushback_cache(self, incnat):
        normalizer = Normalizer(incnat)
        term = T.tseq(inc("x"), T.ttest(gt("x", 3)))
        first = normalizer.normalize(term)
        count_after_first = normalizer.stats.prim_pushbacks
        second = normalizer.normalize(term)
        assert first == second
        assert normalizer.stats.prim_pushbacks == count_after_first  # cache hit

    def test_pb_star_cache(self, incnat):
        normalizer = Normalizer(incnat)
        nf = NormalForm({(gt("x", 1), inc("x"))})
        first = normalizer.pb_star(nf)
        second = normalizer.pb_star(nf)
        assert first == second


class TestSoundnessAgainstSemantics:
    """Theorem 3.4: the normal form denotes the same traces as the original."""

    @settings(max_examples=30, deadline=None)
    @given(bitvec_terms(max_leaves=4))
    def test_bitvec_normal_forms_preserve_semantics(self, term):
        theory = BitVecTheory(variables=("a", "b", "c"))
        try:
            nf = normalize(term, theory, budget=30_000)
        except NormalizationBudgetExceeded:
            return
        assert equivalent_up_to_length(
            term, nf.to_term(), all_bitvec_states(), theory, max_actions=4
        )

    @settings(max_examples=30, deadline=None)
    @given(incnat_terms(max_leaves=4, allow_star=False))
    def test_incnat_star_free_normal_forms_preserve_semantics(self, term):
        theory = IncNatTheory(variables=("x", "y"))
        nf = normalize(term, theory, budget=100_000)
        states = [
            FrozenDict(x=0, y=0),
            FrozenDict(x=1, y=3),
            FrozenDict(x=4, y=2),
            FrozenDict(x=5, y=5),
        ]
        assert equivalent_up_to_length(term, nf.to_term(), states, theory, max_actions=4)

    @settings(max_examples=15, deadline=None)
    @given(incnat_terms(max_leaves=3, allow_star=True))
    def test_incnat_with_star_normal_forms_preserve_semantics(self, term):
        theory = IncNatTheory(variables=("x", "y"))
        try:
            nf = normalize(term, theory, budget=50_000)
        except NormalizationBudgetExceeded:
            return
        states = [FrozenDict(x=0, y=0), FrozenDict(x=2, y=1), FrozenDict(x=5, y=4)]
        assert equivalent_up_to_length(term, nf.to_term(), states, theory, max_actions=5)
