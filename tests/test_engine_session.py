"""Tests for EngineSession: cached normalization, decisions, cross-theory reuse."""

import time

import pytest

from repro.core import terms as T
from repro.core.kmt import KMT
from repro.core.pushback import Normalizer
from repro.engine.cache import EngineCaches
from repro.engine.session import EngineSession
from repro.theories import build_theory
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import IncNatTheory
from repro.theories.netkat import NetKatTheory


@pytest.fixture
def session():
    return EngineSession(IncNatTheory(variables=("x", "y")))


class TestCachedNormalization:
    def test_repeated_normalize_hits_cache(self, session):
        term = session.parse("inc(x)*; x > 2")
        first = session.normalize(term)
        misses = session.caches.norm.stats.misses
        second = session.normalize(term)
        assert first is second
        assert session.caches.norm.stats.hits >= 1
        assert session.caches.norm.stats.misses == misses

    def test_string_and_term_queries_share_cache(self, session):
        nf1 = session.normalize("inc(x); x > 1")
        nf2 = session.normalize(session.parse("inc(x); x > 1"))
        assert nf1 is nf2

    def test_normalizer_memos_hold_only_the_last_normalization(self, session):
        session.normalize("(inc(x))*; x > 1")
        first = session.stats()["session"]
        assert first["pb_star_memo"] >= 1 and first["pb_prim_memo"] >= 1
        session.normalize("(inc(y))*; y > 2")
        # Exactly what a fresh normalizer holds after the second term alone.
        fresh = Normalizer(session.theory)
        fresh.normalize(session.parse("(inc(y))*; y > 2"))
        ours = session._normalizer
        for memo in ("_pb_cache", "_pb_star_cache"):
            assert set(getattr(ours, memo)) == set(getattr(fresh, memo)), memo
        assert set(ours.ctx._sub_cache) == set(fresh.ctx._sub_cache)
        second = session.stats()["session"]
        assert second["pb_star_memo"] == len(fresh._pb_star_cache) >= 1
        assert second["pb_prim_memo"] == fresh.stats.prim_pushbacks >= 1

    def test_budget_applies_per_query_not_per_session(self):
        # A session whose lifetime total exceeds the budget must keep working
        # as long as each individual query stays under it.
        session = EngineSession(IncNatTheory(variables=("x",)), budget=100)
        for bound in range(20):
            session.normalize(f"inc(x)*; x > {bound}")
        assert session.stats()["session"]["normalization_steps"] > 100


class TestCachedDecisions:
    def test_equivalence_verdict_cached(self, session):
        assert session.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        hits_before = session.caches.equiv.stats.hits
        assert session.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        assert session.caches.equiv.stats.hits > hits_before

    def test_symmetric_lookup_reuses_positive_verdict(self, session):
        assert session.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        puts_before = session.caches.equiv.stats.puts
        assert session.equivalent("x > 0; inc(x)", "inc(x); x > 1")
        # The mirrored verdict was reused, not recomputed and re-stored.
        assert session.caches.equiv.stats.puts == puts_before

    def test_inequivalence_and_counterexample(self, session):
        result = session.check_equivalent("x > 1", "x > 2")
        assert not result.equivalent
        assert result.counterexample is not None

    def test_leq_and_empty_and_sat(self, session):
        assert session.less_or_equal("inc(x)", "inc(x) + inc(y)")
        assert session.is_empty("x > 3; ~(x > 3)")
        assert not session.is_empty("inc(x)")
        assert session.satisfiable("x > 3; ~(x > 5)")
        assert not session.satisfiable("x > 5; ~(x > 3)")

    def test_partition_matches_kmt(self, session):
        terms = [
            session.parse("inc(x); x > 1"),
            session.parse("x > 0; inc(x)"),
            session.parse("inc(x)"),
        ]
        assert session.partition(terms) == [[0, 1], [2]]

    def test_one_search_never_asks_the_oracle_twice(self, session, monkeypatch):
        # A literal set never recurs within one signature search, which is
        # why the search keeps no conjunction memo.
        asked = []
        oracle = session.theory.satisfiable_conjunction
        monkeypatch.setattr(session.theory, "satisfiable_conjunction",
                            lambda literals: asked.append(frozenset(literals)) or oracle(literals))
        for left, right in (("inc(x)*; x > 2", "inc(x)*; inc(x)*; x > 2"),
                            ("inc(x)*; x > 2", "inc(x)*; x > 2; inc(x)*"),
                            ("x > 1; inc(y) + x > 3; inc(x)", "x > 2; inc(y) + y > 0")):
            asked.clear()
            session.equivalent(left, right)
            assert asked
            assert len(set(asked)) == len(asked)


class TestStructuralCacheKeys:
    """Memo tables key on the hash-consed nodes, whose equality is
    structural: an equal twin built after the intern table is dropped finds
    the entry its original stored."""

    def _misses(self, session):
        tables = session.stats()["tables"]
        return {name: tables[name]["misses"] for name in ("norm", "aut", "equiv")}

    def test_twins_hit_after_intern_table_clear(self):
        session = EngineSession(BitVecTheory(variables=("a", "b", "c")))
        original = session.parse("(a := T)*; (a := T)*")
        assert session.equivalent("(a := T)*", "(a := T)*; (a := T)*")
        assert session.stats()["tables"]["aut"]["puts"] > 0
        warm = self._misses(session)

        T.clear_intern_table()
        # Spaced differently, so the source table misses and the parser
        # builds fresh nodes: equal to the cached keys, but other objects.
        twin = session.parse("(a := T)*  ;  (a := T)*")
        assert twin is not original
        assert twin == original and hash(twin) == hash(original)
        assert session.equivalent("( a := T )*", "(a := T)*  ;  (a := T)*")
        assert self._misses(session) == warm

        # A new term normalizes afresh into twin actions; their compiled
        # automata are still found under the original keys.
        assert not session.is_empty("b = T; (a := T)*")
        after = self._misses(session)
        assert after["aut"] == warm["aut"]
        assert after["norm"] == warm["norm"] + 1

    def test_equal_normal_forms_share_one_equiv_entry(self):
        from repro.core.normalform import NormalForm
        from repro.theories.incnat import Gt, Incr

        session = EngineSession(IncNatTheory(variables=("x",)))
        pairs = {(T.pprim(Gt("x", 1)), T.tprim(Incr("x")))}
        x, y = NormalForm(pairs), NormalForm(set(pairs))
        assert x is not y and x == y
        other = NormalForm({(T.pprim(Gt("x", 2)), T.tprim(Incr("x")))})
        checker = session.checker
        first = checker.check_equivalent_nf(x, other)
        equiv = session.caches.equiv.stats
        misses, puts = equiv.misses, equiv.puts
        again = checker.check_equivalent_nf(y, other)
        assert again.cached and again.equivalent == first.equivalent
        assert (equiv.misses, equiv.puts) == (misses, puts)
        assert len(session.caches.equiv) == 1


class TestSessionAgreesWithKMT:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("inc(x); x > 1", "x > 0; inc(x)"),
            ("inc(x)*; x > 10", "inc(x)*; inc(x)*; x > 10"),
            ("x > 1", "x > 2"),
            ("x := 3; x > 2", "x := 3"),
        ],
    )
    def test_same_verdicts(self, left, right, kmt_incnat, session):
        assert session.equivalent(left, right) == kmt_incnat.equivalent(left, right)


class TestCrossTheoryReuse:
    def test_independent_sessions_coexist(self):
        nat = EngineSession(IncNatTheory(variables=("x",)))
        boolean = EngineSession(BitVecTheory(variables=("a",)))
        net = EngineSession(NetKatTheory({"sw": (1, 2)}))

        assert nat.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        assert boolean.equivalent("a := T; a = T", "a := T")
        assert net.equivalent("sw <- 1; sw = 1", "sw <- 1")

        # Interleave: caches stay per-session and verdicts stay correct.
        assert nat.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        assert boolean.equivalent("a := T; a = T", "a := T")
        assert nat.caches is not boolean.caches
        assert nat.caches.norm.stats.hits >= 1
        assert boolean.caches.norm.stats.hits >= 1

    def test_clear_caches_keeps_session_usable(self):
        session = EngineSession(IncNatTheory(variables=("x",)))
        assert session.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        session.clear_caches()
        assert session.equivalent("inc(x); x > 1", "x > 0; inc(x)")


class TestStatsSurface:
    def test_stats_shape(self, session):
        session.equivalent("inc(x); x > 1", "x > 0; inc(x)")
        stats = session.stats()
        assert "tables" in stats and "session" in stats and "totals" in stats
        assert stats["session"]["queries"] > 0
        assert stats["session"]["theory"]


class TestPredAndTermInputs:
    def test_pred_input_coerced(self, session):
        from repro.theories.incnat import Gt

        pred = T.pprim(Gt("x", 1))
        assert not session.is_empty(pred)
        assert session.satisfiable(pred)


#: Per theory, a pool of five equivalence queries cycled ``CYCLES`` times:
#: the repeated/overlapping shape a served workload has.
REPEATED_WORKLOAD = {
    "incnat": [
        ("inc(x); x > 1", "x > 0; inc(x)"),
        ("inc(x)*; x > 4", "inc(x)*; inc(x)*; x > 4"),
        ("x > 2; inc(x)", "x > 2; x > 1; inc(x)"),
        ("inc(x); inc(x); x > 2", "x > 0; inc(x); inc(x)"),
        ("x > 1", "x > 2"),
    ],
    "bitvec": [
        ("a := T; a = T", "a := T"),
        ("flip a; flip a; a = T", "a = T; flip a; flip a"),
        ("(a := T)*; a = T", "(a := T)*; a := T; a = T + a = T"),
        ("a := F; a = T", "a := F; a = T; a = T"),
        ("a = T + ~(a = T)", "1"),
    ],
    "netkat": [
        ("sw <- 1; sw = 1", "sw <- 1"),
        ("sw = 1; sw <- 2", "sw = 1; sw <- 2; sw = 2"),
        ("sw <- 1 + sw <- 2", "sw <- 2 + sw <- 1"),
        ("sw = 1; sw = 2", "drop"),
        ("(sw <- 1)*; sw = 1", "(sw <- 1)*; sw <- 1"),
    ],
}
CYCLES = 20


class TestWarmSessionAmortizes:
    @pytest.mark.parametrize("theory_name", sorted(REPEATED_WORKLOAD))
    def test_later_cycles_add_no_misses(self, theory_name):
        session = EngineSession(build_theory(theory_name))
        pairs = REPEATED_WORKLOAD[theory_name]

        def misses():
            tables = session.stats()["tables"]
            return {name: tables[name]["misses"] for name in ("norm", "aut", "equiv")}

        first = [session.equivalent(left, right) for left, right in pairs]
        after_first = misses()
        for _ in range(CYCLES - 1):
            assert [session.equivalent(left, right) for left, right in pairs] == first
        assert misses() == after_first

    @pytest.mark.slow
    def test_warm_session_beats_cold_one_shot(self):
        """A fresh KMT per query against one warm session on the same stream:
        the best theory must win by 3x."""
        speedups = {}
        for theory_name, pairs in REPEATED_WORKLOAD.items():
            stream = pairs * CYCLES
            started = time.perf_counter()
            cold = [KMT(build_theory(theory_name)).equivalent(left, right)
                    for left, right in stream]
            cold_s = time.perf_counter() - started
            session = EngineSession(build_theory(theory_name))
            started = time.perf_counter()
            warm = [session.equivalent(left, right) for left, right in stream]
            warm_s = time.perf_counter() - started
            assert warm == cold
            speedups[theory_name] = cold_s / warm_s
        print("warm over cold: " + ", ".join(
            f"{name} {speedup:.1f}x" for name, speedup in sorted(speedups.items())))
        assert max(speedups.values()) >= 3.0, speedups


class TestBoundedMemory:
    """Endless distinct traffic keeps the live intern table flat: interning
    is weak, and every other memo is either a bounded LRU or dies with the
    nodes it is keyed on."""

    SMALL = dict(norm_size=64, sat_pred_size=64, equiv_size=64, aut_size=64,
                 prog_size=16)

    @pytest.mark.slow
    def test_intern_table_flat_under_cold_mix(self, monkeypatch):
        import gc
        import itertools

        from perfbench import streams
        from repro.engine import cache as cache_module
        from repro.engine.batch import run_query

        monkeypatch.setattr(cache_module, "SOURCE_TABLE_SIZE", 32)
        sessions, live = {}, {}
        for index, query in enumerate(itertools.islice(streams.cold_mix(1), 2000), 1):
            name = query.record["theory"]
            if name not in sessions:
                sessions[name] = KMT(build_theory(name), caches=EngineCaches(**self.SMALL))
            result, _ = run_query(sessions[name], dict(query.record))
            assert all(result[key] == value for key, value in query.expect.items())
            if index % 1000 == 0:
                gc.collect()
                live[index] = len(T._INTERN_TABLE)
        assert live[2000] <= 1.1 * live[1000], live
