"""Tests for the comparison and membership kernels (:mod:`repro.core.kernels`).

Covers, layer by layer:

* the seeded kernel differential: 200 pairs **per theory** (incnat, bitvec,
  sets) holding ``flat_compare`` / ``flat_includes`` to the derivative-based
  reference (:mod:`repro.core.oracle`) — identical verdicts, every witness
  accepted by exactly one side (the left side only, for inclusion), and
  every witness as short as the oracle's shortest distinguishing word;
* cooperative cancellation checkpoints inside the product walk and
  ``accepts_batch``;
* ``accepts_batch`` parity with the scalar ``accepts`` loop across batch
  sizes, unknown symbols, and the empty word;
* the ``kernel`` trace phase and its counters;
* automata as plain values: the canonical-table fast path fires across
  separate cache bundles and a cleared term intern table, and ``aut_bytes``
  (the sum of ``nbytes`` over the ``aut`` table) in every stats aggregation
  (session, sharded pool, merged worker blocks);
* batched membership end to end (``member_nf_many`` → ``KMT.member_many``
  → ``EngineSession.member_many``) against the scalar path and the oracle;
* the removed ``walk_kernel`` knob: rejected by every layer, CLI included.
"""

from __future__ import annotations

import random

import pytest

from repro import cli
from repro.core import terms as T
from repro.core.compile import compile_automaton
from repro.core.decision import EquivalenceChecker
from repro.core.kernels import accepts_batch, flat_compare, flat_includes
from repro.core.kmt import KMT
from repro.core.oracle import (
    OracleChecker,
    counterexample_word,
    language_compare,
    language_includes,
)
from repro.core.regexes import accepts_word
from repro.engine.cache import EngineCaches
from repro.engine.server import ShardedSessionPool, merge_pool_stats, run_batch_lines
from repro.engine.session import EngineSession
from repro.theories.bitvec import BitVecTheory, BoolAssign
from repro.theories.incnat import AssignNat, IncNatTheory, Incr
from repro.theories.sets import SetAdd
from repro.utils.errors import QueryCancelled
from repro.utils.trace import Trace, activate, deactivate

#: Acceptance criterion: >= 200 seeded pairs per theory.
KERNEL_PAIRS = 200

A = T.tprim(BoolAssign("a", True))
B = T.tprim(BoolAssign("b", True))
PI_A = BoolAssign("a", True)


# ---------------------------------------------------------------------------
# random action-term generators (restricted actions: no tests, per theory)
# ---------------------------------------------------------------------------


def _bitvec_action(rng):
    return BoolAssign(rng.choice(("a", "b", "c")), rng.random() < 0.5)


def _incnat_action(rng):
    if rng.random() < 0.6:
        return Incr(rng.choice(("x", "y")))
    return AssignNat(rng.choice(("x", "y")), rng.randint(0, 4))


def _sets_action(rng):
    if rng.random() < 0.7:
        expr = "i" if rng.random() < 0.4 else rng.randint(0, 2)
        return SetAdd(rng.choice(("X", "Y")), expr)
    return Incr("i")


def _random_action_term(rng, action_leaf, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        r = rng.random()
        if r < 0.08:
            return T.tone()
        if r < 0.13:
            return T.tzero()
        return T.tprim(action_leaf(rng))
    if roll < 0.45:
        return T.tstar(_random_action_term(rng, action_leaf, depth - 1))
    if roll < 0.75:
        return T.tseq(
            _random_action_term(rng, action_leaf, depth - 1),
            _random_action_term(rng, action_leaf, depth - 1),
        )
    return T.tplus(
        _random_action_term(rng, action_leaf, depth - 1),
        _random_action_term(rng, action_leaf, depth - 1),
    )


def _equivalent_variant(rng, p, q):
    """Pairs provably equivalent by a KA law (not always syntactically so)."""
    choice = rng.randrange(4)
    if choice == 0:
        return p, T.tplus(p, p)
    if choice == 1:
        return p, T.tseq(p, T.tone())
    if choice == 2:
        return T.tstar(p), T.tplus(T.tone(), T.tseq(p, T.tstar(p)))
    return T.tplus(p, q), T.tplus(q, p)


def _run_kernel_differential(action_leaf, seed, pairs):
    """Hold the kernels to the derivative oracle over ``pairs`` seeded random
    automaton pairs: same verdicts, one-sided witnesses of shortest length."""
    rng = random.Random(seed)
    compared = inequivalent = equivalent = attempts = 0
    while compared < pairs:
        attempts += 1
        assert attempts < pairs * 20, "too many generation attempts"
        p = _random_action_term(rng, action_leaf, depth=3)
        q = _random_action_term(rng, action_leaf, depth=3)
        if rng.random() < 0.45:
            p, q = _equivalent_variant(rng, p, q)
        a, b = compile_automaton(p), compile_automaton(q)
        eq = flat_compare(a, b)
        assert eq[0] == language_compare(p, q)[0], \
            f"derivative oracle disagrees on {p!r} vs {q!r}"
        inc = flat_includes(a, b)
        assert inc[0] == language_includes(p, q)[0], \
            f"derivative oracle disagrees on {p!r} <= {q!r}"
        if eq[0]:
            equivalent += 1
            assert eq == (True, None) and inc == (True, None)
        else:
            inequivalent += 1
            word = eq[1]
            assert accepts_word(p, word) != accepts_word(q, word)
            assert len(word) == len(counterexample_word(p, q, max_length=64))
            if not inc[0]:
                witness = inc[1]
                assert accepts_word(p, witness) and not accepts_word(q, witness)
                shortest = counterexample_word(T.tplus(p, q), q, max_length=64)
                assert len(witness) == len(shortest)
        compared += 1
    assert inequivalent >= 10 and equivalent >= 10  # both verdicts exercised


class TestKernelDifferential:
    def test_bitvec_differential(self):
        _run_kernel_differential(_bitvec_action, seed=20260807, pairs=KERNEL_PAIRS)

    def test_incnat_differential(self):
        _run_kernel_differential(_incnat_action, seed=20260808, pairs=KERNEL_PAIRS)

    def test_sets_differential(self):
        _run_kernel_differential(_sets_action, seed=20260809, pairs=KERNEL_PAIRS)


# ---------------------------------------------------------------------------
# cooperative cancellation inside the batched kernels
# ---------------------------------------------------------------------------


def _ticking_cancel(limit):
    calls = []

    def cancel():
        calls.append(1)
        if len(calls) >= limit:
            raise QueryCancelled("deadline")

    return cancel


def _deep_chain_pair(n):
    """``a^n`` vs ``a^(n+1)``: inequivalent with the witness ``n`` levels deep,
    so the BFS runs several levels before finding a mismatch."""
    chain = A
    for _ in range(n - 1):
        chain = T.tseq(chain, A)
    return compile_automaton(chain), compile_automaton(T.tseq(chain, A))


class TestCancellation:
    def test_cancel_inside_fallback_walk(self):
        a, b = _deep_chain_pair(6)
        with pytest.raises(QueryCancelled):
            flat_compare(a, b, cancel=_ticking_cancel(2))

    def test_fastpath_never_cancels(self):
        """Equal tables decide before any checkpoint — deadline-safe."""
        a = compile_automaton(T.tstar(T.tplus(A, B)))
        b = compile_automaton(T.tseq(T.tstar(A), T.tstar(T.tseq(B, T.tstar(A)))))

        def explode():
            raise QueryCancelled("should not be consulted")

        assert flat_compare(a, b, cancel=explode) == (True, None)

    def test_cancel_inside_accepts_batch_loop(self):
        aut = compile_automaton(T.tstar(A))
        with pytest.raises(QueryCancelled):
            accepts_batch(aut, [(PI_A,)] * 10, cancel=_ticking_cancel(3))


# ---------------------------------------------------------------------------
# batched membership parity
# ---------------------------------------------------------------------------


def _random_words(rng, aut, count):
    unknown = BoolAssign("zz", True)
    assert unknown not in aut.sigma
    pool = list(aut.sigma) + [unknown]
    words = [()]
    while len(words) < count:
        words.append(tuple(rng.choice(pool) for _ in range(rng.randint(0, 5))))
    return words


class TestAcceptsBatch:
    def _parity(self, count):
        rng = random.Random(count)
        term = _random_action_term(rng, _bitvec_action, depth=3)
        aut = compile_automaton(term)
        words = _random_words(rng, aut, count)
        assert accepts_batch(aut, words) == [aut.accepts(word) for word in words]

    def test_large_batch_matches_scalar_accepts(self):
        self._parity(count=40)

    def test_small_batch_matches_scalar_accepts(self):
        self._parity(count=3)

    def test_empty_batch(self):
        assert accepts_batch(compile_automaton(A), []) == []

    def test_empty_language_automaton(self):
        aut = compile_automaton(T.tzero())
        words = [(), (PI_A,), (PI_A, PI_A)] * 4
        assert accepts_batch(aut, words) == [False] * len(words)


# ---------------------------------------------------------------------------
# the kernel trace phase and counters
# ---------------------------------------------------------------------------


class TestTraceCounters:
    def _traced(self, fn):
        trace = activate(Trace())
        try:
            fn()
        finally:
            deactivate()
        return trace

    def test_fastpath_hit_counted_under_kernel_phase(self):
        a = compile_automaton(T.tstar(T.tplus(A, B)))
        b = compile_automaton(T.tseq(T.tstar(A), T.tstar(T.tseq(B, T.tstar(A)))))
        trace = self._traced(lambda: flat_compare(a, b))
        assert trace.counters["kernel_fastpath_hits"] == 1
        assert trace.phase_counts.get("kernel") == 1

    def test_walk_fallback_counted(self):
        a, b = _deep_chain_pair(3)
        trace = self._traced(lambda: flat_compare(a, b))
        assert trace.counters["kernel_walk_fallbacks"] == 1
        assert "kernel_fastpath_hits" not in trace.counters
        assert trace.phase_counts.get("kernel") == 1

    def test_batch_words_counted(self):
        aut = compile_automaton(T.tstar(A))
        trace = self._traced(lambda: accepts_batch(aut, [(), (PI_A,)]))
        assert trace.counters["kernel_batch_words"] == 2


# ---------------------------------------------------------------------------
# automata as plain values: fast path without shared objects, aut_bytes
# ---------------------------------------------------------------------------


def _fresh_action():
    """``(a + b)*; a``, built bottom-up from the primitives on each call."""
    a = T.tprim(BoolAssign("a", True))
    b = T.tprim(BoolAssign("b", True))
    return T.tseq(T.tstar(T.tplus(a, b)), a)


def _compiled_in_own_bundle(action):
    checker = EquivalenceChecker(BitVecTheory(variables=("a", "b")),
                                 caches=EngineCaches())
    return checker._compile_cached(action)


def _fastpath_counters(a, b):
    trace = activate(Trace())
    try:
        assert flat_compare(a, b) == (True, None)
    finally:
        deactivate()
    return (trace.counters.get("kernel_fastpath_hits", 0),
            trace.counters.get("kernel_walk_fallbacks", 0))


class TestArena:
    """Compiled automata compare by value, and ``aut_bytes`` accounting."""

    def test_separately_compiled_automata_take_the_fast_path(self):
        first = _compiled_in_own_bundle(_fresh_action())
        second = _compiled_in_own_bundle(_fresh_action())
        T.clear_intern_table()
        third = _compiled_in_own_bundle(_fresh_action())
        for other in (second, third):
            assert other is not first
            assert _fastpath_counters(first, other) == (1, 0)

    def test_aut_bytes_is_the_sum_over_the_aut_table(self):
        session = EngineSession(IncNatTheory(variables=("x", "y")),
                                caches=EngineCaches(aut_size=1))
        compile_cached = session.checker._compile_cached

        def reported():
            stats = session.stats()
            assert stats["aut_bytes"] == stats["session"]["aut_bytes"]
            return stats["aut_bytes"]

        session.check_equivalent("(inc(x) + inc(y))*", "(inc(x))*; (inc(y))*")
        assert reported() == sum(
            aut.nbytes for _, aut in session.caches.aut.items_snapshot()) > 0
        big = compile_cached(session.parse("inc(x); inc(y); inc(x); inc(y); inc(x)"))
        assert reported() == big.nbytes
        small = compile_cached(session.parse("inc(x)"))
        assert session.caches.aut.stats.evictions > 0
        assert reported() == small.nbytes < big.nbytes
        session.clear_caches()
        assert reported() == 0

    def test_session_stats_report_aut_bytes(self):
        session = EngineSession(IncNatTheory(variables=("x",)))
        session.check_equivalent("inc(x)", "(inc(x))*")
        stats = session.stats()
        assert stats["session"]["aut_bytes"] > 0
        assert stats["aut_bytes"] == stats["session"]["aut_bytes"]

    def test_sharded_pool_aggregates_aut_bytes(self):
        pool = ShardedSessionPool(stripes=2)
        session = pool.session("incnat", 0)
        with session.lock:
            session.check_equivalent("inc(x)", "(inc(x))*")
        assert pool.stats()["incnat"]["aut_bytes"] > 0

    def test_merge_pool_stats_sums_aut_bytes(self):
        block = {
            "incnat": {
                "stripes": 1, "queries": 2, "states_compiled": 5, "aut_bytes": 640,
                "tables": {}, "totals": {"hits": 0, "misses": 0},
            },
        }
        merged = merge_pool_stats([block, block])
        assert merged["incnat"]["aut_bytes"] == 1280


# ---------------------------------------------------------------------------
# batched membership end to end
# ---------------------------------------------------------------------------

_MEMBER_TERM = "(inc(x))*; inc(y)"
_MEMBER_WORDS = [
    [],
    ["inc(x)"],
    ["inc(y)"],
    ["inc(x)", "inc(y)"],
    ["inc(x)", "inc(x)", "inc(y)"],
    ["inc(y)", "inc(y)"],
    ["inc(x)", "inc(y)", "inc(x)"],
    ["inc(x)", "inc(x)"],
    ["inc(x)", "inc(x)", "inc(x)", "inc(y)"],
]


class TestMemberMany:
    def _expected(self, kmt):
        return [kmt.member(_MEMBER_TERM, word) for word in _MEMBER_WORDS]

    def test_matches_scalar_member_on_every_configuration(self):
        theory = IncNatTheory(variables=("x", "y"))
        kmt = KMT(theory)
        verdicts = kmt.member_many(_MEMBER_TERM, _MEMBER_WORDS)
        assert verdicts == self._expected(kmt)
        oracle = OracleChecker(IncNatTheory(variables=("x", "y")))
        nf = oracle.normalize(kmt.parse(_MEMBER_TERM))
        assert verdicts == [oracle.member_nf(nf, kmt._coerce_word(word))
                            for word in _MEMBER_WORDS]

    def test_session_member_many(self):
        session = EngineSession(IncNatTheory(variables=("x", "y")))
        verdicts = session.member_many(_MEMBER_TERM, _MEMBER_WORDS)
        assert verdicts == [session.member(_MEMBER_TERM, word) for word in _MEMBER_WORDS]
        # One public entry point = one query (plus the scalar replays above).
        assert session.queries == 1 + len(_MEMBER_WORDS)

    def test_member_many_reuses_the_aut_cache(self):
        session = EngineSession(IncNatTheory(variables=("x", "y")))
        session.member_many(_MEMBER_TERM, _MEMBER_WORDS)
        compiled = session.checker.states_compiled
        assert compiled > 0
        session.member_many(_MEMBER_TERM, [["inc(y)"], ["inc(x)"]])
        assert session.checker.states_compiled == compiled


# ---------------------------------------------------------------------------
# the removed walk_kernel knob
# ---------------------------------------------------------------------------


class TestWalkKernelPlumbing:
    def test_invalid_walk_kernel_rejected(self):
        with pytest.raises(TypeError):
            EquivalenceChecker(IncNatTheory(), walk_kernel="flat")
        with pytest.raises(TypeError):
            KMT(IncNatTheory(), walk_kernel="legacy")
        with pytest.raises(TypeError):
            EngineSession(IncNatTheory(), walk_kernel="flat")

    def test_production_and_oracle_agree_through_the_decision_procedure(self):
        kmt = KMT(IncNatTheory(variables=("x", "y")))
        oracle = OracleChecker(IncNatTheory(variables=("x", "y")))
        pairs = [
            ("(inc(x))*; x > 1", "(inc(x))*; (inc(x))*; x > 1"),
            ("inc(x) + inc(y)", "inc(y) + inc(x)"),
            ("inc(x); inc(y)", "inc(y); inc(x)"),
            ("(inc(x))*", "inc(x)"),
        ]
        for left, right in pairs:
            result = kmt.check_equivalent(left, right)
            reference = oracle.check_equivalent(kmt.parse(left), kmt.parse(right))
            assert result.equivalent == reference.equivalent
            if not result.equivalent:
                cex = result.counterexample
                assert accepts_word(cex.left_actions, cex.word) \
                    != accepts_word(cex.right_actions, cex.word)

    def test_batch_runner_pool_conflict(self):
        with pytest.raises(TypeError):
            run_batch_lines([], walk_kernel="flat")

    def test_session_pool_builds_matching_sessions(self):
        pool = ShardedSessionPool(stripes=1, budget=1234)
        session = pool.session("incnat")
        assert session is pool.session("incnat", 0)
        assert session.budget == 1234
        assert session.checker.caches is session.caches
        assert run_batch_lines([])[1].stripes == 1

    def test_cli_walk_kernel_flag(self, capsys):
        for argv in (
            ["--theory", "incnat", "--walk-kernel", "flat", "equiv", "inc(x)", "inc(x)"],
            ["serve", "--walk-kernel", "flat"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2  # argparse usage error
            assert capsys.readouterr().err.startswith("usage: kmt")
