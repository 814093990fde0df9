"""End-to-end tests for the compiled decision path and the new query ops.

Covers, layer by layer:

* the decision procedure's compiled comparison path (``inclusion`` via
  per-signature product emptiness, ``member`` via cached automata, agreement
  with ``less_or_equal``);
* the engine session's ``aut`` LRU (warm reuse across queries,
  ``states_compiled`` accounting in every stats aggregation);
* the batch protocol / server / CLI surface of the
  ``inclusion`` and ``member`` request kinds;
* the randomized differential harness: 200 seeded pairs across IncNat +
  BitVec + Sets, asserting identical equivalence, inclusion, membership and
  emptiness verdicts between the production checker and the reference
  oracle (:mod:`repro.core.oracle`: explicit cells, derivative comparisons),
  and valid witness words from both.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import terms as T
from repro.core.decision import EquivalenceChecker, InclusionResult
from repro.core.kmt import KMT
from repro.core.oracle import OracleChecker, derivative_accepts
from repro.engine.server import QueryServer, ResponseSink, merge_pool_stats, run_batch_lines
from repro.engine.session import EngineSession
from repro.theories.bitvec import BitVecTheory, BoolAssign, BoolEq
from repro.theories.incnat import AssignNat, Gt, IncNatTheory, Incr
from repro.theories.sets import NatExpressionAdapter, SetAdd, SetIn, SetTheory
from repro.utils.errors import KmtError
from repro import cli

DIFFERENTIAL_PAIRS = {"bitvec": 80, "incnat": 80, "sets": 40}  # >= 200 total


#: Derivative-based membership oracle (independent of the compiled IR).
accepts = derivative_accepts


# ---------------------------------------------------------------------------
# decision-level behavior
# ---------------------------------------------------------------------------


class TestInclusionDecision:
    def test_basic_verdicts(self, kmt_incnat):
        assert kmt_incnat.includes("inc(x)", "inc(x) + inc(y)")
        assert not kmt_incnat.includes("inc(x) + inc(y)", "inc(x)")
        assert kmt_incnat.includes("inc(x)", "(inc(x))*")

    def test_matches_less_or_equal(self, kmt_incnat):
        pairs = [
            ("inc(x)", "inc(x) + inc(y)"),
            ("x > 1; inc(x)", "inc(x)"),
            ("inc(x)", "x > 1; inc(x)"),
            ("(inc(x))*", "(inc(x) + inc(y))*"),
            ("x > 2", "x > 1"),
            ("x > 1", "x > 2"),
        ]
        for left, right in pairs:
            assert kmt_incnat.includes(left, right) == kmt_incnat.less_or_equal(left, right)

    def test_witness_word_is_one_sided_and_shortest(self, kmt_bitvec):
        result = kmt_bitvec.check_inclusion("(a := T)*", "a := T")
        assert not result.includes
        cex = result.counterexample
        # epsilon is the shortest word in L((a:=T)*) \ L(a:=T).
        assert cex.word == ()
        assert accepts(cex.left_actions, cex.word)
        assert not accepts(cex.right_actions, cex.word)

    def test_guarded_witness_carries_cell(self, kmt_bitvec):
        result = kmt_bitvec.check_inclusion("b := T", "a = T; b := T")
        assert not result.includes
        cell = dict(result.counterexample.cell)
        assert cell == {BoolEq("a"): False}

    def test_enumerate_mode_agrees(self):
        kmt = KMT(IncNatTheory())
        oracle = OracleChecker(IncNatTheory())
        for left, right in [
            ("inc(x)", "inc(x) + inc(y)"),
            ("x > 1; inc(x) + inc(y)", "x > 1; inc(x)"),
        ]:
            sig = kmt.check_inclusion(left, right)
            enum = oracle.check_inclusion(kmt.parse(left), kmt.parse(right))
            assert sig.includes == enum.includes
            assert enum.signatures_explored == 0  # enumerator never solves

    def test_oracle_agrees_on_every_op(self):
        """The reference oracle answers every query kind without compiling."""
        kmt = KMT(IncNatTheory(variables=("x", "y")))
        oracle = OracleChecker(IncNatTheory(variables=("x", "y")))
        parse = kmt.parse
        assert oracle.includes(parse("inc(x)"), parse("inc(x) + inc(y)"))
        result = oracle.check_inclusion(parse("inc(x) + inc(y)"), parse("inc(x)"))
        assert not result.includes
        assert accepts(result.counterexample.left_actions, result.counterexample.word)
        assert not accepts(result.counterexample.right_actions, result.counterexample.word)
        assert oracle.member(parse("(inc(x))*"), [Incr("x"), Incr("x")])
        assert not oracle.member(parse("(inc(x))*"), [Incr("y")])
        assert not oracle.is_empty(parse("inc(x)"))
        assert oracle.is_empty(parse("x > 1; ~(x > 1)"))
        assert kmt.member("(inc(x))*", ["inc(x)", "inc(x)"])
        assert not kmt.member("(inc(x))*", ["inc(y)"])
        assert kmt.is_empty("x > 1; ~(x > 1)") and not kmt.is_empty("inc(x)")

    def test_inclusion_result_repr_and_bool(self, kmt_incnat):
        result = kmt_incnat.check_inclusion("inc(x)", "inc(x) + inc(y)")
        assert isinstance(result, InclusionResult)
        assert bool(result) is True
        assert "included" in repr(result)
        with pytest.raises(AttributeError):
            result.includes = False


class TestMemberDecision:
    def test_basic_membership(self, kmt_incnat):
        assert kmt_incnat.member("(inc(x))*; x > 1", ["inc(x)", "inc(x)"])
        assert kmt_incnat.member("(inc(x))*", [])
        assert not kmt_incnat.member("(inc(x))*", ["inc(y)"])

    def test_word_element_forms(self, kmt_incnat):
        # One string spelling several actions, and a bare string as the word.
        assert kmt_incnat.member("(inc(x))*; inc(y)", "inc(x); inc(x); inc(y)")
        assert kmt_incnat.member("inc(x)", "inc(x)")
        # Raw primitive actions and TPrim terms.
        assert kmt_incnat.member("(inc(x))*", [Incr("x"), T.tprim(Incr("x"))])

    def test_unsatisfiable_guard_blocks_membership(self, kmt_incnat):
        # The only summand's guard is unsatisfiable, so nothing is a member.
        assert not kmt_incnat.member("x > 3; ~(x > 3); inc(x)", ["inc(x)"])
        assert not kmt_incnat.member("x > 3; ~(x > 3); inc(x)", [])

    def test_rejects_non_primitive_word_elements(self, kmt_incnat):
        with pytest.raises(KmtError):
            kmt_incnat.member("inc(x)", ["inc(x) + inc(y)"])
        with pytest.raises(KmtError):
            kmt_incnat.member("inc(x)", ["x > 1"])

    def test_member_agrees_with_trace_semantics(self, kmt_bitvec):
        # b := T; a := T admits exactly that action sequence.
        assert kmt_bitvec.member("b := T; a := T", ["b := T", "a := T"])
        assert not kmt_bitvec.member("b := T; a := T", ["a := T", "b := T"])


# ---------------------------------------------------------------------------
# engine sessions: the aut cache and stats plumbing
# ---------------------------------------------------------------------------


class TestAutCache:
    def test_warm_session_reuses_compiled_automata(self):
        session = EngineSession(IncNatTheory(variables=("x", "y")))
        session.check_equivalent("(inc(x))*; x > 1", "(inc(x))*; (inc(x))*; x > 1")
        compiled_cold = session.checker.states_compiled
        assert compiled_cold > 0
        assert session.caches.aut.stats.puts > 0
        # The same query again with the equivalence memo cleared, so the
        # comparison genuinely re-runs: the automata must come from the aut
        # LRU without recompiling.
        session.caches.equiv.clear()
        session.check_equivalent("(inc(x))*; x > 1", "(inc(x))*; (inc(x))*; x > 1")
        assert session.checker.states_compiled == compiled_cold
        assert session.caches.aut.stats.hits > 0

    def test_inclusion_and_member_share_the_aut_cache(self):
        session = EngineSession(IncNatTheory(variables=("x",)))
        session.check_inclusion("inc(x)", "(inc(x))*")
        hits_before = session.caches.aut.stats.hits
        # Membership compiles the same normal-form actions: all cache hits.
        compiled_before = session.checker.states_compiled
        assert session.member("(inc(x))*", ["inc(x)", "inc(x)"])
        assert session.checker.states_compiled == compiled_before
        assert session.caches.aut.stats.hits > hits_before

    def test_states_compiled_in_session_stats(self):
        session = EngineSession(IncNatTheory(variables=("x",)))
        session.check_equivalent("inc(x)", "(inc(x))*")
        stats = session.stats()
        assert stats["session"]["states_compiled"] > 0
        assert "aut" in stats["tables"]

    def test_identical_sums_skip_compilation(self):
        """Reflexivity fast path: p vs p compiles nothing at all."""
        session = EngineSession(IncNatTheory(variables=("x",)))
        result = session.check_equivalent("inc(x)", "inc(x)")
        assert result.equivalent
        assert session.checker.states_compiled == 0
        assert session.caches.aut.stats.lookups == 0

    def test_private_checker_memo_without_caches(self):
        """A bare checker (no engine bundle) still memoizes compilations."""
        checker = EquivalenceChecker(IncNatTheory(variables=("x",)))
        kmt = KMT(IncNatTheory(variables=("x",)))
        nf = kmt.normalize("(inc(x))*")
        checker.member_nf(nf, (Incr("x"),))
        compiled = checker.states_compiled
        checker.member_nf(nf, (Incr("x"), Incr("x")))
        assert checker.states_compiled == compiled


class TestStatsAggregation:
    def test_sharded_pool_reports_states_compiled(self):
        from repro.engine.server import ShardedSessionPool

        pool = ShardedSessionPool(stripes=2)
        session = pool.session("incnat", 0)
        with session.lock:
            session.check_equivalent("inc(x)", "(inc(x))*")
        stats = pool.stats()
        assert stats["incnat"]["states_compiled"] > 0
        assert "aut" in stats["incnat"]["tables"]

    def test_merge_pool_stats_sums_states_compiled(self):
        block = {
            "incnat": {
                "stripes": 1, "queries": 2, "states_compiled": 5,
                "tables": {}, "totals": {"hits": 0, "misses": 0},
            },
        }
        merged = merge_pool_stats([block, block])
        assert merged["incnat"]["states_compiled"] == 10


# ---------------------------------------------------------------------------
# batch protocol
# ---------------------------------------------------------------------------


class TestBatchProtocol:
    def test_inclusion_and_member_ops(self):
        lines = [
            json.dumps({"op": "inclusion", "left": "inc(x)", "right": "inc(x) + inc(y)"}),
            json.dumps({"op": "inclusion", "left": "inc(x) + inc(y)", "right": "inc(x)"}),
            json.dumps({"op": "member", "term": "(inc(x))*", "word": ["inc(x)", "inc(x)"]}),
            json.dumps({"op": "member", "term": "(inc(x))*", "word": "inc(y)"}),
        ]
        responses, _pool = run_batch_lines(lines)
        assert [r["ok"] for r in responses] == [True] * 4
        assert responses[0]["result"]["includes"] is True
        assert responses[1]["result"]["includes"] is False
        assert responses[1]["result"]["witness_word"] == ["inc(y)"]
        assert "counterexample" in responses[1]["result"]
        assert responses[2]["result"]["member"] is True
        assert responses[3]["result"]["member"] is False

    def test_member_missing_word_is_missing_field(self):
        responses, _pool = run_batch_lines([json.dumps({"op": "member", "term": "inc(x)"})])
        assert responses[0]["ok"] is False
        assert responses[0]["error_code"] == "missing_field"

    def test_member_invalid_word_is_invalid_request(self):
        responses, _pool = run_batch_lines(
            [json.dumps({"op": "member", "term": "inc(x)", "word": ["inc(x) + inc(y)"]})]
        )
        assert responses[0]["ok"] is False
        assert responses[0]["error_code"] == "invalid_request"

    def test_cached_inclusion_replay_is_flagged(self):
        lines = [
            json.dumps({"op": "inclusion", "left": "inc(x)", "right": "inc(x) + inc(y)"}),
            json.dumps({"op": "inclusion", "left": "inc(x)", "right": "inc(x) + inc(y)"}),
        ]
        responses, _pool = run_batch_lines(lines)
        assert "cached" not in responses[0]["result"]
        assert responses[1]["result"].get("cached") is True

    def test_stats_response_carries_aut_table(self):
        lines = [
            json.dumps({"op": "equiv", "left": "inc(x)", "right": "(inc(x))*"}),
            json.dumps({"op": "stats"}),
        ]
        responses, _pool = run_batch_lines(lines)
        block = responses[1]["result"]["incnat"]
        assert "aut" in block["tables"]
        assert block["states_compiled"] > 0


# ---------------------------------------------------------------------------
# concurrent server (both backends execute the new ops)
# ---------------------------------------------------------------------------


class _ListSink(ResponseSink):
    def __init__(self, ordered=False):
        self.responses = []
        super().__init__(lambda line: self.responses.append(json.loads(line)),
                         ordered=ordered)


def _serve_new_ops(backend):
    requests = [
        {"op": "inclusion", "id": "inc-yes", "left": "inc(x)", "right": "inc(x) + inc(y)"},
        {"op": "inclusion", "id": "inc-no", "left": "inc(x) + inc(y)", "right": "inc(x)"},
        {"op": "member", "id": "mem-yes", "term": "(inc(x))*", "word": ["inc(x)"]},
        {"op": "member", "id": "mem-no", "term": "(inc(x))*", "word": ["inc(y)"]},
    ]
    sink = _ListSink()
    with QueryServer(workers=2, queue_limit=16, backend=backend) as server:
        for record in requests:
            assert server.submit_line(json.dumps(record), sink) == "queued"
        server.wait_idle(timeout=60)
    by_id = {response["id"]: response for response in sink.responses}
    assert by_id["inc-yes"]["result"]["includes"] is True
    assert by_id["inc-no"]["result"]["includes"] is False
    assert by_id["inc-no"]["result"]["witness_word"] == ["inc(y)"]
    assert by_id["mem-yes"]["result"]["member"] is True
    assert by_id["mem-no"]["result"]["member"] is False


class TestServerBackends:
    def test_thread_backend_executes_new_ops(self):
        _serve_new_ops("thread")

    @pytest.mark.slow
    def test_process_backend_executes_new_ops(self):
        _serve_new_ops("process")


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


class TestCli:
    def test_incl_verdicts_and_exit_codes(self, capsys):
        assert cli.main(["--theory", "incnat", "incl", "inc(x)", "inc(x) + inc(y)"]) == 0
        assert "included" in capsys.readouterr().out
        assert cli.main(["--theory", "incnat", "incl", "inc(x) + inc(y)", "inc(x)"]) == 1
        out = capsys.readouterr().out
        assert "NOT included" in out
        assert "witness" in out

    def test_member_verdicts_and_exit_codes(self, capsys):
        assert cli.main(
            ["--theory", "incnat", "member", "(inc(x))*; x > 1", "inc(x)", "inc(x)"]
        ) == 0
        assert "member" in capsys.readouterr().out
        assert cli.main(["--theory", "incnat", "member", "(inc(x))*", "inc(y)"]) == 1
        assert "NOT a member" in capsys.readouterr().out

    def test_member_empty_word(self, capsys):
        assert cli.main(["--theory", "incnat", "member", "(inc(x))*"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# randomized differential harness: production checker vs reference oracle
# ---------------------------------------------------------------------------


def _random_pred(rng, leaf, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return leaf(rng)
    if roll < 0.65:
        return T.pnot(_random_pred(rng, leaf, depth - 1))
    if roll < 0.85:
        return T.pand(_random_pred(rng, leaf, depth - 1), _random_pred(rng, leaf, depth - 1))
    return T.por(_random_pred(rng, leaf, depth - 1), _random_pred(rng, leaf, depth - 1))


def _leaf_term(rng, pred_leaf, action_leaf):
    if rng.random() < 0.4:
        return T.ttest(_random_pred(rng, pred_leaf, 1))
    return T.tprim(action_leaf(rng))


def _random_term(rng, pred_leaf, action_leaf, depth):
    """Small random terms; stars only wrap leaves (starred compound bodies
    test normalization *performance*, not differential agreement)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return _leaf_term(rng, pred_leaf, action_leaf)
    if roll < 0.4:
        return T.tstar(T.tprim(action_leaf(rng)))
    if roll < 0.7:
        return T.tseq(
            _random_term(rng, pred_leaf, action_leaf, depth - 1),
            _random_term(rng, pred_leaf, action_leaf, depth - 1),
        )
    return T.tplus(
        _random_term(rng, pred_leaf, action_leaf, depth - 1),
        _random_term(rng, pred_leaf, action_leaf, depth - 1),
    )


def _bitvec_generators():
    variables = ("a", "b", "c")

    def pred_leaf(rng):
        return T.pprim(BoolEq(rng.choice(variables)))

    def action_leaf(rng):
        return BoolAssign(rng.choice(variables), rng.random() < 0.5)

    return (lambda: BitVecTheory(variables=variables)), pred_leaf, action_leaf


def _incnat_generators():
    variables = ("x", "y")

    def pred_leaf(rng):
        return T.pprim(Gt(rng.choice(variables), rng.randint(0, 4)))

    def action_leaf(rng):
        if rng.random() < 0.6:
            return Incr(rng.choice(variables))
        return AssignNat(rng.choice(variables), rng.randint(0, 4))

    return (lambda: IncNatTheory(variables=variables)), pred_leaf, action_leaf


def _sets_generators():
    set_vars = ("X", "Y")

    def build():
        nat = IncNatTheory(variables=("i",))
        adapter = NatExpressionAdapter(nat, variables=("i",))
        return SetTheory(nat, adapter, set_variables=set_vars)

    def pred_leaf(rng):
        if rng.random() < 0.6:
            return T.pprim(SetIn(rng.choice(set_vars), rng.randint(0, 2)))
        return T.pprim(Gt("i", rng.randint(0, 2)))

    def action_leaf(rng):
        if rng.random() < 0.7:
            expr = "i" if rng.random() < 0.4 else rng.randint(0, 2)
            return SetAdd(rng.choice(set_vars), expr)
        return Incr("i")

    return build, pred_leaf, action_leaf


def _equivalent_variant(rng, p, other, leaf):
    """Pairs provably equivalent by a KAT law (not syntactically so)."""
    choice = rng.randrange(4)
    if choice == 0:
        return p, T.tplus(p, p)
    if choice == 1:
        return p, T.tseq(p, T.tone())
    if choice == 2:
        return T.tstar(leaf), T.tplus(T.tone(), T.tseq(leaf, T.tstar(leaf)))
    return T.tplus(p, other), T.tplus(other, p)


def _assert_valid_counterexample(theory, result, negate=False):
    """The cell must be satisfiable and the word one-sided (left-only for
    inclusion witnesses — ``negate`` selects that shape)."""
    cex = result.counterexample
    assert cex is not None
    if cex.cell:
        assert theory.satisfiable_conjunction(list(cex.cell))
    word = tuple(cex.word)
    left, right = accepts(cex.left_actions, word), accepts(cex.right_actions, word)
    if negate:
        assert left and not right
    else:
        assert left != right


def _run_differential(theory_builder, seed, pairs):
    build, pred_leaf, action_leaf = theory_builder()
    rng = random.Random(seed)
    # The production checker and the reference oracle, each with its own
    # theory instance (no shared memo leakage).
    production = KMT(build(), budget=60_000)
    oracle = OracleChecker(build(), budget=60_000)
    witness_theory = build()
    compared = inequivalent = equivalent = attempts = 0
    while compared < pairs:
        attempts += 1
        assert attempts < pairs * 20, "too many generation attempts"
        p = _random_term(rng, pred_leaf, action_leaf, depth=3)
        q = _random_term(rng, pred_leaf, action_leaf, depth=3)
        if rng.random() < 0.45:
            p, q = _equivalent_variant(rng, p, q, T.tprim(action_leaf(rng)))
        try:
            x, y = production.normalize(p), production.normalize(q)
        except KmtError:
            continue  # pushback budget blow-ups are exercised elsewhere
        result = production.checker.check_equivalent_nf(x, y)
        reference = oracle.check_equivalent_nf(x, y)
        assert result.equivalent == reference.equivalent, f"verdict mismatch on {p!r} vs {q!r}"
        # Inclusion: the compiled product-emptiness op, the equivalence
        # reduction p <= q iff p + q == q, and the oracle must all agree.
        incl = production.checker.check_inclusion_nf(x, y)
        assert incl.includes == oracle.check_inclusion_nf(x, y).includes
        assert incl.includes == production.equivalent(T.tplus(p, q), q)
        if not incl.includes:
            _assert_valid_counterexample(witness_theory, incl, negate=True)
        assert production.checker.is_empty_nf(x) == oracle.is_empty_nf(x)
        if not result.equivalent:
            inequivalent += 1
            _assert_valid_counterexample(witness_theory, result)
            _assert_valid_counterexample(witness_theory, reference)
            word = result.counterexample.word
            for nf in (x, y):
                assert production.checker.member_nf(nf, word) == oracle.member_nf(nf, word)
        else:
            equivalent += 1
            # Equivalence implies mutual inclusion.
            assert incl.includes
        compared += 1
    assert compared >= pairs
    assert inequivalent >= 10 and equivalent >= 10  # both verdicts exercised


class TestDifferential:
    def test_bitvec_differential(self):
        _run_differential(_bitvec_generators, seed=20260729,
                          pairs=DIFFERENTIAL_PAIRS["bitvec"])

    def test_incnat_differential(self):
        _run_differential(_incnat_generators, seed=20260730,
                          pairs=DIFFERENTIAL_PAIRS["incnat"])

    def test_sets_differential(self):
        _run_differential(_sets_generators, seed=20260731,
                          pairs=DIFFERENTIAL_PAIRS["sets"])
