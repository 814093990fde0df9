"""Execution backends of the query server: differential soak, crash
recovery, and the backend-parity property.

The headline here is the **differential soak harness**: one randomized
200-request mixed-theory workload replayed through three execution paths —
``kmt batch`` (the batch front end: one stripe, input order), the server's
``thread`` backend and its ``process`` backend — asserting identical
verdicts, structurally *valid* counterexamples, and exact id accounting
across all three.  Everything the
protocol promises to be deterministic is compared byte-for-byte; only the
session-history-dependent counters (``cells_explored``/``cells_pruned``,
which legitimately vary with how warm each stripe's memo happens to be, and
the ``cached`` replay flag) are excluded.

Alongside it: the crash-recovery test (SIGKILL a worker process mid-query;
the supervisor must respawn it, answer the in-flight id with a structured
``worker_crashed`` error, and lose or duplicate no other id), a Hypothesis
parity property — arbitrary query records, including malformed ones, get
the same ``(id, ok, error_code)`` from both backends, the process backend's
records crossing its pipes as plain dicts — and backend-parameterized
behavior tests keeping the two backends semantically interchangeable.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import automata
from repro.engine.batch import QUERY_OPS, parse_request_line
from repro.engine.server import (
    QueryServer,
    ResponseSink,
    SocketServer,
    _affinity_stripe,
    merge_pool_stats,
    run_batch_lines,
    serve_stdio,
)
from repro.engine.session import EngineSession
from repro.theories import build_theory

BACKENDS = ("thread", "process")

#: Spec every process-backend test injects latency through (resolved inside
#: the spawned worker; configured via KMT_TEST_ORACLE_* env vars, which the
#: children inherit).
ORACLE_SPEC = "repro.engine.testing:oracle_latency_factory"


def record(**fields):
    return json.dumps(fields)


class ListSink(ResponseSink):
    def __init__(self, ordered=False):
        self.responses = []
        super().__init__(lambda line: self.responses.append(json.loads(line)),
                         ordered=ordered)


def make_server(backend, workers=2, oracle_ms=0, oracle_theories="incnat",
                monkeypatch=None, **options):
    """A QueryServer for either backend, with optional oracle latency.

    The thread backend takes an in-process wrapped factory; the process
    backend gets the same latency via the env-configured spawnable factory
    (``monkeypatch`` required when ``oracle_ms`` is set so the env is
    restored).
    """
    if backend == "thread":
        if oracle_ms:
            from repro.engine.testing import OracleLatencyTheory

            only = {name.strip() for name in oracle_theories.split(",")}

            def factory(name):
                theory = build_theory(name)
                return OracleLatencyTheory(theory, oracle_ms / 1000.0) \
                    if name in only else theory

            options["theory_factory"] = factory
        return QueryServer(workers=workers, backend="thread", **options)
    if oracle_ms:
        monkeypatch.setenv("KMT_TEST_ORACLE_DELAY_MS", str(oracle_ms))
        monkeypatch.setenv("KMT_TEST_ORACLE_THEORIES", oracle_theories)
        options["theory_factory_spec"] = ORACLE_SPEC
    return QueryServer(workers=workers, backend="process", **options)


# ---------------------------------------------------------------------------
# the randomized mixed-theory workload
# ---------------------------------------------------------------------------

SOAK_SEED = 20260729
SOAK_REQUESTS = 200


def _rand_pred(rng, atoms, depth):
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice(atoms)
    roll = rng.random()
    if roll < 0.35:
        return f"~({_rand_pred(rng, atoms, depth - 1)})"
    left = _rand_pred(rng, atoms, depth - 1)
    right = _rand_pred(rng, atoms, depth - 1)
    if roll < 0.7:
        return f"({left}; {right})"
    return f"({left} + {right})"


def _rand_term(rng, preds, actions, depth):
    # Stars only wrap primitive actions: starred compound bodies make normal
    # forms explode (the Denest blow-up), which tests performance rather than
    # cross-backend agreement.
    if depth <= 0:
        return rng.choice(actions if rng.random() < 0.6 else preds)
    roll = rng.random()
    if roll < 0.15:
        return f"({rng.choice(actions)})*"
    if roll < 0.35:
        return rng.choice(actions)
    left = _rand_term(rng, preds, actions, depth - 1)
    right = _rand_term(rng, preds, actions, depth - 1)
    if roll < 0.7:
        return f"({left}; {right})"
    return f"({left} + {right})"


_THEORY_ATOMS = {
    "incnat": (
        ["x > 0", "x > 1", "x > 2", "y > 1", "y > 3"],
        ["inc(x)", "inc(y)"],
    ),
    "bitvec": (
        ["a = T", "b = T", "c = T"],
        ["flip a", "a := T", "a := F", "b := T", "c := F"],
    ),
    "netkat": (
        ["sw = 0", "sw = 1", "sw = 2", "pt = 1"],
        ["sw <- 0", "sw <- 1", "sw <- 2", "pt <- 1"],
    ),
}

#: Guard/body loops that normalize quickly (starred random guards can Denest).
_THEORY_LOOPS = {
    "incnat": "while (x > 0) { inc(y); }",
    "bitvec": "while (a = T) { a := F; }",
    "netkat": "while (sw = 0) { sw <- 1; }",
}


def _rand_program(rng, preds, actions, loop, depth):
    """A small random While program over the theory's atoms."""
    stmts = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.25:
            stmts.append(f"assume {rng.choice(preds)};")
        elif roll < 0.65 or depth <= 0:
            stmts.append(f"{rng.choice(actions)};")
        elif roll < 0.8:
            inner = _rand_program(rng, preds, actions, loop, depth - 1)
            stmt = f"if ({rng.choice(preds)}) {{ {inner} }}"
            if rng.random() < 0.5:
                other = _rand_program(rng, preds, actions, loop, depth - 1)
                stmt += f" else {{ {other} }}"
            stmts.append(stmt)
        elif roll < 0.9:
            stmts.append(loop)
        else:
            stmts.append("abort;")
    return " ".join(stmts)


def make_soak_workload(seed=SOAK_SEED, total=SOAK_REQUESTS):
    """``total`` JSONL query lines (ids ``q0..``), plus a protocol-error tail.

    Mixed theories and every query op; equivalence pairs are a mix of random
    (almost always inequivalent, exercising counterexamples) and
    derived-by-KAT-law pairs (``p + p`` / commuted sums, exercising the
    exhaustive equivalent verdict).
    """
    rng = random.Random(seed)
    lines = []

    def add(**fields):
        fields["id"] = f"q{len(lines)}"
        lines.append(json.dumps(fields))

    theories = sorted(_THEORY_ATOMS)
    for _ in range(total):
        theory = rng.choice(theories)
        preds, actions = _THEORY_ATOMS[theory]
        loop = _THEORY_LOOPS[theory]
        op = rng.choices(("equiv", "leq", "norm", "sat", "empty",
                          "verify", "prog_equiv", "dead_code"),
                         weights=(5, 2, 2, 2, 1, 2, 2, 1))[0]
        if op == "verify":
            program = _rand_program(rng, preds, actions, loop, depth=1)
            add(op="verify", theory=theory, pre=rng.choice(preds + ["true"]),
                program=program, post=rng.choice(preds))
        elif op == "prog_equiv":
            left = _rand_program(rng, preds, actions, loop, depth=1)
            if rng.random() < 0.4:
                right = left  # must come back equivalent on every path
            else:
                right = _rand_program(rng, preds, actions, loop, depth=1)
            add(op="prog_equiv", theory=theory, left=left, right=right)
        elif op == "dead_code":
            add(op="dead_code", theory=theory,
                program=_rand_program(rng, preds, actions, loop, depth=2))
        elif op == "equiv":
            left = _rand_term(rng, preds, actions, depth=2)
            roll = rng.random()
            if roll < 0.25:
                right = f"({left} + {left})"
            elif roll < 0.4:
                other = _rand_term(rng, preds, actions, depth=1)
                left, right = f"({left} + {other})", f"({other} + {left})"
            else:
                right = _rand_term(rng, preds, actions, depth=2)
            add(op="equiv", theory=theory, left=left, right=right)
        elif op == "leq":
            left = _rand_term(rng, preds, actions, depth=1)
            if rng.random() < 0.5:
                other = _rand_term(rng, preds, actions, depth=1)
                add(op="leq", theory=theory, left=left, right=f"({left} + {other})")
            else:
                add(op="leq", theory=theory, left=left,
                    right=_rand_term(rng, preds, actions, depth=2))
        elif op == "norm":
            add(op="norm", theory=theory, term=_rand_term(rng, preds, actions, depth=2))
        elif op == "sat":
            add(op="sat", theory=theory, pred=_rand_pred(rng, preds, depth=2))
        else:
            term = _rand_term(rng, preds, actions, depth=1)
            if rng.random() < 0.5:
                pred = rng.choice(preds)
                term = f"({pred}; ~({pred}))"
            add(op="empty", theory=theory, term=term)
    # A protocol-error tail: these must produce identical structured errors
    # (and keep exact id accounting) on every execution path.
    add(op="equiv", theory="incnat")                      # missing fields
    add(op="frobnicate")                                  # unknown op
    add(op="sat", theory="no-such-theory", pred="x > 1")  # unknown theory
    add(op="norm", theory="incnat", term=["not", "text"])  # wrong field type
    add(op="dead_code", theory="incnat", program="while (x > 0 { }")  # parse error
    add(op="verify", theory="incnat", pre="x > 0", program="inc(x);")  # missing post
    return lines


def run_path_batch(lines):
    responses, _ = run_batch_lines(list(lines))
    return responses


def run_path_server(lines, backend, workers=3):
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    with QueryServer(workers=workers, backend=backend) as server:
        serve_stdio(stdin, stdout, server)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


#: Result fields that legitimately differ across execution paths: comparison
#: and prune *counters* depend on how warm each session's signature memo is
#: (one session per theory in batch vs one per stripe in the server), and the
#: ``cached`` flag marks replays, which likewise depend on stripe layout.
_HISTORY_DEPENDENT = ("cells_explored", "cells_pruned", "cached")


def comparable_response(response):
    """Project a response onto its path-independent core."""
    out = {key: value for key, value in response.items() if key != "result"}
    # Human-readable error strings may mention pids/worker indices; the
    # stable contract across paths is the error *code*.
    out.pop("error", None)
    result = response.get("result")
    if isinstance(result, dict):
        out["result"] = {key: value for key, value in result.items()
                         if key not in _HISTORY_DEPENDENT}
    return out


@pytest.fixture(scope="module")
def soak():
    lines = make_soak_workload()
    return {
        "lines": lines,
        "batch": run_path_batch(lines),
        "thread": run_path_server(lines, "thread"),
        "process": run_path_server(lines, "process"),
    }


class TestDifferentialSoak:
    def test_id_accounting_exact(self, soak):
        expected = sorted(json.loads(line)["id"] for line in soak["lines"])
        for path in ("batch", "thread", "process"):
            got = sorted(response["id"] for response in soak[path])
            assert got == expected, f"{path}: id set mismatch"

    def test_identical_verdicts_across_all_three_paths(self, soak):
        reference = {response["id"]: comparable_response(response)
                     for response in soak["batch"]}
        for path in ("thread", "process"):
            for response in soak[path]:
                assert comparable_response(response) == reference[response["id"]], (
                    f"{path}: response for {response['id']} diverges from batch")

    def test_workload_exercises_both_verdicts_and_errors(self, soak):
        equiv_verdicts = [response["result"]["equivalent"]
                          for response in soak["batch"]
                          if response.get("ok") and response["op"] == "equiv"]
        assert equiv_verdicts.count(True) >= 20
        assert equiv_verdicts.count(False) >= 20
        errors = [response for response in soak["batch"] if not response["ok"]]
        assert {response["error_code"] for response in errors} >= {
            "missing_field", "unknown_op", "unknown_theory"}

    def test_counterexamples_are_valid(self, soak):
        """Every counterexample a path reports must be structurally valid:
        theory-satisfiable cell, word accepted by exactly one side."""
        sessions = {}
        checked = 0
        for response in soak["batch"]:
            if not response.get("ok") or response["op"] != "equiv":
                continue
            payload = response["result"]
            if payload["equivalent"]:
                continue
            request = json.loads(soak["lines"][int(response["id"][1:])])
            theory_name = request["theory"]
            if theory_name not in sessions:
                theory = build_theory(theory_name)
                sessions[theory_name] = (theory, EngineSession(theory))
            theory, session = sessions[theory_name]
            result = session.check_equivalent(request["left"], request["right"])
            assert not result.equivalent
            cex = result.counterexample
            assert cex is not None
            if cex.cell:
                assert theory.satisfiable_conjunction(list(cex.cell))
            state = automata.canonical(cex.left_actions)
            other = automata.canonical(cex.right_actions)
            for pi in cex.word:
                state = automata.derivative(state, pi)
                other = automata.derivative(other, pi)
            assert automata.nullable(state) != automata.nullable(other)
            # The served string is exactly this witness's rendering.
            assert payload["counterexample"] == cex.describe()
            checked += 1
        assert checked >= 20  # the workload must really exercise witnesses


# ---------------------------------------------------------------------------
# scaling: worker threads under solver latency, processes under compute
# ---------------------------------------------------------------------------

#: Simulated per-call solver latency for the scaling workloads (GIL-released).
SCALING_ORACLE_MS = 6
SCALING_THEORIES = "incnat,bitvec,netkat"


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def make_oracle_workload(offset=0):
    """60 mixed-theory requests whose cost is mostly oracle waits.

    Mostly distinct queries (distinct atoms mean real oracle calls), with
    every 5th request replaying an earlier one so the warm caches are
    exercised too.  ``offset`` shifts every atom, giving a workload that
    shares nothing with the unshifted one.
    """
    lines = []

    def add(**fields):
        fields["id"] = f"q{len(lines)}"
        lines.append(json.dumps(fields))

    def vary(i):
        return offset + (i // 5 if i % 5 == 4 else i)

    per_theory = 20
    for i in range(per_theory):
        k = vary(i) + 1
        if i % 2:
            add(op="equiv", theory="incnat",
                left=f"x > {k}; inc(x); x > {k + 2}",
                right=f"x > {k}; x > {k - 1}; inc(x); x > {k + 2}")
        else:
            add(op="equiv", theory="incnat",
                left=f"inc(x); x > {k + 1}", right=f"x > {k}; inc(x)")
    for i in range(per_theory):
        k = vary(i)
        if i % 2:
            add(op="equiv", theory="bitvec",
                left=f"v{k} = T; flip v{k}", right=f"v{k} = T; flip v{k}; v{k} = F")
        else:
            add(op="sat", theory="bitvec", pred=f"v{k} = T + ~(v{k} = T)")
    for i in range(per_theory):
        k = vary(i)
        add(op="equiv", theory="netkat",
            left=f"sw = {k}; sw <- {k + 1}", right=f"sw = {k}; sw <- {k + 1}; sw = {k + 1}")
    return lines


def make_compute_workload(total, tag):
    """``total`` CPU-bound requests: 9-10-wide bitvec guard sums.

    Each query's signature search decides one language comparison per guard
    combination, all in-process; ``tag`` prefixes every variable name, so a
    workload never hits what an earlier one left in the caches.  Names are
    resampled until the requests' affinity stripes round-robin over 4
    shards, so the measured speedup is not capped by one unlucky hash draw.
    ``q{i}`` is equivalent exactly when ``i % 4 != 3``.
    """
    lines = []
    for index in range(total):
        width = 9 + index % 2
        for attempt in range(64):
            prefix = f"{tag}{index}v{attempt}x"
            guards = [f"g{prefix}{j} = T; b{prefix}{j} := T" for j in range(width)]
            left = " + ".join(guards)
            if index % 4 == 3:
                # An inequivalent tail: one branch assigns the other value.
                last = width - 1
                right = " + ".join(guards[:-1] + [f"g{prefix}{last} = T; b{prefix}{last} := F"])
            else:
                right = f"({left}) + ({left})"
            request = {"op": "equiv", "theory": "bitvec", "left": left, "right": right,
                       "id": f"q{index}"}
            if _affinity_stripe(request, 4) == index % 4:
                break
        lines.append(json.dumps(request))
    return lines


def serve_timed(front, lines):
    """Submit ``lines`` to a started :class:`QueryServer` or router and wait
    for the answers; returns ``(seconds, {id: response})`` after checking
    every id came back exactly once, ok."""
    sink = ListSink()
    started = time.perf_counter()
    for line in lines:
        front.submit_line(line, sink)
    assert front.wait_idle(timeout=120)
    elapsed = time.perf_counter() - started
    assert sorted(r["id"] for r in sink.responses) == sorted(
        json.loads(line)["id"] for line in lines)
    assert all(r["ok"] for r in sink.responses), sink.responses
    return elapsed, {r["id"]: r for r in sink.responses}


@pytest.mark.slow
class TestScaling:
    def test_thread_workers_overlap_solver_latency(self):
        lines = make_oracle_workload()
        seconds, answers = {}, {}
        for workers in (1, 4):
            with make_server(
                    "thread", workers=workers, oracle_ms=SCALING_ORACLE_MS,
                    oracle_theories=SCALING_THEORIES) as server:
                seconds[workers], responses = serve_timed(server, lines)
            answers[workers] = {key: comparable_response(response)
                                for key, response in responses.items()}
        assert answers[4] == answers[1]
        speedup = seconds[1] / seconds[4]
        print(f"thread_4 over thread_1 under solver latency: {speedup:.2f}x")
        assert speedup > 1.0, f"4 thread workers did not beat 1 ({speedup:.2f}x)"

    def test_process_backend_beats_threads_on_cpu_bound_work(self):
        cpus = available_cpus()
        if cpus < 2:
            pytest.skip("1 CPU available: a parallel speedup is impossible")
        required = 2.0 if cpus >= 4 else 1.2
        # A workload cheap enough for pipe overhead to dominate would make
        # this gate measure IPC, not parallelism: it must be CPU-bound.
        sample = make_compute_workload(4, "sample")
        with QueryServer(workers=1) as server:
            single, _ = serve_timed(server, sample)
        per_query_ms = single / len(sample) * 1000.0
        assert per_query_ms >= 20.0, (
            f"compute workload costs only {per_query_ms:.1f} ms per query")
        total = 8
        expected = {f"q{index}": index % 4 != 3 for index in range(total)}
        best = {}
        with QueryServer(workers=4) as threads, \
                QueryServer(workers=4, backend="process") as processes:
            assert processes.wait_ready(timeout=120)
            # Interference from other load only ever slows a run: best of
            # five, interleaved, each on a workload no earlier run warmed.
            for repeat in range(5):
                for name, server in (("thread", threads), ("process", processes)):
                    elapsed, responses = serve_timed(
                        server, make_compute_workload(total, f"{name}{repeat}"))
                    assert {key: response["result"]["equivalent"]
                            for key, response in responses.items()} == expected
                    best[name] = min(best.get(name, elapsed), elapsed)
        speedup = best["thread"] / best["process"]
        print(f"process_4 over thread_4 on {cpus} CPUs: {speedup:.2f}x "
              f"({per_query_ms:.1f} ms per query on one thread worker)")
        assert speedup >= required, (
            f"process backend {speedup:.2f}x < {required}x over the thread "
            f"backend on CPU-bound work ({cpus} CPUs)")


# ---------------------------------------------------------------------------
# crash recovery (process backend)
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_worker_killed_mid_query_is_respawned(self, monkeypatch):
        # incnat oracle calls hang for 60s, giving a deterministic window in
        # which the in-flight query is executing inside the worker process.
        with make_server("process", workers=2, oracle_ms=60_000,
                         oracle_theories="incnat", monkeypatch=monkeypatch) as server:
            assert server.wait_ready(timeout=60)
            sink = ListSink()
            doomed = {"op": "equiv", "left": "inc(x); x > 1",
                      "right": "x > 0; inc(x)", "id": "doomed"}
            doomed_worker = server._worker_index(
                "incnat", _affinity_stripe(doomed, server.stripes))
            # Requests on the *other* worker must be unaffected throughout.
            bystanders = []
            # Varying the variable-name *length* varies the content-hash
            # stripe (crc32 is linear, so same-length single-char tweaks can
            # all share a parity and land on one worker).
            for i in range(8):
                rec = {"op": "sat", "theory": "bitvec", "pred": f"{'v' * (i + 1)} = T",
                       "id": f"bystander-{i}"}
                if server._worker_index(
                        "bitvec", _affinity_stripe(rec, server.stripes)) != doomed_worker:
                    bystanders.append(rec)
            assert bystanders, "no bitvec query landed on the other worker"
            server.submit_line(json.dumps(doomed), sink)
            for rec in bystanders:
                server.submit_line(json.dumps(rec), sink)
            # Wait until the doomed request has left the scheduler queue and
            # is in flight inside the worker's oracle call.
            deadline = time.monotonic() + 30
            while server.server_stats()["queue"]["depth"] > 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.5)
            pid = server.backend.worker_info()[doomed_worker]["pid"]
            os.kill(pid, signal.SIGKILL)
            assert server.wait_idle(timeout=60)
            # The respawned worker serves the same shard again (bitvec is
            # fast — the latency wrapper only covers incnat).
            follow_up = {"op": "sat", "theory": "bitvec", "pred": "z = T", "id": "after"}
            server.submit_line(json.dumps(follow_up), sink)
            assert server.wait_idle(timeout=60)
            info = server.backend.worker_info()

        by_id = {response["id"]: response for response in sink.responses}
        # No id lost, none duplicated.
        expected = {"doomed", "after"} | {rec["id"] for rec in bystanders}
        assert len(sink.responses) == len(expected)
        assert set(by_id) == expected
        assert by_id["doomed"]["ok"] is False
        assert by_id["doomed"]["error_code"] == "worker_crashed"
        assert str(pid) in by_id["doomed"]["error"]
        for rec in bystanders:
            assert by_id[rec["id"]]["ok"] is True
        assert by_id["after"]["ok"] is True
        assert info[doomed_worker]["restarts"] == 1
        assert info[doomed_worker]["pid"] != pid
        assert all(worker["restarts"] == 0
                   for worker in info if worker["index"] != doomed_worker)

    def test_request_queued_behind_crash_executes_on_respawned_worker(self, monkeypatch):
        # One worker, so the follow-up request is queued *behind* the doomed
        # one on the same dispatcher; after the respawn it must execute
        # normally (not be dropped with the crash).
        with make_server("process", workers=1, oracle_ms=60_000,
                         oracle_theories="incnat", monkeypatch=monkeypatch) as server:
            assert server.wait_ready(timeout=60)
            sink = ListSink()
            server.submit_line(record(op="equiv", left="inc(x); x > 1",
                                      right="x > 0; inc(x)", id="doomed"), sink)
            server.submit_line(record(op="sat", theory="bitvec", pred="a = T",
                                      id="behind"), sink)
            deadline = time.monotonic() + 30
            while server.server_stats()["queue"]["depth"] > 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.5)
            os.kill(server.backend.worker_info()[0]["pid"], signal.SIGKILL)
            assert server.wait_idle(timeout=60)
        by_id = {response["id"]: response for response in sink.responses}
        assert set(by_id) == {"doomed", "behind"}
        assert by_id["doomed"]["error_code"] == "worker_crashed"
        assert by_id["behind"]["ok"] is True
        assert by_id["behind"]["result"]["satisfiable"] is True


# ---------------------------------------------------------------------------
# backend parity
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = {
    "equiv": ("left", "right"), "leq": ("left", "right"),
    "inclusion": ("left", "right"), "member": ("term", "word"), "norm": ("term",),
    "sat": ("pred",), "empty": ("term",),
    "verify": ("pre", "program", "post"), "prog_equiv": ("left", "right"),
    "dead_code": ("program",),
}

_json_values = st.none() | st.booleans() | st.integers(-10**6, 10**6) \
    | st.text(max_size=8) | st.lists(st.integers(), max_size=2)


@st.composite
def request_records(draw):
    """A query record: required fields usually present, optional id/theory/
    deadline, arbitrary extra fields.  Deadlines are long enough never to
    expire, so every answer is deterministic."""
    op = draw(st.sampled_from(QUERY_OPS))
    rec = {"op": op}
    for field in _REQUIRED_FIELDS[op]:
        if draw(st.booleans()) or draw(st.booleans()):  # usually present
            rec[field] = draw(st.text(max_size=30))
    if draw(st.booleans()):
        rec["id"] = draw(st.none() | st.integers(-10**6, 10**6) | st.text(max_size=12))
    if draw(st.booleans()):
        rec["theory"] = draw(st.sampled_from(("incnat", "bitvec")) | st.text(max_size=12))
    if draw(st.booleans()):
        rec["deadline_ms"] = draw(st.integers(60_000, 10**6))
    rec.update(draw(st.dictionaries(
        st.sampled_from(("note", "tag", "client", "priority")), _json_values, max_size=2)))
    return rec


#: Appended to every drawn list so each run covers these shapes for sure.
_PARITY_FIXED = [
    {"op": "sat", "pred": "x > 1", "id": None},
    {"op": "sat", "pred": "x > 2"},
    {"op": "sat", "pred": "x > 3", "id": 7},
    {"op": "sat", "pred": "x > 4", "id": "text"},
    {"op": "equiv", "left": "inc(x)", "right": "inc(x)", "id": "extra", "note": [1, {"a": None}]},
    {"op": "equiv", "left": "inc(x)", "id": "missing"},
    {"op": "verify", "pre": "x > 0", "program": "inc(x);", "id": "missing-post"},
]


@pytest.fixture(scope="module")
def parity_servers():
    servers = {backend: QueryServer(workers=2, backend=backend).start()
               for backend in BACKENDS}
    assert servers["process"].wait_ready(timeout=60)
    yield servers
    for server in servers.values():
        server.shutdown()


def _answers(server, records):
    sink = ListSink(ordered=True)
    for rec in records:
        server.submit_line(json.dumps(rec), sink)
    assert server.wait_idle(timeout=120)
    return [(response["id"], response["ok"], response.get("error_code"))
            for response in sink.responses]


class TestBackendPipeParity:
    @given(records=st.lists(request_records(), min_size=100, max_size=100))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_query_records_answer_identically(self, parity_servers, records):
        records = records + _PARITY_FIXED
        for rec in records:
            assert parse_request_line(json.dumps(rec)) == ("query", rec)
        thread = _answers(parity_servers["thread"], records)
        assert thread == _answers(parity_servers["process"], records)
        assert len(thread) == len(records)
        assert thread[-len(_PARITY_FIXED):] == [
            (None, True, None),
            (101, True, None),  # the line's position: no id given
            (7, True, None),
            ("text", True, None),
            ("extra", True, None),
            ("missing", False, "missing_field"),
            ("missing-post", False, "missing_field"),
        ]


# ---------------------------------------------------------------------------
# backend-parameterized behavior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendParity:
    def test_mixed_burst_ids_and_verdicts(self, backend):
        sink = ListSink()
        with QueryServer(workers=2, backend=backend) as server:
            for i in range(6):
                server.submit_line(record(op="sat", pred=f"x > {i}", id=f"sat-{i}"), sink)
                server.submit_line(record(op="equiv", theory="bitvec",
                                          left="a := T; a = T", right="a := T",
                                          id=f"eq-{i}"), sink)
            server.wait_idle(timeout=120)
        by_id = {response["id"]: response for response in sink.responses}
        assert len(by_id) == len(sink.responses) == 12
        for i in range(6):
            assert by_id[f"sat-{i}"]["result"]["satisfiable"] is True
            assert by_id[f"eq-{i}"]["result"]["equivalent"] is True

    def test_repeat_hits_the_same_warm_shard(self, backend):
        sink = ListSink()
        with QueryServer(workers=2, backend=backend) as server:
            line = record(op="equiv", left="inc(x); x > 3", right="x > 2; inc(x)", id="q")
            for _ in range(2):
                server.submit_line(line, sink)
                server.wait_idle(timeout=120)
        cached = [response["result"].get("cached", False) for response in sink.responses]
        assert cached.count(True) == 1

    def test_deadline_expires_mid_search(self, backend, monkeypatch):
        with make_server(backend, workers=1, oracle_ms=150, oracle_theories="incnat",
                         monkeypatch=monkeypatch) as server:
            server.wait_ready(timeout=60)
            sink = ListSink()
            server.submit_line(record(op="equiv", left="inc(x); x > 1",
                                      right="x > 0; inc(x)", id="doomed",
                                      deadline_ms=40), sink)
            server.wait_idle(timeout=120)
            server.submit_line(record(op="equiv", left="inc(x); x > 1",
                                      right="x > 0; inc(x)", id="retry"), sink)
            server.wait_idle(timeout=120)
        by_id = {response["id"]: response for response in sink.responses}
        assert by_id["doomed"]["ok"] is False
        assert by_id["doomed"]["error_code"] == "deadline_exceeded"
        # Cancellation corrupted nothing: the retry answers correctly.
        assert by_id["retry"]["ok"] is True
        assert by_id["retry"]["result"]["equivalent"] is True

    def test_unknown_theory_is_a_structured_error(self, backend):
        sink = ListSink()
        with QueryServer(workers=1, backend=backend) as server:
            server.submit_line(record(op="sat", theory="no-such", pred="x > 1", id="u"), sink)
            server.wait_idle(timeout=120)
        assert sink.responses[0]["error_code"] == "unknown_theory"

    def test_stats_report_theories_server_block_and_shared(self, backend):
        sink = ListSink()
        with QueryServer(workers=2, backend=backend) as server:
            server.submit_line(record(op="sat", pred="x > 1", id="q1"), sink)
            server.submit_line(record(op="sat", theory="bitvec", pred="a = T", id="q2"), sink)
            server.wait_idle(timeout=120)
            server.submit_line(record(op="stats", id="s"), sink)
            server.submit_line(record(op="ping", id="p"), sink)
        stats = next(r for r in sink.responses if r["id"] == "s")["result"]
        assert {"incnat", "bitvec"} <= set(stats)
        assert stats["incnat"]["queries"] >= 1
        assert stats["incnat"]["totals"]["misses"] >= 1
        assert "shared" not in stats
        assert stats["server"]["backend"] == backend
        if backend == "process":
            workers = stats["server"]["process_workers"]
            assert len(workers) == 2
            assert all(worker["alive"] for worker in workers)
            assert sum(worker["requests"] for worker in workers) == 2
        ping = next(r for r in sink.responses if r["id"] == "p")["result"]
        assert ping["pong"] is True
        assert set(ping["theories"]) == {"incnat", "bitvec"}

    def test_server_is_restartable_after_shutdown(self, backend):
        server = QueryServer(workers=1, backend=backend)
        server.start()
        server.shutdown(drain=True)
        sink = ListSink()
        try:
            server.start()
            # Intake must reopen: a restarted server used to answer every
            # request with `shutting_down` because _accepting stayed False.
            outcome = server.submit_line(record(op="sat", pred="x > 1", id="q"), sink)
            assert outcome == "queued"
            assert server.wait_idle(timeout=120)
        finally:
            server.shutdown(drain=True)
        assert sink.responses[0]["ok"] is True

    def test_serve_stdio_default_ids_and_quit_drain(self, backend):
        stdin = io.StringIO("\n".join([
            "# comment",
            record(op="sat", pred="x > 1"),
            record(op="sat", pred="x > 2"),
            record(op="quit"),
        ]))
        stdout = io.StringIO()
        with QueryServer(workers=2, backend=backend) as server:
            served = serve_stdio(stdin, stdout, server)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert served == 2
        assert sorted(reply["id"] for reply in replies) == [1, 2]
        assert all(reply["ok"] for reply in replies)


def test_stats_have_one_shape_on_batch_thread_and_process():
    """``stats`` lists the same theory blocks, block keys and tables on every
    path, and no ``"shared"`` block: no cache is shared between sessions."""
    queries = [record(op="sat", pred="x > 1", id="q1"),
               record(op="equiv", theory="bitvec", left="a := T; a = T",
                      right="a := T", id="q2")]
    responses, _ = run_batch_lines(queries + [record(op="stats", id="s")])
    results = {"batch": next(r for r in responses if r["id"] == "s")["result"]}
    for backend in ("thread", "process"):
        sink = ListSink()
        with QueryServer(workers=2, backend=backend) as server:
            for line in queries:
                server.submit_line(line, sink)
            server.wait_idle(timeout=120)
            server.submit_line(record(op="stats", id="s"), sink)
        results[backend] = next(r for r in sink.responses if r["id"] == "s")["result"]

    def shape(stats):
        return {name: (sorted(block), sorted(block.get("tables", ())))
                for name, block in stats.items() if name != "server"}

    for stats in results.values():
        assert set(stats) == {"incnat", "bitvec", "server"}
    assert shape(results["thread"]) == shape(results["batch"])
    assert shape(results["process"]) == shape(results["batch"])


class TestProcessBackendSpecifics:
    def test_timed_out_ping_does_not_desync_the_worker_pipe(self):
        """A ``wait_ready`` that gives up while a worker is still importing
        leaves that ping's pong in the pipe; replies are sequence-matched, so
        the stale pong must be discarded — not read as the next request's
        reply, which used to respawn a healthy warm worker and answer the
        request with a spurious ``worker_crashed``."""
        with QueryServer(workers=1, backend="process") as server:
            server.wait_ready(timeout=0.0001)  # near-certainly expires mid-import
            sink = ListSink()
            server.submit_line(record(op="sat", pred="x > 1", id="q"), sink)
            assert server.wait_idle(timeout=120)
            assert server.wait_ready(timeout=60) is True
            info = server.backend.worker_info()
        assert sink.responses[0]["ok"] is True
        assert info[0]["restarts"] == 0

    def test_socket_mode_runs_on_the_process_backend(self):
        from repro.engine.client import SocketClient

        query_server = QueryServer(workers=2, backend="process")
        with SocketServer(query_server, port=0) as srv:
            with SocketClient("127.0.0.1", srv.port) as conn:
                replies = conn.ask([{"op": "sat", "pred": f"x > {i}", "id": f"s{i}"}
                                    for i in range(3)])
        assert sorted(reply["id"] for reply in replies) == ["s0", "s1", "s2"]
        assert all(reply["ok"] for reply in replies)

    def test_in_process_injection_is_rejected(self):
        with pytest.raises(ValueError):
            QueryServer(backend="process", theory_factory=build_theory)
        with pytest.raises(ValueError):
            QueryServer(backend="bogus")

    def test_wait_ready_during_live_traffic_is_safe(self, monkeypatch):
        """Readiness probes share each worker's pipe with its dispatcher;
        per-handle locking must keep concurrent ``wait_ready`` calls from
        recv-racing an in-flight query's reply (which used to tear down
        healthy workers as spurious crashes)."""
        with make_server("process", workers=2, oracle_ms=150, oracle_theories="incnat",
                         monkeypatch=monkeypatch) as server:
            assert server.wait_ready(timeout=60)
            sink = ListSink()
            for i in range(4):
                server.submit_line(record(op="equiv", left=f"inc(x); x > {i + 1}",
                                          right=f"x > {i}; inc(x)", id=f"q{i}"), sink)
            for _ in range(20):  # hammer readiness while queries are in flight
                server.wait_ready(timeout=0.02)
                time.sleep(0.01)
            assert server.wait_idle(timeout=120)
            info = server.backend.worker_info()
        by_id = {response["id"]: response for response in sink.responses}
        assert len(by_id) == len(sink.responses) == 4
        assert all(response["ok"] for response in by_id.values())
        assert all(worker["restarts"] == 0 for worker in info)

    def test_invalid_stripes_fail_fast_for_both_backends(self):
        # The process backend builds its pools inside the workers, so stripe
        # validation must happen at server construction, not first query.
        for backend in BACKENDS:
            with pytest.raises(ValueError):
                QueryServer(backend=backend, stripes=0)
            with pytest.raises(ValueError):
                QueryServer(backend=backend, stripes=-2)

    def test_bad_factory_spec_fails_fast_in_the_parent(self):
        with pytest.raises(ValueError):
            QueryServer(backend="process", theory_factory_spec="no colon")
        with pytest.raises(ModuleNotFoundError):
            QueryServer(backend="process", theory_factory_spec="no.such.module:attr")

    def test_thread_backend_accepts_a_factory_spec_too(self):
        sink = ListSink()
        with QueryServer(workers=1, backend="thread",
                         theory_factory_spec=ORACLE_SPEC) as server:
            server.submit_line(record(op="sat", pred="x > 1", id="q"), sink)
            server.wait_idle(timeout=60)
        assert sink.responses[0]["ok"] is True

    def test_merge_pool_stats_sums_counters_and_recomputes_rates(self):
        def table(hits, misses):
            return {"name": "norm", "hits": hits, "misses": misses,
                    "puts": misses, "evictions": 0, "hit_rate": 0.0}

        block_a = {
            "incnat": {"stripes": 1, "queries": 3, "tables": {"norm": table(3, 1)},
                       "totals": {"hits": 3, "misses": 1}},
        }
        block_b = {
            "incnat": {"stripes": 2, "queries": 5, "tables": {"norm": table(1, 3)},
                       "totals": {"hits": 1, "misses": 3}},
            "bitvec": {"stripes": 1, "queries": 1, "tables": {"norm": table(0, 1)},
                       "totals": {"hits": 0, "misses": 1}},
        }
        merged = merge_pool_stats([block_a, block_b])
        assert merged["incnat"]["stripes"] == 3
        assert merged["incnat"]["queries"] == 8
        assert merged["incnat"]["tables"]["norm"]["hits"] == 4
        assert merged["incnat"]["tables"]["norm"]["hit_rate"] == 0.5
        assert merged["incnat"]["totals"] == {"hits": 4, "misses": 4}
        assert merged["bitvec"]["queries"] == 1
        assert set(merged) == {"incnat", "bitvec"}

    def test_cli_serve_process_backend(self, monkeypatch, capsys):
        from repro.cli import main

        stdin = io.StringIO("\n".join([
            record(op="sat", pred="x > 1"),
            record(op="quit"),
        ]))
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["serve", "--backend", "process", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        replies = [json.loads(line) for line in captured.out.splitlines()]
        assert len(replies) == 1 and replies[0]["ok"]
        assert "# served 1 requests" in captured.err
