"""Serving throughput: the blocking loop vs the concurrent server's two backends.

Replays mixed-theory workloads through four serving configurations:

* ``single_loop`` — :func:`repro.engine.server.serve_stdio` with
  ``ordered=True`` and one worker: one request at a time, answered in input
  order.  This is the single-threaded baseline.
* ``server_1`` — :func:`repro.engine.server.serve_stdio` with one worker
  shard (concurrency machinery, no parallelism).
* ``server_4`` — four worker *threads* with session striping.
* ``server_proc_4`` — four worker *processes* (``--backend process``), each
  holding its own warm sessions; request and response records cross the
  process pipe as plain dicts.

Two regimes are reported:

**Simulated solver oracle.**  The theory's conjunction/satisfiability oracle
is wrapped with a small per-call sleep (``oracle_delay_ms``), modeling the
out-of-process SMT solver the paper's implementations actually call (Z3 over
IPC) — that wait releases the GIL, exactly like the real solver call would,
so worker *threads* already overlap it and worker processes buy nothing
extra.  This regime keeps the original acceptance gate: 4 thread shards must
beat the single-threaded loop by ≥ 3×.

**Pure compute.**  A CPU-bound workload (wide guard sums whose signature
search does ~10 ms of real in-process work per query, no oracle sleeps).
Here CPython's GIL serializes the thread backend — 4 threads honestly buy
~nothing — while the process backend genuinely parallelizes across cores.
The report carries ``cpus`` (the CPU affinity count actually available);
with ≥ 4 CPUs the run fails unless ``server_proc_4`` beats ``server_4`` by
≥ 2× (≥ 1.2× with 2–3 CPUs).  On a single-CPU machine no parallel speedup
is physically possible — the numbers are reported honestly and the gate is
skipped with a note rather than fabricated.

Server construction and worker-process spawn/import happen *outside* the
timed window (a long-lived server amortizes startup); every response in
every mode is checked for id correctness and verdict identity across modes.

Run directly to emit ``BENCH_serve.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full (gated)
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI gate
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time

from repro.core import automata
from repro.engine.cache import LRUCache
from repro.engine.server import QueryServer, serve_stdio
from repro.engine.testing import OracleLatencyTheory
from repro.theories import build_theory

ORACLE_DELAY_MS = 6.0
WORKERS = 4
REQUESTS = 240          # >= 200-request acceptance workload (80 per theory)
HEAVY_REQUESTS = 96     # pure-compute workload (~10 ms of real work each)
SMOKE_REQUESTS = 60
SMOKE_HEAVY_REQUESTS = 32
ACCEPTANCE_SPEEDUP = 3.0        # thread server vs single loop, oracle regime
PROCESS_SPEEDUP_TARGET = 2.0    # process vs thread backend, pure compute, >= 4 CPUs
PROCESS_SPEEDUP_FLOOR = 1.2     # same gate on 2-3 CPUs

#: Env-configured latency factory the worker processes can import by name.
TESTING_SPEC = "repro.engine.testing:oracle_latency_factory"


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


CPUS = _available_cpus()


class CallCounter:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def bump(self):
        with self._lock:
            self.calls += 1


def make_workload(total):
    """``total`` JSONL request lines, ids ``q0..q{total-1}``, mixed theories."""
    lines = []
    index = 0

    def add(**fields):
        nonlocal index
        fields["id"] = f"q{index}"
        lines.append(json.dumps(fields))
        index += 1

    per_theory = total // 3

    def vary(i):
        # Mostly distinct queries (distinct atoms → real oracle work) with a
        # deliberate ~20% tail of repeats so the affinity/caching story is
        # exercised too: every 5th request replays an earlier one.
        return i // 5 if i % 5 == 4 else i

    for i in range(per_theory):
        k = vary(i) + 1
        if i % 2:
            # Two primitive tests under the guards → a real signature search
            # with several conjunction-oracle decisions per query.
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
    for i in range(total - 2 * per_theory):
        k = vary(i)  # theory-local index, so the repeat tail really repeats
        add(op="equiv", theory="netkat",
            left=f"sw = {k}; sw <- {k + 1}", right=f"sw = {k}; sw <- {k + 1}; sw = {k + 1}")
    return lines


def make_heavy_workload(total):
    """CPU-bound workload: each query costs ~10 ms of in-process compute.

    Wide bitvec guard sums (4-5 independent guards → 16-32 signatures, each
    deciding a language comparison) with per-request-distinct variables, so
    nothing replays from a cache.  Sub-millisecond queries would measure pipe
    overhead, not compute — this is the workload where a process backend can
    honestly win.  Variable names are rejection-sampled so the content-hash
    stripes round-robin across the :data:`WORKERS` shards: the benchmark
    measures backend parallelism, not the luck of one hash draw (the measured
    speedup's ceiling is set by the most loaded worker).
    """
    from repro.engine.server import _affinity_stripe

    lines = []
    for index in range(total):
        width = 4 + index % 2
        for attempt in range(64):
            guards = [f"g{index}v{attempt}x{j} = T; b{index}v{attempt}x{j} := T"
                      for j in range(width)]
            left = " + ".join(guards)
            if index % 4 == 3:
                # An inequivalent tail: one branch assigns the other value.
                right = " + ".join(guards[:-1] + [f"g{index}v{attempt}x{width - 1} = T; "
                                                  f"b{index}v{attempt}x{width - 1} := F"])
            else:
                right = f"({left}) + ({left})"
            record = {"op": "equiv", "theory": "bitvec", "left": left, "right": right,
                      "id": f"q{index}"}
            if _affinity_stripe(record, WORKERS) == index % WORKERS:
                break
        lines.append(json.dumps(record))
    return lines


#: Runner return marker: "count oracle calls with the in-process counter".
#: The process runner instead returns its own measured count (or ``None``) —
#: its oracle calls happen inside worker processes where the in-process
#: counter cannot see them.
_COUNT_IN_PROCESS = object()


def _run_mode(name, lines, delay_ms, runner):
    """Run one serving configuration on a fresh process-cache world.

    Each mode gets its own derivative memo (the real one is process-wide and
    would leak warm state from one mode into the next) and fresh sessions via
    a fresh latency-wrapped theory factory.  ``runner`` builds and starts its
    server *outside* the timed window and returns ``(elapsed_seconds,
    oracle_calls)`` where ``oracle_calls`` is :data:`_COUNT_IN_PROCESS` (use
    the shared in-process counter — the thread modes), an exact count (the
    process backend pulls it off the worker stats pipe after the drain), or
    ``None`` (genuinely uncountable — distinct from a real zero, which would
    indicate a workload that stopped exercising the oracle).
    """
    counter = CallCounter()

    def theory_factory(theory_name):
        return OracleLatencyTheory(build_theory(theory_name), delay_ms / 1000.0, counter)

    saved = automata.get_derivative_cache()
    automata.set_derivative_cache(LRUCache(maxsize=65536, name="deriv"))
    try:
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        elapsed, oracle_calls = runner(stdin, stdout, delay_ms, theory_factory)
    finally:
        automata.set_derivative_cache(saved)
    if oracle_calls is _COUNT_IN_PROCESS:
        oracle_calls = counter.calls
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    return {
        "mode": name,
        "seconds": round(elapsed, 4),
        "qps": round(len(lines) / elapsed, 1) if elapsed else float("inf"),
        "oracle_calls": oracle_calls,
        "responses": responses,
    }


def _thread_runner(workers, ordered=False):
    def run(stdin, stdout, delay_ms, theory_factory):
        server = QueryServer(workers=workers, queue_limit=128,
                             theory_factory=theory_factory)
        server.start()
        try:
            started = time.perf_counter()
            serve_stdio(stdin, stdout, server=server, ordered=ordered)
            return time.perf_counter() - started, _COUNT_IN_PROCESS
        finally:
            server.shutdown(drain=True)

    return run


_loop_runner = _thread_runner(1, ordered=True)


def _worker_oracle_calls(server):
    """Exact post-drain oracle-call total summed over the worker processes.

    The env-configured oracle wrapper counts into each worker's process-global
    metrics registry; ``refresh_stats`` pulls a fresh snapshot over the stats
    pipe (the periodic piggyback could trail by up to 15 responses), and the
    merged ``oracle_calls_total`` counter is the cluster-wide total.
    """
    server.backend.refresh_stats(timeout=60.0)
    merged = server.backend.worker_metrics()
    if merged is None:
        return None
    entries = merged.get("counters", {}).get("oracle_calls_total", [])
    return int(sum(entry["value"] for entry in entries))


def _process_runner(workers):
    def run(stdin, stdout, delay_ms, theory_factory):
        env = {"KMT_TEST_ORACLE_DELAY_MS": str(delay_ms),
               "KMT_TEST_ORACLE_THEORIES": ""}
        saved_env = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        try:
            server = QueryServer(workers=workers, backend="process", queue_limit=128,
                                 theory_factory_spec=TESTING_SPEC)
            server.start()
            try:
                # Spawn/import must not be charged to serving time — and a
                # pool that never came up must not be benchmarked at all.
                if not server.wait_ready(timeout=120):
                    raise AssertionError("process worker pool failed to become ready")
                started = time.perf_counter()
                serve_stdio(stdin, stdout, server=server)
                elapsed = time.perf_counter() - started
                # At zero delay the factory returns unwrapped theories —
                # nothing counts, and reporting 0 would read as "the workload
                # stopped exercising the oracle"; stay honest with null.
                oracle = _worker_oracle_calls(server) if delay_ms else None
                return elapsed, oracle
            finally:
                server.shutdown(drain=True)
        finally:
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    return run


def _verify_responses(lines, results):
    """All ids answered exactly once per mode, verdicts identical across modes."""
    expected_ids = [json.loads(line)["id"] for line in lines]

    def verdicts(result):
        out = {}
        for response in result["responses"]:
            if not response.get("ok"):
                raise AssertionError(
                    f"{result['mode']}: request {response.get('id')} failed: "
                    f"{response.get('error')}")
            payload = response["result"]
            out[response["id"]] = payload.get("equivalent", payload.get("satisfiable"))
        return out

    reference = verdicts(results[0])
    if sorted(reference) != sorted(expected_ids):
        raise AssertionError(f"{results[0]['mode']}: id set mismatch")
    for result in results[1:]:
        got = verdicts(result)
        if got != reference:
            raise AssertionError(
                f"{result['mode']}: responses disagree with {results[0]['mode']}")
    return reference


def run_comparison(lines, delay_ms):
    delay = float(delay_ms)
    loop = _run_mode("single_loop", lines, delay, _loop_runner)
    one = _run_mode("server_1", lines, delay, _thread_runner(1))
    many = _run_mode(f"server_{WORKERS}", lines, delay, _thread_runner(WORKERS))
    proc = _run_mode(f"server_proc_{WORKERS}", lines, delay, _process_runner(WORKERS))
    _verify_responses(lines, [loop, one, many, proc])
    for result in (loop, one, many, proc):
        del result["responses"]  # verified; keep the artifact small
    return {
        "requests": len(lines),
        "oracle_delay_ms": delay,
        "modes": [loop, one, many, proc],
        "speedup_vs_single_loop": round(loop["seconds"] / many["seconds"], 2),
        "speedup_vs_one_worker": round(one["seconds"] / many["seconds"], 2),
        "process_speedup_vs_thread": round(many["seconds"] / proc["seconds"], 2),
    }


def _gate_process_speedup(pure, out=sys.stderr):
    """The pure-compute gate, honest about the hardware it ran on.

    Returns ``True`` when acceptable.  A parallel speedup needs parallel
    hardware: with 1 CPU the gate is reported as skipped, never fabricated.
    """
    speedup = pure["process_speedup_vs_thread"]
    if CPUS >= 4:
        required = PROCESS_SPEEDUP_TARGET
    elif CPUS >= 2:
        required = PROCESS_SPEEDUP_FLOOR
    else:
        print(f"# SKIPPED process-speedup gate: 1 CPU available, parallel "
              f"speedup impossible (measured {speedup}x)", file=out)
        return True
    if speedup < required:
        print(f"# FAIL: process backend {speedup}x < {required}x over the "
              f"thread backend on pure compute ({CPUS} CPUs)", file=out)
        return False
    print(f"# OK: process backend {speedup}x >= {required}x over the thread "
          f"backend on pure compute ({CPUS} CPUs)", file=out)
    return True


def run_all():
    simulated = run_comparison(make_workload(REQUESTS), ORACLE_DELAY_MS)
    # The honest CPU-bound regime: no oracle latency, ~10 ms real compute per
    # query.  Thread workers are GIL-serialized here; worker processes are
    # not (given the cores).
    pure = run_comparison(make_heavy_workload(HEAVY_REQUESTS), 0.0)
    return {
        "benchmark": "serve",
        "description": (
            "blocking single-threaded serve loop vs concurrent query server "
            "(shard affinity + session striping) on both execution backends "
            "(worker threads vs worker processes), mixed-theory workload; "
            "oracle latency models an out-of-process solver (GIL released)"
        ),
        "workers": WORKERS,
        "cpus": CPUS,
        "simulated_solver_oracle": simulated,
        "pure_compute": pure,
        "note": (
            "thread shards overlap GIL-releasing waits (oracle IPC, client I/O) "
            "but serialize pure in-process compute; worker processes parallelize "
            "pure compute across available cores — pure_compute uses a ~10ms-per-"
            "query CPU-bound workload and reports cpus so single-core runs are "
            "read honestly"
        ),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    if smoke:
        report = run_comparison(make_workload(SMOKE_REQUESTS), ORACLE_DELAY_MS)
        pure = run_comparison(make_heavy_workload(SMOKE_HEAVY_REQUESTS), 0.0)
        report["pure_compute_smoke"] = pure
        print(json.dumps(report, indent=2, sort_keys=True))
        # CI gates: N thread workers must beat one worker on the oracle
        # workload, and the process backend must beat the thread backend on
        # pure compute (given the cores to do it with).
        ok = True
        if report["speedup_vs_one_worker"] <= 1.0:
            print(f"# FAIL: server_{WORKERS} did not beat server_1", file=sys.stderr)
            ok = False
        else:
            print(f"# OK: server_{WORKERS} beat server_1 by "
                  f"{report['speedup_vs_one_worker']}x", file=sys.stderr)
        if not _gate_process_speedup(pure):
            ok = False
        return 0 if ok else 1
    report = run_all()
    artifact = os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_serve.json"))
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"# wrote {artifact}")
    ok = True
    speedup = report["simulated_solver_oracle"]["speedup_vs_single_loop"]
    if speedup < ACCEPTANCE_SPEEDUP:
        print(f"# FAIL: {speedup}x < {ACCEPTANCE_SPEEDUP}x acceptance bar", file=sys.stderr)
        ok = False
    else:
        print(f"# OK: {speedup}x >= {ACCEPTANCE_SPEEDUP}x", file=sys.stderr)
    if not _gate_process_speedup(report["pure_compute"]):
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
