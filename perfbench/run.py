#!/usr/bin/env python3
"""The repository benchmark: closed-loop serving workloads against real
`kmt serve` / `kmt route` subprocesses.

Run from the repository root::

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload on its real
deployment.  ``--trace 1`` is the separate traced run that reports the
per-layer metrics (see ``perfbench/layers.py``).  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Every run is also appended to ``perfbench/history.jsonl``, keyed by the
source commit.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

from perfbench import deploy, streams  # noqa: E402

#: Fresh deployments set up per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Completions per measurement window: enough for 10 samples beyond p99.
WINDOW_SAMPLES = 1000


class Workload:
    """A deployment plus the stream that drives it (reasons for each
    workload are recorded in BENCHMARK.json and README.md)."""

    def __init__(self, name, server_flags, theories, routed=False, warm=False):
        self.name = name
        self.server_flags = server_flags
        self.theories = theories
        self.routed = routed
        self.warm = warm

    def stream(self, seed, prefix="q"):
        """The timed stream; ``prefix`` renames the fresh variables of the
        cold workloads without changing their work."""
        if self.warm:
            return streams.warm_replay(seed)[1]
        if self.name == "cold_mix":
            return streams.cold_mix(seed, prefix)
        return streams.edit_recheck(seed, prefix)


ALL_THEORIES = ("incnat", "bitvec", "netkat", "product", "ltlf-nat", "sets")

WORKLOADS = {
    workload.name: workload for workload in (
        Workload("cold_mix", ["--backend", "process", "--workers", "2"], ALL_THEORIES),
        Workload("warm_replay", ["--workers", "2"], ALL_THEORIES, warm=True),
        Workload("edit_recheck", ["--workers", "2"], ("incnat", "sets")),
        Workload("routed_replay", ["--workers", "2"], ALL_THEORIES, routed=True, warm=True),
    )
}


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, max(0, int(round(fraction * len(sorted_values))) - 1))
    return sorted_values[index]


def windowed(result):
    """``(qps, p50, p99)`` as medians over consecutive windows of at least
    :data:`WINDOW_SAMPLES` completions each.

    A few seconds of host contention then move one window, not the run's
    figures; a run too short for two windows is one window.
    """
    total = len(result.completions)
    count = max(1, total // WINDOW_SAMPLES)
    size = total // count
    rates, p50s, p99s = [], [], []
    for k in range(count):
        low, high = k * size, total if k == count - 1 else (k + 1) * size
        opened = result.started if k == 0 else result.completions[low - 1]
        rates.append((high - low) / (result.completions[high - 1] - opened))
        latencies = sorted(result.latencies[low:high])
        p50s.append(percentile(latencies, 0.50))
        p99s.append(percentile(latencies, 0.99))
    return statistics.median(rates), statistics.median(p50s), statistics.median(p99s), count


def host_reference_ms():
    """Median time of a fixed pure-Python loop: how fast the host is right
    now.  Recorded next to each run (not a metric) so that a slow run can be
    told apart from a slow host."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def set_up(workload, seed):
    """Launch the workload's deployment and bring it to the timed start.

    Boot, every worker answering a real query, and the warm-up pass where
    the workload has one.  Returns ``(deployment, connection, seconds,
    attempted, failed)``.
    """
    started = time.perf_counter()
    deployment = deploy.Deployment(ROOT, workload.server_flags, routed=workload.routed)
    conn = None
    try:
        conn = deploy.Connection(deployment.port)
        attempted, failed = deploy.wait_ready(conn, workload.theories)
        if workload.warm:
            warm = deploy.closed_loop(conn, streams.warm_replay(seed)[0], id_prefix="warm")
            attempted += warm.attempted
            failed += warm.failed
    except BaseException:
        if conn is not None:
            conn.close()
        deployment.stop()
        raise
    return deployment, conn, time.perf_counter() - started, attempted, failed


def end_to_end(workload, seed, seconds):
    setup_times = []
    attempted = failed = 0
    deployment = conn = None
    try:
        for _ in range(SETUP_REPEATS):
            if deployment is not None:
                conn.close()
                deployment.stop()
            deployment, conn, took, tried, bad = set_up(workload, seed)
            setup_times.append(took)
            attempted += tried
            failed += bad
        host_before = host_reference_ms()
        pids = deployment.tree()
        cpu_before = {pid: deploy.cpu_seconds([pid]) for pid in pids}
        result = deploy.closed_loop(conn, workload.stream(seed), seconds=seconds)
        pids = sorted(set(pids) | set(deployment.tree()))
        cpu_used = sum(deploy.cpu_seconds([pid]) - cpu_before.get(pid, 0.0) for pid in pids)
        peak_rss = deploy.peak_rss_mb(pids)
        host_after = host_reference_ms()
    finally:
        if conn is not None:
            conn.close()
        if deployment is not None:
            deployment.stop()
    completed = len(result.latencies)
    if completed < WINDOW_SAMPLES:
        print(f"# warning: only {completed} queries; p99 has fewer than 10 samples "
              "beyond it", file=sys.stderr)
    qps, p50, p99, windows = windowed(result)
    metrics = {
        "qps": (qps, "1/s"),
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_p99_ms": (p99 * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "server_cpu_ms_per_query": (cpu_used * 1000.0 / completed, "ms"),
        "server_peak_rss_mb": (peak_rss, "MB"),
    }
    start = result.completions[0] if result.completions else 0.0
    per_second = [0] * (int(result.elapsed) + 1)
    for received in result.completions:
        per_second[int(received - start)] += 1
    detail = {
        "host_reference_ms": [host_before, host_after],
        "per_second": per_second,
        "samples": completed,
        "windows": windows,
        "setup_runs_s": setup_times,
        "failed_share": (failed + result.failed) / (attempted + result.attempted),
        "errors": result.errors, "wrong": result.wrong, "unmatched": result.unmatched,
        "window": deploy.WINDOW,
        "deployment": workload.server_flags + (["+ kmt route"] if workload.routed else []),
    }
    return attempted + result.attempted, failed + result.failed, metrics, detail


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------


def source_key():
    """``{"commit": ..., "source": ...}``: the git commit when the checkout
    is a repository, and always a digest of the source tree under ``src/``."""
    digest = hashlib.sha256()
    src = deploy.source_dir(ROOT)
    for directory, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"commit": _git_head(), "source": digest.hexdigest()[:16]}


def _git_head():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def append_history(path, record):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", default=os.path.join(BENCH_DIR, "history.jsonl"),
                        help="file each run is appended to ('' to skip)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(deploy.source_dir(ROOT), "repro", "__init__.py")):
        print(f"error: no engine source under {deploy.source_dir(ROOT)}; run from the "
              "repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        from perfbench import layers

        attempted, failed, metrics, detail = layers.traced(workload, args.seed, args.seconds)
    else:
        attempted, failed, metrics, detail = end_to_end(workload, args.seed, args.seconds)
    output = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.history:
        append_history(args.history, {
            **source_key(), "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "correct": output["correct"], "attempted": attempted, "failed": failed,
            "metrics": {name: value for name, (value, _) in metrics.items()},
            "detail": detail,
        })
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    print(json.dumps(output, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
