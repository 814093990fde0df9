"""Persistent snapshot tier: cold restart vs snapshot-warmed restart.

The question: after a server restart (deploy, rollout, crash), how much of
the cache warmth built by past queries does the snapshot tier actually give
back?  Both lanes run the *same* query set — the nested-sums-under-star
family also used by ``bench_compile.py`` — in a **fresh spawned subprocess**,
because an in-process "restart" is a lie: the process-wide derivative memo,
the hash-consed term intern table and the alphabet memos of
:mod:`repro.core.automata` would stay warm and flatter the cold lane.

1. **Seed lane** (subprocess): a cold session pool answers every query, then
   exports its caches through :class:`repro.engine.persist.SnapshotStore`.
   Its query time *is* the cold-restart cost.
2. **Warm lane** (subprocess): a fresh pool imports the snapshot first, then
   answers the same queries.  The deterministic gates: every verdict matches
   the cold lane, the warm lane compiles **zero** automaton states, and every
   equivalence query is answered from the imported ``equiv`` memo.  The full
   run additionally gates the wall-clock ratio at
   :data:`SNAPSHOT_SPEEDUP_TARGET`.

Run directly to emit the ``BENCH_persist.json`` artifact at the repo root::

    PYTHONPATH=src python benchmarks/bench_persist.py            # full
    PYTHONPATH=src python benchmarks/bench_persist.py --smoke    # CI gate

Also collectable with pytest as a regression guard (deterministic gates
only — wall clock is never gated in the smoke/pytest lane).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
import time

#: (loop summands m, chain depth d) — the ``bench_compile.py`` scaling family.
SIZES = [(1, 2), (2, 2), (2, 4), (2, 6), (2, 8)]
SMOKE_SIZES = [(1, 2), (2, 2)]

#: Full-run gate: total warm-restart query time vs total cold-restart time.
SNAPSHOT_SPEEDUP_TARGET = 10.0

THEORY_PRESET = "bitvec"


def family_source(m, d):
    """``(x1 = F; y1_1 := T; ... + ...)*`` vs its self-sequencing, as source.

    Source text (not terms) on purpose: snapshots key entries by concrete
    syntax, and a restarted server receives queries as protocol text — this
    is exactly the code path a warm start must hit.
    """
    summands = []
    for index in range(1, m + 1):
        parts = [f"x{index} = F"]
        parts.extend(f"y{index}_{depth} := T" for depth in range(1, d + 1))
        summands.append("; ".join(parts))
    loop = "(" + " + ".join(summands) + ")*"
    return loop, loop + "; " + loop


def query_set(sizes):
    return [family_source(m, d) for m, d in sizes]


def _run_lane(sizes, snapshot_path, warm, out_path):
    """Subprocess body: (optionally) import the snapshot, answer every query.

    Timing starts after imports: both lanes pay identical interpreter and
    module-import cost, and including it would only dilute the number the
    snapshot tier is responsible for.  The snapshot *load* is part of the
    warm lane's measured time — warm start is only a win if load + warm
    queries beats cold queries.
    """
    from repro.engine.persist import SnapshotStore
    from repro.engine.session import ShardedSessionPool

    queries = query_set(sizes)
    started = time.perf_counter()
    pool = ShardedSessionPool(stripes=1)
    load_seconds = None
    if warm:
        pool.import_snapshot(SnapshotStore(snapshot_path).load())
        load_seconds = time.perf_counter() - started
    session = pool.session(THEORY_PRESET)
    verdicts = []
    first_seconds = None
    for left, right in queries:
        verdicts.append(bool(session.check_equivalent(left, right).equivalent))
        if first_seconds is None:
            first_seconds = time.perf_counter() - started
    total_seconds = time.perf_counter() - started
    if not warm:
        SnapshotStore(snapshot_path).save(pool.export_snapshot())
    tables = session.stats()["tables"]
    report = {
        "verdicts": verdicts,
        "seconds": round(total_seconds, 6),
        "first_answer_seconds": round(first_seconds, 6),
        "load_seconds": round(load_seconds, 6) if load_seconds is not None else None,
        "states_compiled": session.checker.states_compiled,
        "equiv_hits": tables["equiv"]["hits"],
        "aut_puts": tables["aut"]["puts"],
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def _spawn_lane(ctx, sizes, snapshot_path, warm, workdir):
    out_path = os.path.join(workdir, "warm.json" if warm else "cold.json")
    process = ctx.Process(
        target=_run_lane, args=(sizes, snapshot_path, warm, out_path))
    process.start()
    process.join(timeout=600)
    if process.is_alive():
        process.kill()
        process.join()
        raise RuntimeError("benchmark lane subprocess hung")
    if process.exitcode != 0:
        raise RuntimeError(f"benchmark lane subprocess failed ({process.exitcode})")
    with open(out_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_all(smoke=False):
    sizes = SMOKE_SIZES if smoke else SIZES
    # spawn, not fork: a forked child inherits this process's warm memos and
    # the cold lane stops being cold.
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="kmt-bench-persist-") as workdir:
        snapshot_path = os.path.join(workdir, "snapshot.json")
        cold = _spawn_lane(ctx, sizes, snapshot_path, False, workdir)
        snapshot_bytes = os.path.getsize(snapshot_path)
        warm = _spawn_lane(ctx, sizes, snapshot_path, True, workdir)
    speedup = (
        round(cold["seconds"] / warm["seconds"], 2) if warm["seconds"] else float("inf")
    )
    return {
        "benchmark": "persist",
        "description": (
            "cold restart vs snapshot-warmed restart (fresh spawned "
            "subprocess each) on the nested-sums-under-star family"
        ),
        "smoke": smoke,
        "sizes": [list(size) for size in sizes],
        "queries": len(sizes),
        "snapshot_bytes": snapshot_bytes,
        "cold_restart": cold,
        "snapshot_restart": warm,
        "restart_speedup": speedup,
    }


def check_report(report, require_speedup=True):
    """The acceptance gates; returns a list of failure strings."""
    failures = []
    cold, warm = report["cold_restart"], report["snapshot_restart"]
    if warm["verdicts"] != cold["verdicts"]:
        failures.append(
            f"snapshot restart changed verdicts: {cold['verdicts']} -> {warm['verdicts']}")
    if not all(cold["verdicts"]):
        failures.append("benchmark pairs unexpectedly inequivalent")
    if cold["states_compiled"] <= 0:
        failures.append("cold restart compiled no automata (workload too small)")
    if warm["states_compiled"] != 0:
        failures.append(
            f"snapshot restart compiled {warm['states_compiled']} states "
            "instead of answering from the imported caches")
    if warm["equiv_hits"] < report["queries"]:
        failures.append(
            f"snapshot restart answered only {warm['equiv_hits']}/"
            f"{report['queries']} queries from the imported equiv memo")
    if warm["aut_puts"] <= 0:
        failures.append("snapshot restart imported no compiled automata")
    if require_speedup and report["restart_speedup"] < SNAPSHOT_SPEEDUP_TARGET:
        failures.append(
            f"snapshot-restart speedup {report['restart_speedup']}x below "
            f"the {SNAPSHOT_SPEEDUP_TARGET}x target")
    return failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    report = run_all(smoke=smoke)
    artifact = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_persist.json")
    )
    # The smoke lane writes the artifact too (CI uploads it); the committed
    # copy always comes from a full run, recognizable by ``"smoke": false``.
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"# wrote {artifact}")
    # Wall clock is only gated on the full run; the smoke lane (CI) checks
    # the deterministic compiled-states / memo-hit counters.
    failures = check_report(report, require_speedup=not smoke)
    for failure in failures:
        print(f"# FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_snapshot_restart_reuses_caches():
    """Regression guard: a snapshot-warmed restart never recompiles."""
    report = run_all(smoke=True)
    assert check_report(report, require_speedup=False) == []


if __name__ == "__main__":
    raise SystemExit(main())
