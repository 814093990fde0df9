"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import streams  # noqa: E402
from repro.engine.batch import QUERY_OPS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _lines(queries, count):
    return "\n".join(streams.encode(query, f"r{i}")
                     for i, query in enumerate(itertools.islice(queries, count)))


STREAMS = {
    "cold_mix": lambda seed: streams.cold_mix(seed),
    "warm_set": lambda seed: iter(streams.warm_replay(seed)[0]),
    "warm_replay": lambda seed: streams.warm_replay(seed)[1],
    "edit_recheck": lambda seed: streams.edit_recheck(seed),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_is_a_function_of_the_seed(name):
    make = STREAMS[name]
    first = _lines(make(1), 400).encode()
    assert first == _lines(make(1), 400).encode()
    assert first != _lines(make(2), 400).encode()


def test_cold_mix_is_distinct_and_covers_every_op():
    records = [json.dumps(query.record, sort_keys=True)
               for query in itertools.islice(streams.cold_mix(5), 800)]
    assert len(set(records)) == len(records)
    ops = {json.loads(record)["op"] for record in records[:80]}
    assert ops == set(QUERY_OPS)


def test_warm_set_is_distinct_and_covers_every_op():
    queries = streams.warm_replay(5)[0]
    records = {json.dumps(query.record, sort_keys=True) for query in queries}
    assert len(records) == len(queries) == streams.WARM_SET_SIZE
    assert {query.record["op"] for query in queries} == set(QUERY_OPS)


def test_edit_recheck_outgrows_the_program_table():
    texts, sizes = set(), []
    for query in itertools.islice(streams.edit_recheck(5), 1200):
        for field in ("program", "left", "right"):
            if field in query.record:
                texts.add(query.record[field])
        if query.record["op"] == "dead_code":
            sizes.append(query.expect["total"])
    assert len(texts) > 256
    low, high = streams.EDIT_STATEMENTS
    assert low - 1 <= min(sizes) and max(sizes) <= high + 1


def test_known_verdicts_hold_in_process():
    """Every expectation of a sample of each stream matches the engine."""
    from repro.engine.server import ShardedSessionPool, execute_record

    pool = ShardedSessionPool(stripes=2)
    samples = (list(itertools.islice(streams.cold_mix(7), 120))
               + streams.warm_replay(7)[0]
               + list(itertools.islice(streams.edit_recheck(7), 40)))
    wrong = []
    for query in samples:
        response = execute_record(pool, dict(query.record), "incnat", 0)
        if not streams.check(response, query.expect):
            wrong.append((query, response))
    assert not wrong, wrong[:3]


def test_check_rejects_errors_and_wrong_verdicts():
    assert streams.check({"ok": True, "result": {"holds": True}}, {"holds": True})
    assert not streams.check({"ok": True, "result": {"holds": False}}, {"holds": True})
    assert not streams.check({"ok": False, "error_code": "parse_error"}, {"holds": True})


def _run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace), "--history", ""],
        cwd=cwd, capture_output=True, text=True, timeout=180)


WORKLOADS = ("cold_mix", "warm_replay", "edit_recheck", "routed_replay")


def test_benchmark_lists_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", ["cold_mix", "edit_recheck"])
def test_traced_run_reports_every_layer_and_adds_up(workload):
    proc = _run(workload, 1, seconds="3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    assert detail["layer_sum_ms"] == pytest.approx(detail["wall_ms"], rel=1e-9)
    assert result["metrics"]["trace.unattributed_share"]["value"] >= 0


def test_fails_without_the_engine_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("cold_mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
