"""Tests for the persistent snapshot tier (:mod:`repro.engine.persist`).

Covers the codec round trip (export → import is verdict- and byte-identical,
driven by hypothesis over random BitVec terms), rejection of truncated /
corrupted / foreign snapshot files with the stable ``snapshot_invalid`` error
code and untouched caches, multi-contributor payload merging (pool
hash-consing + reference remapping), and the end-to-end warm-start paths:
``kmt serve --snapshot`` restart and a SIGKILL'd process-backend worker that
comes back warm.  The torn-stats-read regression that shipped with this tier
lives here too, with a check that a decoded automaton compares to a fresh
compile by value.
"""

import io
import json
import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings

from repro.core.compile import compile_automaton
from repro.core.kernels import flat_compare
from repro.engine import persist
from repro.engine.cache import LRUCache
from repro.engine.persist import (
    CheckpointManager,
    SnapshotStore,
    make_payload,
    merge_payloads,
)
from repro.engine.session import EngineSession, ShardedSessionPool
from repro.theories.bitvec import BitVecTheory
from repro.utils.errors import SnapshotError
from repro.utils.trace import Trace, activate, deactivate
from tests.conftest import bitvec_terms


def _session():
    return EngineSession(BitVecTheory(variables=("a", "b", "c")))


def _table_sizes(session):
    tables = session.stats()["tables"]
    return {name: stats["puts"] for name, stats in tables.items()}


def record(**fields):
    return json.dumps(fields)


# ---------------------------------------------------------------------------
# codec round trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=30)
    @given(bitvec_terms(max_leaves=3), bitvec_terms(max_leaves=3))
    def test_export_import_is_verdict_and_byte_identical(self, left, right):
        donor = _session()
        verdict = donor.check_equivalent(left, right)
        state = donor.export_state()
        blob = json.dumps(state, sort_keys=True)

        warm = _session()
        warm.import_state(json.loads(blob))
        replay = warm.check_equivalent(left, right)
        assert replay.equivalent == verdict.equivalent
        assert replay.cached is True
        if verdict.counterexample is not None:
            assert replay.counterexample.word == verdict.counterexample.word
            assert replay.counterexample.cell == verdict.counterexample.cell
        # The warm session re-exports to the very same bytes: entry order is
        # canonical (sort keys, not access order), so is the node pool.
        assert json.dumps(warm.export_state(), sort_keys=True) == blob

    def test_import_counts_reported(self):
        donor = _session()
        donor.check_equivalent("(a := T)*", "(a := T)*; (a := T)*")
        warm = _session()
        counts = warm.import_state(donor.export_state())
        assert counts["equiv"] == 1
        assert counts["norm"] > 0
        assert counts["aut"] > 0

    def test_store_save_load_round_trip(self, tmp_path):
        pool = ShardedSessionPool(stripes=1)
        session = pool.session("bitvec")
        session.check_equivalent("(b := T)*", "(b := T)*; (b := T)*")
        path = tmp_path / "snap.json"
        store = SnapshotStore(path)
        store.save(pool.export_snapshot())

        warm_pool = ShardedSessionPool(stripes=1)
        warm_pool.import_snapshot(store.load())
        warm = warm_pool.session("bitvec")
        result = warm.check_equivalent("(b := T)*", "(b := T)*; (b := T)*")
        assert result.equivalent and result.cached


# A mixed warm-up over every persisted table: equivalence and inclusion
# verdicts (tagged and untagged ``equiv`` keys), emptiness (compiled
# automata without a pair verdict) and the normal forms behind all of them.
MIXED_QUERIES = [
    ("equiv", "(a := T)*", "(a := T)*; (a := T)*", True),
    ("equiv", "a = T; b := F", "b := F; a = T", True),
    ("equiv", "(a := T + b := T)*", "(a := T)* ; (b := T)*", False),
    ("incl", "a := T", "a := T + b := F", True),
    ("incl", "(a := T)*", "a := T", False),
    ("empty", "a = T; a = F", None, True),
    ("empty", "(c := T)*; c = F", None, False),
]

#: Written by the code before the engine keyed its tables on the nodes
#: themselves (commit 033bfe3) from a bitvec pool warmed on MIXED_QUERIES;
#: these are its row counts per table.  Its ``sig`` rows (a per-action-pair
#: verdict memo the engine no longer keeps) are ignored on import, like any
#: other table a snapshot carries that the engine does not know.
V1_SNAPSHOT = os.path.join(os.path.dirname(__file__), "fixtures",
                               "snapshot_v1_bitvec.json")
V1_SNAPSHOT_ROWS = {"norm": 10, "aut": 7, "sig": 4, "equiv": 5, "prog": 0}
V1_SNAPSHOT_IMPORTS = {"norm": 10, "aut": 7, "equiv": 5, "prog": 0}


def _run_mixed(session):
    """Answer MIXED_QUERIES; returns ``(verdict, replayed-from-memo)`` rows."""
    rows = []
    for op, left, right, _ in MIXED_QUERIES:
        if op == "equiv":
            result = session.check_equivalent(left, right)
            rows.append((result.equivalent, result.cached))
        elif op == "incl":
            result = session.check_inclusion(left, right)
            rows.append((result.includes, result.cached))
        else:
            rows.append((session.is_empty(left), None))
    return rows


class TestSnapshotCompleteness:
    def test_export_holds_every_live_entry(self):
        session = _session()
        _run_mixed(session)
        tables = session.export_state()["tables"]
        assert "sig" not in tables
        for name in ("norm", "aut", "equiv"):
            live = len(getattr(session.caches, name))
            assert live > 0, name
            assert len(tables[name]) == live, name

    def test_snapshot_from_earlier_code_imports_with_same_counts(self):
        with open(V1_SNAPSHOT) as handle:
            entries = json.load(handle)["sessions"]["bitvec"]["tables"]
        assert {name: len(rows) for name, rows in entries.items()} == \
            V1_SNAPSHOT_ROWS

        pool = ShardedSessionPool(stripes=1)
        counts = pool.import_snapshot(SnapshotStore(V1_SNAPSHOT).load())
        assert counts == {"bitvec": V1_SNAPSHOT_IMPORTS}
        session = pool.session("bitvec")
        rows = _run_mixed(session)
        assert [verdict for verdict, _ in rows] == \
            [expected for *_, expected in MIXED_QUERIES]
        # Every pair verdict is replayed from the imported memo, and so is
        # every automaton: the warm pool compiles nothing.
        assert all(cached for _, cached in rows if cached is not None)
        assert session.stats()["tables"]["aut"]["misses"] == 0


# ---------------------------------------------------------------------------
# rejection: every bad snapshot is `snapshot_invalid` and leaves caches alone
# ---------------------------------------------------------------------------


def _donor_snapshot(tmp_path):
    pool = ShardedSessionPool(stripes=1)
    pool.session("bitvec").check_equivalent("(a := T)*", "(a := T)*; (a := T)*")
    path = tmp_path / "snap.json"
    SnapshotStore(path).save(pool.export_snapshot())
    return path


def _assert_rejected_cold(path):
    """Loading/importing ``path`` must fail with the stable code, no effects."""
    pool = ShardedSessionPool(stripes=1)
    with pytest.raises(SnapshotError) as excinfo:
        pool.import_snapshot(SnapshotStore(path).load())
    assert excinfo.value.code == "snapshot_invalid"
    session = pool.session("bitvec")
    assert _table_sizes(session) == {name: 0 for name in _table_sizes(session)}
    # The session still answers queries after the failed import.
    assert session.check_equivalent("a := T", "a := T").equivalent


class TestRejection:
    def test_truncated_file(self, tmp_path):
        path = _donor_snapshot(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        _assert_rejected_cold(path)

    def test_corrupted_file(self, tmp_path):
        path = _donor_snapshot(tmp_path)
        path.write_bytes(b"\x00\xffnot json at all")
        _assert_rejected_cold(path)

    def test_version_bump(self, tmp_path):
        path = _donor_snapshot(tmp_path)
        payload = json.loads(path.read_text())
        payload["version"] += 1
        path.write_text(json.dumps(payload))
        _assert_rejected_cold(path)

    def test_foreign_magic(self, tmp_path):
        path = _donor_snapshot(tmp_path)
        payload = json.loads(path.read_text())
        payload["format"] = "someone-elses-cache"
        path.write_text(json.dumps(payload))
        _assert_rejected_cold(path)

    def test_theory_stamp_mismatch(self, tmp_path):
        path = _donor_snapshot(tmp_path)
        payload = json.loads(path.read_text())
        payload["sessions"]["bitvec"]["theory"] = "bitvec(z9)"
        path.write_text(json.dumps(payload))
        _assert_rejected_cold(path)

    def test_missing_file_is_plain_error_not_crash(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotStore(tmp_path / "nope.json").load()

    @pytest.mark.parametrize("mutate", [
        lambda pool: pool.append(["??", 0]),            # unknown tag
        lambda pool: pool.append(["*"]),                # wrong arity
        lambda pool: pool.append(["*", len(pool) + 5]),  # out-of-range ref
        lambda pool: pool.append(["*", True]),          # bool is not a ref
        lambda pool: pool.append("not-a-node"),         # non-list node
        lambda pool: pool.append([";", 0]),             # binary tag, one child
    ])
    def test_malformed_pool_node(self, tmp_path, mutate):
        path = _donor_snapshot(tmp_path)
        payload = json.loads(path.read_text())
        mutate(payload["sessions"]["bitvec"]["pool"])
        path.write_text(json.dumps(payload))
        # A node nothing references is still validated: the pool loads as a
        # unit, so junk anywhere in it must reject the whole snapshot.
        _assert_rejected_cold(path)

    def test_entry_reference_out_of_range(self, tmp_path):
        path = _donor_snapshot(tmp_path)
        payload = json.loads(path.read_text())
        state = payload["sessions"]["bitvec"]
        state["tables"]["norm"][0]["t"] = len(state["pool"]) + 7
        path.write_text(json.dumps(payload))
        _assert_rejected_cold(path)

    def test_failed_import_leaves_warm_caches_untouched(self, tmp_path):
        path = _donor_snapshot(tmp_path)
        pool = ShardedSessionPool(stripes=1)
        session = pool.session("bitvec")
        session.check_equivalent("(b := F)*", "(b := F)*; (b := F)*")
        before = _table_sizes(session)
        payload = json.loads(path.read_text())
        payload["sessions"]["bitvec"]["pool"].append(["??"])
        with pytest.raises(SnapshotError):
            pool.import_snapshot(payload)
        assert _table_sizes(session) == before
        assert session.check_equivalent("(b := F)*", "(b := F)*; (b := F)*").cached


# ---------------------------------------------------------------------------
# merging payloads from several contributors (stripes / worker processes)
# ---------------------------------------------------------------------------


class TestMergePayloads:
    def _payload(self, *pairs):
        pool = ShardedSessionPool(stripes=1)
        session = pool.session("bitvec")
        for left, right in pairs:
            session.check_equivalent(left, right)
        return pool.export_snapshot()

    def test_overlap_is_deduped_and_disjoint_union_kept(self):
        shared = ("(a := T)*", "(a := T)*; (a := T)*")
        one = self._payload(shared)
        two = self._payload(shared, ("(b := F)*", "(b := F)*; (b := F)*"))
        merged = merge_payloads([one, two])

        pool = ShardedSessionPool(stripes=1)
        counts = pool.import_snapshot(merged)["bitvec"]
        assert counts["equiv"] == 2  # the shared entry appears once
        warm = pool.session("bitvec")
        assert warm.check_equivalent(*shared).cached
        assert warm.check_equivalent("(b := F)*", "(b := F)*; (b := F)*").cached

    def test_merge_is_idempotent(self):
        payload = self._payload(("(a := T)*", "(a := T)*; (a := T)*"))
        once = json.dumps(merge_payloads([payload]), sort_keys=True)
        twice = json.dumps(merge_payloads([payload, payload]), sort_keys=True)
        assert once == twice

    def test_mismatched_theory_contributor_is_skipped(self):
        keep = self._payload(("(a := T)*", "(a := T)*; (a := T)*"))
        stale = json.loads(json.dumps(
            self._payload(("(b := F)*", "(b := F)*; (b := F)*"))))
        stale["sessions"]["bitvec"]["theory"] = "bitvec(stale)"
        merged = merge_payloads([keep, stale])
        counts = ShardedSessionPool(stripes=1).import_snapshot(merged)["bitvec"]
        assert counts["equiv"] == 1  # the stale contributor's entry is dropped

    def test_malformed_contributor_is_skipped_not_fatal(self):
        keep = self._payload(("(a := T)*", "(a := T)*; (a := T)*"))
        bad = json.loads(json.dumps(keep))
        bad["sessions"]["bitvec"]["pool"].append(["??"])
        merged = merge_payloads([bad, keep])
        # The malformed payload came first, so its session slot exists but
        # contributes nothing; the good contributor still lands.
        counts = ShardedSessionPool(stripes=1).import_snapshot(merged)["bitvec"]
        assert counts["equiv"] == 1


# ---------------------------------------------------------------------------
# checkpoint manager
# ---------------------------------------------------------------------------


class TestCheckpointManager:
    def test_cold_start_when_file_missing(self, tmp_path):
        pool = ShardedSessionPool(stripes=1)
        manager = CheckpointManager(
            SnapshotStore(tmp_path / "snap.json"),
            pool.export_snapshot, importer=pool.import_snapshot)
        assert manager.load() is None
        stats = manager.stats()
        assert stats["loads"] == 0
        manager.close()

    def test_final_checkpoint_on_close_and_reload(self, tmp_path):
        path = tmp_path / "snap.json"
        pool = ShardedSessionPool(stripes=1)
        pool.session("bitvec").check_equivalent("(a := T)*", "(a := T)*; (a := T)*")
        manager = CheckpointManager(
            SnapshotStore(path), pool.export_snapshot, importer=pool.import_snapshot)
        manager.close()  # final checkpoint even without start()
        assert path.exists()

        warm_pool = ShardedSessionPool(stripes=1)
        warm_manager = CheckpointManager(
            SnapshotStore(path), warm_pool.export_snapshot,
            importer=warm_pool.import_snapshot)
        counts = warm_manager.load()
        assert counts["bitvec"]["equiv"] == 1
        stats = warm_manager.stats()
        assert stats["loads"] == 1 and stats["loaded_entries"] > 0
        warm_manager.close()

    def test_corrupt_file_on_boot_is_logged_cold_start(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("garbage")
        pool = ShardedSessionPool(stripes=1)
        manager = CheckpointManager(
            SnapshotStore(path), pool.export_snapshot, importer=pool.import_snapshot)
        assert manager.load() is None  # lenient: boot must not die on a bad file
        assert manager.stats()["load_errors"] == 1
        manager.close()


# ---------------------------------------------------------------------------
# regression: torn stats reads
# ---------------------------------------------------------------------------


class TestStatsSnapshotConsistency:
    def test_counters_never_tear_under_concurrent_traffic(self):
        """``stats_snapshot`` is taken under the table lock, so an observer
        can never see a ``put`` whose leading ``miss`` it missed (the old
        attribute-by-attribute read could, making hit rates nonsensical)."""
        cache = LRUCache(maxsize=64, name="t")
        stop = threading.Event()
        torn = []

        def hammer(seed):
            for index in range(4000):
                key = (seed, index % 97)
                if cache.get(key) is None:
                    cache.put(key, index)

        def poll():
            while not stop.is_set():
                snap = cache.stats_snapshot()
                if snap["puts"] > snap["misses"]:
                    torn.append(snap)
                lookups = snap["hits"] + snap["misses"]
                expected = round(snap["hits"] / lookups, 4) if lookups else 0.0
                if snap["hit_rate"] != expected:
                    torn.append(snap)

        workers = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
        poller = threading.Thread(target=poll)
        poller.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        poller.join()
        assert torn == []


# ---------------------------------------------------------------------------
# decoded automata are plain values: the comparison fast path still fires
# ---------------------------------------------------------------------------


class TestImportedAutomataCompareByValue:
    def test_imported_automaton_takes_the_fast_path(self):
        donor = _session()
        donor.check_equivalent("(a := T + b := T)*", "(a := T)*; (b := T; (a := T)*)*")
        warm = _session()
        warm.import_state(json.loads(json.dumps(donor.export_state())))
        imported = warm.caches.aut.items_snapshot()
        assert imported
        for action, automaton in imported:
            fresh = compile_automaton(action)
            assert fresh is not automaton
            trace = activate(Trace())
            try:
                assert flat_compare(automaton, fresh) == (True, None)
            finally:
                deactivate()
            assert trace.counters.get("kernel_fastpath_hits") == 1
            assert "kernel_walk_fallbacks" not in trace.counters


# ---------------------------------------------------------------------------
# end to end: serve --snapshot restart, process-backend warm respawn
# ---------------------------------------------------------------------------


class TestServeSnapshotRestart:
    def _serve(self, monkeypatch, capsys, snapshot, lines):
        from repro.cli import main

        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["serve", "--workers", "2", "--snapshot", str(snapshot)])
        captured = capsys.readouterr()
        assert code == 0
        return [json.loads(line) for line in captured.out.splitlines()], captured.err

    def test_restart_answers_first_repeat_from_the_snapshot(
            self, monkeypatch, capsys, tmp_path):
        snapshot = tmp_path / "serve.json"
        query = record(op="equiv", theory="bitvec", id="q",
                       left="(b := T)*", right="(b := T)*; (b := T)*")

        replies, _ = self._serve(
            monkeypatch, capsys, snapshot, [query, record(op="quit")])
        first = next(r for r in replies if r.get("id") == "q")
        assert first["ok"] and first["result"]["equivalent"]
        assert snapshot.exists()  # final checkpoint on clean shutdown

        traced = json.loads(query)
        traced["trace"] = True
        replies, err = self._serve(
            monkeypatch, capsys, snapshot,
            [json.dumps(traced), record(op="stats", id="s"), record(op="quit")])
        assert "warm start" in err
        repeat = next(r for r in replies if r.get("id") == "q")
        assert repeat["ok"] and repeat["result"]["equivalent"]
        cache_deltas = repeat["trace"]["cache"]
        assert cache_deltas["equiv"]["hits"] >= 1, (
            f"first repeated query missed the imported equiv memo: {cache_deltas}")
        assert cache_deltas["equiv"]["misses"] == 0
        stats = next(r for r in replies if r.get("id") == "s")
        assert "snapshot" in json.dumps(stats)

    def test_checkpoint_interval_requires_snapshot(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--checkpoint-interval", "5"]) == 2


@pytest.mark.slow
class TestProcessBackendWarmRespawn:
    def test_sigkilled_worker_comes_back_warm(self):
        from repro.engine.server import QueryServer, ResponseSink

        server = QueryServer(workers=2, stripes=2, backend="process")
        server.start()
        assert server.wait_ready(timeout=120)
        try:
            responses = []
            sink = ResponseSink(lambda line: responses.append(json.loads(line)))

            def ask(obj):
                server.submit_line(json.dumps(obj), sink)
                server.wait_idle(timeout=120)

            query = {"op": "equiv", "theory": "bitvec",
                     "left": "(b := T)*", "right": "(b := T)*; (b := T)*"}
            ask(dict(query, id=1))
            assert responses[0]["ok"] and responses[0]["result"]["equivalent"]

            server.export_snapshot()  # arms the supervisor's warm payload

            for worker in server.backend.worker_info():
                os.kill(worker["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if server.wait_ready(timeout=120):
                    break
            assert server.backend.warm_restores >= 1
            assert server.backend.warm_restore_errors == 0

            responses.clear()
            ask(dict(query, id=2, trace=True))
            repeat = responses[0]
            assert repeat["ok"] and repeat["result"]["equivalent"]
            cache_deltas = repeat["trace"]["cache"]
            assert cache_deltas["equiv"]["hits"] >= 1, (
                f"respawned worker answered cold: {cache_deltas}")
        finally:
            server.shutdown(drain=True)
