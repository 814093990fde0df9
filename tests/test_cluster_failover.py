"""End-to-end cluster failover: real ``kmt serve --socket`` subprocesses
behind the in-process :class:`~repro.engine.router.Router`.

Reuses the PR-4 differential soak harness (``make_soak_workload`` and the
path-independent response projection) to prove the distributed story keeps
the single-server contract: a SIGKILL'd backend mid-soak costs at most
retried responses — never a lost or duplicated id, never a diverging
verdict — and a backend restarted with ``--snapshot`` rejoins the ring and
answers its first repeat from the warm cache.
"""

import contextlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.router import Router
from repro.engine.server import ResponseSink, affinity_hash

from test_server_backends import (
    ORACLE_SPEC,
    SCALING_ORACLE_MS,
    available_cpus,
    comparable_response,
    make_oracle_workload,
    make_soak_workload,
    run_path_batch,
    serve_timed,
)

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class ListSink(ResponseSink):
    def __init__(self):
        self.responses = []
        super().__init__(lambda line: self.responses.append(json.loads(line)))


class BackendProc:
    """One ``kmt serve --socket`` subprocess, announced port parsed from
    stderr; the rest of stderr is drained (and kept) on a daemon thread."""

    def __init__(self, *extra_args, port=0, workers=2):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", f"127.0.0.1:{port}", "--workers", str(workers),
             *extra_args],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
        self.stderr_lines = []
        self.port = None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                raise AssertionError(
                    "backend exited before announcing its port:\n"
                    + "".join(self.stderr_lines))
            self.stderr_lines.append(line)
            if line.startswith("# listening on "):
                self.port = int(line.split()[3].rsplit(":", 1)[1])
                break
        assert self.port is not None, "backend never announced its port"
        self.key = f"127.0.0.1:{self.port}"
        threading.Thread(target=self._drain, daemon=True).start()

    def _drain(self):
        for line in self.proc.stderr:
            self.stderr_lines.append(line)

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=30)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def _wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def _core(response):
    """The path-independent projection, minus the router's retry marker."""
    out = comparable_response(response)
    out.pop("retries", None)
    return out


def _backend_state(router, key):
    return router.router_stats()["backends"][key]["state"]


@pytest.mark.slow
def test_two_backends_beat_one_under_solver_latency(monkeypatch):
    """Each backend is its own process, so a second one adds both oracle-wait
    overlap and a core; the router must turn that into throughput."""
    cpus = available_cpus()
    if cpus < 2:
        pytest.skip("1 CPU available: a 2-process parallel speedup is impossible")
    monkeypatch.setenv("KMT_TEST_ORACLE_DELAY_MS", str(SCALING_ORACLE_MS))
    monkeypatch.setenv("KMT_TEST_ORACLE_THEORIES", "")  # every theory
    best = {}
    with contextlib.ExitStack() as stack:
        backends = []
        for _ in range(3):
            backends.append(BackendProc("--theory-factory", ORACLE_SPEC, workers=4))
            stack.callback(backends[-1].stop)
        clusters = {}
        for size, members in ((1, backends[:1]), (2, backends[1:])):
            router = Router([("127.0.0.1", backend.port) for backend in members],
                            probe_interval=0.3)
            router.start()
            stack.callback(router.shutdown, drain=False)
            assert router.wait_all_up(timeout=60.0)
            clusters[size] = router
        # Best of two, interleaved; each repeat's workload is new to every
        # backend, and the two clusters share none.
        for repeat in range(2):
            lines = make_oracle_workload(offset=100 * repeat)
            answers = {}
            for size, router in clusters.items():
                elapsed, responses = serve_timed(router, lines)
                answers[size] = {key: _core(response) for key, response in responses.items()}
                best[size] = min(best.get(size, elapsed), elapsed)
            assert answers[2] == answers[1]
    speedup = best[1] / best[2]
    print(f"cluster_2 over cluster_1 on {cpus} CPUs: {speedup:.2f}x")
    assert speedup >= 1.0, f"2 backends slower than 1 ({speedup:.2f}x)"


class TestClusterFailoverSoak:
    def test_sigkill_mid_soak_loses_nothing(self):
        """The 200-request differential soak through the router, with one
        backend SIGKILL'd while its queue is full of in-flight work."""
        lines = make_soak_workload()
        reference = {r["id"]: _core(r) for r in run_path_batch(lines)}

        victim = BackendProc()
        survivor = BackendProc()
        router = Router([("127.0.0.1", victim.port), ("127.0.0.1", survivor.port)],
                        probe_interval=0.3, max_retries=2)
        router.start()
        try:
            assert router.wait_all_up(timeout=30.0)
            sink = ListSink()
            for line in lines[:80]:
                router.submit_line(line, sink)
            victim.sigkill()  # mid-soak, with dispatched-but-unanswered work
            for line in lines[80:]:
                router.submit_line(line, sink)
            assert router.wait_idle(timeout=120.0)

            # Exact id accounting: nothing lost, nothing answered twice.
            expected = sorted(json.loads(line)["id"] for line in lines)
            assert sorted(r["id"] for r in sink.responses) == expected

            # Every non-backend_down response matches the single-process
            # batch reference exactly (modulo cache-history fields).
            downs = []
            for response in sink.responses:
                if response.get("error_code") == "backend_down":
                    downs.append(response)
                    continue
                assert _core(response) == reference[response["id"]], (
                    f"{response['id']} diverges from the batch reference")
            # Two backends, two retries of budget: the survivor absorbs
            # everything the victim dropped.
            assert downs == []

            retried = [r for r in sink.responses if r.get("retries")]
            assert retried, "the kill window produced no retried responses"
            assert all(r["retries"] >= 1 for r in retried)

            stats = router.router_stats()
            assert stats["backends"][victim.key]["state"] == "down"
            assert stats["backends"][victim.key]["ejections"] >= 1
            assert stats["requests"]["retried"] >= len(retried)
        finally:
            router.shutdown(drain=False)
            survivor.stop()
            victim.stop()

    def test_snapshot_backend_rejoins_warm(self, tmp_path):
        """Kill -9 a ``--snapshot`` backend, restart it on the same port:
        the router re-admits it and its caches come back warm."""
        snapshot = str(tmp_path / "cluster.kmtsnap")
        probe = {"op": "equiv", "theory": "incnat", "id": "warm0",
                 "left": "inc(x); x > 4", "right": "x > 3; inc(x)"}

        backend = BackendProc("--snapshot", snapshot, "--checkpoint-interval", "0.2")
        port = backend.port
        router = Router([("127.0.0.1", port)], probe_interval=0.3)
        router.start()
        try:
            assert router.wait_all_up(timeout=30.0)
            sink = ListSink()
            router.submit_line(json.dumps(probe), sink)
            assert router.wait_idle(timeout=30.0)
            (first,) = sink.responses
            assert first["ok"] is True and not first["result"].get("cached")

            # Let a background checkpoint capture the now-warm cache, then
            # die without any chance of a clean final save.
            _wait_for(lambda: os.path.exists(snapshot) and os.path.getsize(snapshot) > 0,
                      message="background checkpoint")
            time.sleep(0.5)  # one more interval: the checkpoint includes warm0
            backend.sigkill()
            _wait_for(lambda: _backend_state(router, backend.key) == "down",
                      message="router to eject the killed backend")

            reborn = BackendProc("--snapshot", snapshot, port=port)
            assert reborn.port == port
            assert any("# warm start:" in line for line in reborn.stderr_lines), (
                "restarted backend did not warm-start from the snapshot:\n"
                + "".join(reborn.stderr_lines))
            _wait_for(lambda: _backend_state(router, backend.key) == "up",
                      message="router to re-admit the restarted backend")

            repeat = dict(probe, id="warm1")
            sink = ListSink()
            router.submit_line(json.dumps(repeat), sink)
            assert router.wait_idle(timeout=30.0)
            (second,) = sink.responses
            assert second["ok"] is True
            assert second["result"]["equivalent"] is True
            assert second["result"].get("cached") is True, (
                "first repeat after rejoin was not served from the warm cache")

            stats = router.router_stats()
            assert stats["backends"][backend.key]["ejections"] >= 1
            counters = router.metrics.snapshot()["counters"]
            assert "router_rejoins_total" in counters
            rejoin_total = sum(e["value"] for e in counters["router_rejoins_total"])
            assert rejoin_total >= 2  # initial join + post-restart rejoin
        finally:
            router.shutdown(drain=False)
            backend.stop()
            try:
                reborn.stop()
            except NameError:
                pass
