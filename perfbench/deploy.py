"""Real deployments under test: `kmt serve` / `kmt route` subprocesses, the
closed-loop client that drives them, and process-tree accounting from /proc.

Everything here talks to the engine only through its command line and its
TCP protocol, the way a user's client would.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

from perfbench import streams

HOST = "127.0.0.1"
#: Requests the client keeps outstanding (the machine has 2 CPUs).
WINDOW = 2
_LISTENING = re.compile(r"^# (?:listening|routing) on [^:]+:(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def source_dir(root):
    return os.path.join(root, "src")


class Process:
    """One `python -m repro ...` subprocess whose stderr announces its port."""

    def __init__(self, root, args, ready_timeout=60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = source_dir(root)
        self.popen = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], cwd=root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        self.port = None
        self.stderr = []
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._announced.wait(ready_timeout) or self.port is None:
            self.stop()
            raise RuntimeError(f"`repro {' '.join(args)}` did not start: "
                               + "".join(self.stderr[-20:]))

    def _drain(self):
        for line in self.popen.stderr:
            self.stderr.append(line)
            match = _LISTENING.match(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._announced.set()
        self._announced.set()  # EOF: the process died before announcing

    @property
    def pid(self):
        return self.popen.pid

    def stop(self, timeout=30.0):
        """SIGTERM (the CLI drains and exits), then SIGKILL; always reaped."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        self._reader.join(timeout)


class Deployment:
    """A server, optionally behind a router; the client connects to `port`."""

    def __init__(self, root, server_flags, routed=False):
        self.processes = []
        try:
            self.server = self._spawn(root, ["serve", "--socket", f"{HOST}:0", *server_flags])
            self.router = None
            if routed:
                self.router = self._spawn(root, [
                    "route", "--socket", f"{HOST}:0",
                    "--backend", f"{HOST}:{self.server.port}"])
        except BaseException:
            self.stop()
            raise
        self.port = (self.router or self.server).port

    def _spawn(self, root, args):
        process = Process(root, args)
        self.processes.append(process)
        return process

    def stop(self):
        # Front to back: the router drains into live backends.
        for process in reversed(self.processes):
            process.stop()

    def tree(self):
        """Every live pid of the deployment: roots plus all descendants,
        found now (process-backend workers are children of the server)."""
        return process_tree([process.pid for process in self.processes])


# ---------------------------------------------------------------------------
# /proc accounting
# ---------------------------------------------------------------------------


def _stat_fields(pid):
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read().decode("ascii", "replace")
    # The command name may contain spaces; fields resume after its ')'.
    return data[data.rindex(")") + 2:].split()


def process_tree(roots):
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(entry)[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while scanning
        children.setdefault(parent, []).append(int(entry))
    seen, stack = [], list(roots)
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.append(pid)
        stack.extend(children.get(pid, ()))
    return seen


def cpu_seconds(pids):
    """User + system CPU of the given processes (exited ones count zero)."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLK_TCK


def peak_rss_mb(pids):
    """Largest VmHWM (peak resident set) among the given processes."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak / 1024.0


# ---------------------------------------------------------------------------
# the closed-loop client
# ---------------------------------------------------------------------------


class Connection:
    """One TCP connection speaking the JSONL protocol."""

    def __init__(self, port, timeout=120.0):
        self.sock = socket.create_connection((HOST, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, line):
        self.sock.sendall(line.encode("utf-8") + b"\n")

    def recv(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, record):
        self.send(json.dumps(record))
        return self.recv()

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.reader.close()
        self.sock.close()


class LoopResult:
    def __init__(self):
        self.latencies = []     # seconds, one per answered request
        self.completions = []   # receive times (perf_counter), same order
        self.attempted = 0
        self.errors = 0         # "ok": false responses
        self.wrong = 0          # answered, but not with the known verdict
        self.unmatched = 0      # missing, duplicated or unknown ids
        self.started = 0.0      # perf_counter at the first send
        self.elapsed = 0.0
        self.responses = []     # (query, response, latency) when kept

    @property
    def failed(self):
        return self.errors + self.wrong + self.unmatched


def closed_loop(conn, queries, seconds=None, id_prefix="r", keep=False):
    """Send ``queries`` keeping :data:`WINDOW` requests outstanding.

    Stops sending when ``queries`` runs out or ``seconds`` have passed, then
    waits for the requests still outstanding.  Every response is checked
    against its query's known verdict.
    """
    result = LoopResult()
    pending = {}
    queries = iter(queries)
    clock = time.perf_counter
    started = result.started = clock()
    stop_at = None if seconds is None else started + seconds
    exhausted = False

    def send_next():
        nonlocal exhausted
        query = next(queries, None)
        if query is None:
            exhausted = True
            return
        request_id = f"{id_prefix}{result.attempted}"
        result.attempted += 1
        line = streams.encode(query, request_id)
        pending[request_id] = (query, clock())
        conn.send(line)

    for _ in range(WINDOW):
        send_next()
    while pending:
        response = conn.recv()
        received = clock()
        entry = pending.pop(response.get("id"), None)
        if entry is None:
            result.unmatched += 1
            continue
        query, sent = entry
        latency = received - sent
        result.latencies.append(latency)
        result.completions.append(received)
        if not response.get("ok"):
            result.errors += 1
        elif not streams.check(response, query.expect):
            result.wrong += 1
        if keep:
            result.responses.append((query, response, latency))
        if not exhausted and (stop_at is None or received < stop_at):
            send_next()
    result.elapsed = clock() - started
    return result


# ---------------------------------------------------------------------------
# readiness
# ---------------------------------------------------------------------------


def _probe(theory, index):
    """A cheap real query with a fresh name; satisfiable by construction."""
    if theory == "bitvec":
        pred = f"probe{index} = T"
    elif theory == "netkat":
        pred = f"probe{index} = {index}"
    elif theory == "sets":
        pred = f"i > {index}"
    else:
        pred = f"probe{index} > {index}"
    return streams.Query({"op": "sat", "theory": theory, "pred": pred},
                         {"satisfiable": True})


def wait_ready(conn, theories, probes_per_theory=4, max_rounds=16):
    """Block until every worker has answered a real query.

    A ``ping`` only proves the front end is up; a process-backend worker
    pays its spawn and import cost on its first real query.  Sends distinct
    cheap queries for every theory the workload uses (which also builds the
    per-stripe sessions) until the ``stats`` op shows every worker process
    has served one.  Returns ``(attempted, failed)`` over the probes.
    """
    attempted = failed = 0
    index = 0
    for _ in range(max_rounds):
        probes = []
        for theory in theories:
            for _ in range(probes_per_theory):
                probes.append(_probe(theory, index))
                index += 1
        result = closed_loop(conn, probes, id_prefix=f"ready{index}_")
        attempted += result.attempted
        failed += result.failed
        stats = conn.request({"op": "stats", "id": "ready-stats"})
        workers = stats.get("result", {}).get("server", {}).get("process_workers")
        if not workers or all(worker.get("requests", 0) > 0 for worker in workers):
            return attempted, failed
    raise RuntimeError("workers did not all answer a real query")
