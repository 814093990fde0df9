"""The traced run: per-layer metrics for one workload.

Two parts, both separate from the end-to-end run:

1. **In-process replay.**  The workload's stream is replayed through a
   thread-backend :class:`~repro.engine.server.QueryServer` in this process
   by a closed-loop client with the same window.  Passes alternate between
   untraced and traced; a traced pass wraps the public entry points of each
   layer with benchmark-owned spans (name, start, end, parent, request id),
   kept in memory and written to ``perfbench/out/`` at the end.  A layer's
   self time is its span minus its child spans; per request, the layers'
   self times plus ``unattributed`` add up to the request's wall time.  The
   difference between traced and untraced passes is the tracing overhead.
2. **Boundaries.**  The workload's real deployment is started with a router
   in front, and requests carrying ``"trace": true`` go once directly to the
   server and once through the router.  Client timestamps against the
   engine's own ``trace`` block give the socket, process-pipe and router-hop
   costs.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import threading
import time

from perfbench import deploy, streams

#: Layers in the order a request meets them; with ``unattributed`` they
#: partition each traced request's wall time.
LAYERS = ("request.decode", "server.intake", "server.queue", "request.exec_overhead",
          "parser", "while_parse", "analysis", "normalize", "signatures", "compile",
          "walk", "request.encode")
CACHE_TABLES = ("norm", "equiv", "sig", "aut", "prog", "sat_conj")


def _repro():
    src = deploy.source_dir(os.getcwd())
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.analysis.checks as checks
    import repro.core.compile as compile_mod
    import repro.core.decision as decision
    import repro.core.parser as parser
    import repro.core.pushback as pushback
    import repro.engine.server as server
    import repro.engine.session as session

    return checks, compile_mod, decision, parser, pushback, server, session


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Recorder:
    """Benchmark-owned spans around the engine's public entry points."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, request, extra)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = set()
            local.request = None
        return local

    def set_request(self, request_id):
        self._state().request = request_id

    def wrap(self, name, function, extra=None, request_of=None):
        recorder = self

        def wrapper(*args, **kwargs):
            state = recorder._state()
            if name in state.open:  # recursion inside the same layer
                return function(*args, **kwargs)
            if request_of is not None:
                state.request = request_of(args)
            span_id = next(recorder._ids)
            parent = state.stack[-1] if state.stack else None
            state.stack.append(span_id)
            state.open.add(name)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                state.open.discard(name)
            recorder.spans.append((span_id, name, start, end, parent, state.request,
                                   extra(args, result) if extra is not None else None))
            return result

        return wrapper

    def patch(self, owner, attribute, name, **options):
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def unpatch(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def install(recorder):
    checks, compile_mod, decision, parser, pushback, server, session = _repro()
    recorder.patch(server, "parse_request_line", "request.decode")
    recorder.patch(server.QueryServer, "submit_line", "server.intake")
    recorder.patch(server, "execute_record", "request.exec_overhead",
                   request_of=lambda args: args[1].get("id"))
    recorder.patch(server.ResponseSink, "emit", "request.encode",
                   request_of=lambda args: args[2].get("id"))
    recorder.patch(parser, "parse_term", "parser")
    recorder.patch(parser, "parse_pred", "parser")
    recorder.patch(checks, "parse_program", "while_parse")
    for op in ("verify", "prog_equiv", "dead_code"):
        recorder.patch(checks, op, "analysis")
    recorder.patch(pushback.Normalizer, "normalize", "normalize",
                   extra=lambda args, nf: len(nf))

    def signatures(args, result):
        explored = getattr(result, "signatures_explored", 0)
        return 0 if getattr(result, "cached", False) else explored

    for method in ("check_equivalent_nf", "check_inclusion_nf", "member_nf",
                   "member_nf_many", "is_empty_nf"):
        recorder.patch(decision.EquivalenceChecker, method, "signatures", extra=signatures)
    recorder.patch(session.EngineSession, "satisfiable", "signatures")
    recorder.patch(decision, "compile_automaton", "compile",
                   extra=lambda args, automaton: automaton.raw_states)
    recorder.patch(decision, "flat_compare", "walk",
                   extra=lambda args, _: ("compare", args[0], args[1]))
    recorder.patch(decision, "flat_includes", "walk",
                   extra=lambda args, _: ("includes", args[0], args[1]))
    recorder.patch(decision, "accepts_batch", "walk")
    recorder.patch(compile_mod.CompiledAutomaton, "accepts", "walk")


def _fast_path(kind, a, b):
    """Whether a walk is settled without a product search: the same or an
    identical canonical table (or, for inclusion, an empty left side)."""
    if a is b or (kind == "includes" and a.accepting == 0):
        return True
    return (a.n_states == b.n_states and a.accepting == b.accepting
            and a.sigma == b.sigma and a.delta == b.delta)


# ---------------------------------------------------------------------------
# in-process closed loop
# ---------------------------------------------------------------------------


class InProcessClient:
    """Closed-loop client feeding lines straight into ``submit_line``."""

    def __init__(self, server_mod, server, recorder=None):
        self.server = server
        self.recorder = recorder
        self._done = []
        self._cond = threading.Condition()
        self.sink = server_mod.ResponseSink(self._deliver)

    def _deliver(self, line):
        received = time.perf_counter()
        with self._cond:
            self._done.append((line, received))
            self._cond.notify()

    def run(self, queries, count=None, seconds=None, id_prefix="p"):
        """Returns ``(requests, elapsed, failed)``; ``requests`` maps each id
        to ``(sent, received)``."""
        queries = iter(queries)
        pending, requests = {}, {}
        failed = 0
        sent_count = 0
        started = time.perf_counter()
        stop_at = None if seconds is None else started + seconds

        def send():
            nonlocal sent_count
            query = next(queries)
            request_id = f"{id_prefix}{sent_count}"
            sent_count += 1
            line = streams.encode(query, request_id)
            if self.recorder is not None:
                self.recorder.set_request(request_id)
            sent = time.perf_counter()
            pending[request_id] = (query, sent)
            self.server.submit_line(line, self.sink)

        def more(now):
            if count is not None:
                return sent_count < count
            return now < stop_at

        for _ in range(deploy.WINDOW):
            send()
        while pending:
            with self._cond:
                while not self._done:
                    self._cond.wait()
                done, self._done = self._done, []
            for line, received in done:
                response = json.loads(line)
                query, sent = pending.pop(response["id"])
                requests[response["id"]] = (sent, received)
                if not streams.check(response, query.expect):
                    failed += 1
                if more(received):
                    send()
        return requests, time.perf_counter() - started, failed


def _cache_totals(pool):
    totals = {}
    for theory, block in pool.stats().items():
        if theory == "shared":
            continue
        for table, stats in block["tables"].items():
            entry = totals.setdefault(table, [0, 0, 0])
            entry[0] += stats["hits"]
            entry[1] += stats["misses"]
            entry[2] += stats["evictions"]
    return totals


def _diff(after, before):
    return {table: [a - b for a, b in zip(values, before.get(table, (0, 0, 0)))]
            for table, values in after.items()}


def in_process(workload, seed, seconds):
    """Alternating untraced/traced passes; returns the pass results."""
    *_, server_mod, _ = _repro()
    recorder = Recorder()
    passes = []   # (traced, requests, elapsed)
    cache = {}
    failed = attempted = 0
    shared = None
    warm_requests = {}
    if workload.warm:
        # The warm-up pass is traced too: it is where a replay workload's
        # parse/normalize/compile work happens at all.
        shared = server_mod.QueryServer(workers=2, backend="thread").start()
        warm = InProcessClient(server_mod, shared, recorder)
        install(recorder)
        try:
            warm_requests, _, bad = warm.run(streams.warm_replay(seed)[0],
                                             count=streams.WARM_SET_SIZE, id_prefix="warm")
        finally:
            recorder.unpatch()
        failed += bad
        attempted += len(warm_requests)
        cache = {table: list(values) for table, values in _cache_totals(shared.pool).items()}
    pairs = 3
    count = None
    # Pair k runs untraced then traced, pair k+1 traced then untraced, so
    # slow drift over the run cancels out of the comparison.
    order = [(k, traced) for k in range(pairs)
             for traced in ((False, True) if k % 2 == 0 else (True, False))]
    per_pass = seconds / len(order)
    for k, traced in order:
        server = shared or server_mod.QueryServer(workers=2, backend="thread").start()
        before = _cache_totals(server.pool)
        client = InProcessClient(server_mod, server, recorder if traced else None)
        if traced:
            install(recorder)
        # Same work on every pass, but fresh names: a pass must not reuse
        # the process-wide memo tables an earlier pass filled.
        tag = f"{'t' if traced else 'u'}{k}_"
        try:
            requests, elapsed, bad = client.run(
                workload.stream(seed, tag), count=count,
                seconds=None if count else per_pass, id_prefix=tag)
        finally:
            recorder.unpatch()
        # Every later pass sends as many requests as the first one did.
        count = count or len(requests)
        failed += bad
        attempted += len(requests)
        for table, values in _diff(_cache_totals(server.pool), before).items():
            entry = cache.setdefault(table, [0, 0, 0])
            for i, value in enumerate(values):
                entry[i] += value
        passes.append((traced, requests, elapsed))
        if shared is None:
            server.shutdown()
    if shared is not None:
        shared.shutdown()
    return recorder, passes, warm_requests, cache, attempted, failed


def attribute(recorder, requests):
    """Per-request self time of every layer, plus ``unattributed``.

    Returns ``(rows, counts)``: one ``{layer: ms}`` row per traced request
    (including ``wall`` and ``unattributed``), and per-layer counters.
    """
    by_id = {span[0]: span for span in recorder.spans}
    child_time = {}
    for span in recorder.spans:
        if span[4] is not None:
            child_time[span[4]] = child_time.get(span[4], 0.0) + (span[3] - span[2])
    per_request = {}
    counts = {"parser": 0, "while_parse": 0, "normalize": 0, "summands": 0,
              "signatures": 0, "states": 0, "walks": 0, "fast": 0}
    for span_id, name, start, end, parent, request, extra in recorder.spans:
        if request not in requests:
            continue
        entry = per_request.setdefault(request, {"spans": {}})
        self_time = (end - start) - child_time.get(span_id, 0.0)
        entry[name] = entry.get(name, 0.0) + self_time
        if name in ("server.intake", "request.exec_overhead", "request.encode"):
            entry["spans"][name] = (start, end)
        if name in ("parser", "while_parse", "normalize") and (
                parent is None or by_id[parent][1] != name):
            counts[name] += 1
        if name == "normalize":
            counts["summands"] += extra
        elif name == "signatures" and extra:
            counts["signatures"] += extra
        elif name == "compile":
            counts["states"] += extra
        elif name == "walk" and extra is not None:
            counts["walks"] += 1
            counts["fast"] += _fast_path(*extra)
    rows = []
    for request, (sent, received) in requests.items():
        entry = per_request.get(request, {"spans": {}})
        spans = entry["spans"]
        row = {layer: entry.get(layer, 0.0) for layer in LAYERS}
        intake = spans.get("server.intake")
        execute = spans.get("request.exec_overhead")
        encode = spans.get("request.encode")
        if encode is not None:
            # The response is delivered from inside ``emit``: what follows
            # the delivery is not part of this request's wall time.
            row["request.encode"] = max(0.0, min(encode[1], received) - encode[0])
        if intake is not None and execute is not None:
            # The worker may pick a request up before ``submit_line`` has
            # returned on the client thread: clip the overlap off intake.
            overlap = max(0.0, intake[1] - execute[0])
            row["server.intake"] -= overlap
            row["server.queue"] = max(0.0, execute[0] - intake[1])
        wall = received - sent
        row["wall"] = wall
        row["unattributed"] = wall - sum(row[layer] for layer in LAYERS)
        row["exec"] = (execute[1] - execute[0]) if execute is not None else 0.0
        rows.append(row)
    return rows, counts


# ---------------------------------------------------------------------------
# boundaries on the real deployment
# ---------------------------------------------------------------------------


def _traced(queries):
    for query in queries:
        yield streams.Query(dict(query.record, trace=True), query.expect)


def boundaries(workload, seed, seconds):
    """Socket, pipe and router-hop costs from ``"trace": true`` responses."""
    deployment = deploy.Deployment(os.getcwd(), workload.server_flags, routed=True)
    direct = routed = None
    attempted = failed = 0
    try:
        direct = deploy.Connection(deployment.server.port)
        routed = deploy.Connection(deployment.router.port)
        for conn in (direct, routed):
            tried, bad = deploy.wait_ready(conn, workload.theories)
            attempted += tried
            failed += bad
        if workload.warm:
            warm = deploy.closed_loop(direct, streams.warm_replay(seed)[0], id_prefix="warm")
            attempted += warm.attempted
            failed += warm.failed
        results = {}
        for label, conn in (("direct", direct), ("routed", routed)):
            stream = _traced(workload.stream(seed, f"b{label}_"))
            result = deploy.closed_loop(conn, stream, seconds / 2, keep=True, id_prefix=label)
            attempted += result.attempted
            failed += result.failed
            results[label] = result.responses
    finally:
        for conn in (direct, routed):
            if conn is not None:
                conn.close()
        deployment.stop()

    def overheads(responses):
        socket_ms, pipe_ms, retries = [], [], 0
        for _, response, latency in responses:
            block = response["trace"]
            socket_ms.append(latency * 1000.0 - block["total_ms"])
            pipe_ms.append(block["total_ms"] - block["queue_ms"] - block["exec_ms"])
            retries += bool(response.get("retries"))
        return socket_ms, pipe_ms, retries

    direct_socket, direct_pipe, _ = overheads(results["direct"])
    routed_socket, _, retries = overheads(results["routed"])
    return {
        "socket.overhead_ms_p50": statistics.median(direct_socket),
        "server.pipe_ms": statistics.mean(direct_pipe),
        "router.hop_ms_p50": statistics.median(routed_socket) - statistics.median(direct_socket),
        "router.retries": retries,
    }, attempted, failed


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def _write_spans(workload, seed, recorder):
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{workload.name}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, request, _ in recorder.spans:
            handle.write(json.dumps([span_id, name, round(start, 7), round(end, 7),
                                     parent, request]) + "\n")
    return path


def traced(workload, seed, seconds):
    recorder, passes, traced_requests, cache, attempted, failed = in_process(
        workload, seed, seconds * 0.6)
    for traced_pass, requests, _ in passes:
        if traced_pass:
            traced_requests.update(requests)
    rows, counts = attribute(recorder, traced_requests)
    spans_path = _write_spans(workload, seed, recorder)
    bounds, tried, bad = boundaries(workload, seed, seconds * 0.4)
    attempted += tried
    failed += bad

    n = len(rows)

    def mean(layer):
        return sum(row[layer] for row in rows) * 1000.0 / n

    def p50(layer):
        return statistics.median(row[layer] for row in rows) * 1000.0

    rate = {traced_pass: [] for traced_pass in (False, True)}
    for traced_pass, requests, elapsed in passes:
        rate[traced_pass].append(elapsed / len(requests))
    overhead = (statistics.median(rate[True]) / statistics.median(rate[False]) - 1) * 100.0
    wall = sum(row["wall"] for row in rows)
    metrics = {
        "request.wall_ms": (mean("wall"), "ms"),
        "request.decode_ms": (mean("request.decode"), "ms"),
        "server.intake_ms": (mean("server.intake"), "ms"),
        "server.queue_wait_ms": (mean("server.queue"), "ms"),
        "request.exec_overhead_ms": (mean("request.exec_overhead"), "ms"),
        "parser.self_ms": (mean("parser"), "ms"),
        "parser.calls_per_query": (counts["parser"] / n, "count"),
        "while_parse.self_ms": (mean("while_parse"), "ms"),
        "while_parse.calls_per_query": (counts["while_parse"] / n, "count"),
        "analysis.self_ms": (mean("analysis"), "ms"),
        "normalize.self_ms": (mean("normalize"), "ms"),
        "normalize.calls_per_query": (counts["normalize"] / n, "count"),
        "normalize.summands_per_call": (
            counts["summands"] / counts["normalize"] if counts["normalize"] else 0.0, "count"),
        "signatures.self_ms": (mean("signatures"), "ms"),
        "signatures.per_query": (counts["signatures"] / n, "count"),
        "compile.self_ms": (mean("compile"), "ms"),
        "compile.states_per_query": (counts["states"] / n, "count"),
        "walk.self_ms": (mean("walk"), "ms"),
        "walk.fastpath_share": (counts["fast"] / counts["walks"] if counts["walks"] else 0.0,
                                "ratio"),
        "request.encode_ms": (mean("request.encode"), "ms"),
        "trace.unattributed_ms": (mean("unattributed"), "ms"),
        "trace.unattributed_share": (sum(row["unattributed"] for row in rows) / wall, "ratio"),
        "trace.overhead_pct": (overhead, "%"),
        "server.queue_ms_p50": (p50("server.queue"), "ms"),
        "server.exec_ms_p50": (p50("exec"), "ms"),
        "server.pipe_ms": (bounds["server.pipe_ms"], "ms"),
        "socket.overhead_ms_p50": (bounds["socket.overhead_ms_p50"], "ms"),
        "router.hop_ms_p50": (bounds["router.hop_ms_p50"], "ms"),
        "router.retries": (bounds["router.retries"], "count"),
    }
    for table in CACHE_TABLES:
        hits, misses, _ = cache.get(table, (0, 0, 0))
        metrics[f"cache.hit_ratio.{table}"] = (hits / (hits + misses) if hits + misses else 0.0,
                                               "ratio")
    evictions = sum(values[2] for values in cache.values())
    replayed = len(traced_requests) + sum(
        len(requests) for traced_pass, requests, _ in passes if not traced_pass)
    metrics["cache.evictions_per_query"] = (evictions / replayed, "count")
    layer_sum = sum(mean(layer) for layer in LAYERS) + mean("unattributed")
    detail = {
        "traced_requests": n,
        "passes": [(traced_pass, len(requests), elapsed)
                   for traced_pass, requests, elapsed in passes],
        "layer_sum_ms": layer_sum,
        "wall_ms": mean("wall"),
        "spans": os.path.relpath(spans_path),
        "cache": cache,
    }
    return attempted, failed, metrics, detail
