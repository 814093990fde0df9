"""Command-line interface: the paper's term-partitioning tool plus utilities.

Usage (installed as the ``kmt`` console script, also ``python -m repro``)::

    kmt --theory incnat equiv  "inc(x)*; x > 10" "inc(x)*; inc(x)*; x > 10"
    kmt --theory incnat incl   "inc(x)" "inc(x) + inc(y)"
    kmt --theory incnat member "(inc(x))*; x > 1" "inc(x)" "inc(x)"
    kmt --theory bitvec norm   "x = F; (flip x; flip x)*"
    kmt --theory incnat sat    "x > 5; ~(x > 3)"
    kmt --theory incnat classes terms.txt        # one term per line, '#' comments
    kmt --theory incnat verify "i < 2" @prog.while "j > 5"
    kmt --theory incnat prog-equiv "skip;" "if (i > 0) {} else {}"
    kmt --theory incnat dead-code @prog.while    # per-statement reachability
    kmt batch   queries.jsonl                    # JSONL batch over engine sessions
    kmt serve                                    # stdin/stdout JSONL serve loop

``classes`` mirrors the paper's command-line tool: given KMT terms in some
supported theory, it partitions them into equivalence classes.  ``batch`` and
``serve`` run the :mod:`repro.engine` front end: persistent per-theory
sessions with memoized normalization/decision caches (see the module docs of
:mod:`repro.engine.batch` for the request/response schema).

The one-shot verbs ``equiv``, ``incl``, ``member``, ``norm``, ``sat``,
``verify``, ``prog-equiv`` and ``dead-code`` are that protocol too: each
builds one request record and answers it through
:func:`repro.engine.server.execute_record`, the function behind every batch
and serve worker, so a query gets the same answer and the same errors on
every path.  ``classes`` and ``run`` are not protocol ops and call
:class:`~repro.core.kmt.KMT` directly.

Exit codes: 0 means yes (equivalent, valid, satisfiable, no dead code, ...),
1 means no, and 2 means the query could not be answered — a usage error, an
unreadable file, an unknown theory, a parse error, a budget overrun or input
nested too deeply — reported as one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.kmt import KMT
from repro.engine.batch import classify_query_error
from repro.engine.server import execute_record
from repro.engine.session import ShardedSessionPool
from repro.theories import build_theory  # noqa: F401  (re-exported; tests import it here)
from repro.utils.errors import KmtError, caret_frame


def _make_kmt(args):
    return KMT(build_theory(args.theory), budget=args.budget)


def _open_file(path, binary=False):
    """Open a file argument for reading (UTF-8 text, or bytes with ``binary``);
    an unreadable one is a usage error."""
    try:
        return open(path, "rb") if binary else open(path, "r", encoding="utf-8")
    except OSError as error:
        raise KmtError(f"cannot read {path}: {error.strerror or error}") from None


def _read_text(path):
    """The whole text of a file argument; undecodable text is a usage error."""
    with _open_file(path) as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as error:
            raise KmtError(f"cannot read {path}: not UTF-8 text ({error.reason})") from None


def _one_shot(op, fields, render, programs=()):
    """A one-shot verb: one protocol record through :func:`execute_record`.

    The record's ``fields`` are the parsed arguments of the same names (those
    in ``programs`` may be ``@path``).  It runs on a fresh one-stripe pool,
    exactly as ``kmt batch`` would run it; an error response becomes a
    ``KmtError`` (exit 2), and ``render(record, result, elapsed, pool)``
    prints an ok one and returns the exit code.
    """
    def command(args):
        record = {"op": op, "theory": args.theory}
        for field in fields:
            value = getattr(args, field)
            if field in programs and value.startswith("@"):
                value = _read_text(value[1:])
            record[field] = value
        pool = ShardedSessionPool(stripes=1, budget=args.budget)
        started = time.perf_counter()
        response = execute_record(pool, record, args.theory, 0)
        elapsed = time.perf_counter() - started
        if not response["ok"]:
            raise KmtError(response["error"])
        return render(record, response["result"], elapsed, pool)

    return command


def _show_equiv(record, result, elapsed, pool):
    verdict = "equivalent" if result["equivalent"] else "NOT equivalent"
    print(f"{verdict}  ({elapsed:.3f}s, {result['cells_explored']} cells explored, "
          f"{result['signatures_explored']} signatures)")
    if "counterexample" in result:
        print("counterexample:", result["counterexample"])
    return 0 if result["equivalent"] else 1


def _show_inclusion(record, result, elapsed, pool):
    verdict = "included" if result["includes"] else "NOT included"
    print(f"{verdict}  ({elapsed:.3f}s, {result['cells_explored']} cells explored, "
          f"{result['signatures_explored']} signatures)")
    if "counterexample" in result:
        print("witness:", result["counterexample"])
    return 0 if result["includes"] else 1


def _show_member(record, result, elapsed, pool):
    print(f"{'member' if result['member'] else 'NOT a member'}  ({elapsed:.3f}s)")
    return 0 if result["member"] else 1


def _show_norm(record, result, elapsed, pool):
    print(result["normal_form"])
    steps = pool.session(record["theory"]).stats()["session"]["normalization_steps"]
    print(f"# {result['summands']} summands, {steps} pushback steps", file=sys.stderr)
    return 0


def _show_sat(record, result, elapsed, pool):
    print("satisfiable" if result["satisfiable"] else "unsatisfiable")
    return 0 if result["satisfiable"] else 1


def cmd_classes(args):
    kmt = _make_kmt(args)
    lines = []
    for raw in _read_text(args.file).split("\n"):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    terms = [kmt.parse(line) for line in lines]
    classes = kmt.partition(terms)
    for class_index, members in enumerate(classes):
        print(f"class {class_index}:")
        for member in members:
            print(f"  {lines[member]}")
    return 0


def _show_verify(record, result, elapsed, pool):
    if result["holds"]:
        print(f"valid  ({elapsed:.3f}s, {result['cells_explored']} cells explored)")
        return 0
    print(f"INVALID  ({elapsed:.3f}s, {result['cells_explored']} cells explored)")
    if "counterexample" in result:
        print("counterexample:", result["counterexample"])
    if result.get("witness_trace"):
        print("witness trace:", " ; ".join(result["witness_trace"]))
    return 1


def _show_prog_equiv(record, result, elapsed, pool):
    verdict = "equivalent" if result["equivalent"] else "NOT equivalent"
    print(f"{verdict}  ({elapsed:.3f}s, {result['cells_explored']} cells explored)")
    if "counterexample" in result:
        print("counterexample:", result["counterexample"])
    return 0 if result["equivalent"] else 1


def _show_dead_code(record, result, elapsed, pool):
    for entry in result["statements"]:
        marker = "DEAD" if entry["dead"] else "  ok"
        span = entry.get("span")
        loc = f"{span['line']}:{span['column']}" if span else "-"
        print(f"{marker}  {loc:>6}  {entry['text']}")
        if entry["dead"] and span is not None:
            print(caret_frame(record["program"], span["start"], prefix="      | "))
        reason = entry.get("reason")
        if reason is not None:
            where = reason.get("span")
            at = f" (at {where['line']}:{where['column']})" if where else ""
            if reason["kind"] == "guard":
                polarity = "~" if reason["negated"] else ""
                print(f"      reason: guard {polarity}({reason['guard']}){at}")
            else:
                detail = f" {reason['guard']}" if "guard" in reason else ""
                print(f"      reason: {reason['kind']}{detail}{at}")
    print(f"# {result['dead']} dead of {result['total']} statements ({elapsed:.3f}s)",
          file=sys.stderr)
    return 1 if result["dead"] else 0


def cmd_run(args):
    kmt = _make_kmt(args)
    traces = kmt.run(args.term)
    if not traces:
        print("no traces (the program rejects the initial state)")
        return 1
    for trace in sorted(traces, key=lambda t: (len(t), repr(t))):
        actions = " ; ".join(str(entry.action) for entry in trace if entry.action is not None)
        print(f"[{len(trace) - 1} steps] {actions or '<no actions>'}  ->  {trace.last_state!r}")
    return 0


def _configure_observability(args):
    """Point the ``kmt.*`` JSON-lines log at stderr or ``--log-file``.

    Logging stays silent unless one of the observability flags is given;
    ``--slow-query-ms`` alone implies logging (its events must land
    somewhere), at the default ``info`` level on stderr.
    """
    if args.log_level is None and args.log_file is None \
            and getattr(args, "slow_query_ms", None) is None:
        return
    from repro.engine.telemetry import configure_logging

    configure_logging(args.log_level or "info", args.log_file)


def cmd_batch(args):
    import contextlib
    import json

    from repro.engine.server import run_batch_lines

    _configure_observability(args)
    # The input is streamed into the server one line at a time instead of
    # readlines() — no duplicate raw-text buffer for `kmt batch -` on a large
    # pipe.  (Responses are still materialized: the batch contract answers
    # strictly in input order after executing everything.)  Lines stay bytes
    # until the protocol decodes each one on its own, so a line that is not
    # UTF-8 gets one malformed_request answer instead of ending the stream.
    if args.file == "-":
        source = contextlib.nullcontext(getattr(sys.stdin, "buffer", sys.stdin))
    else:
        source = _open_file(args.file, binary=True)
    started = time.perf_counter()
    with source as lines:
        responses, pool = run_batch_lines(
            lines, default_theory=args.theory, budget=args.budget, jobs=args.jobs,
            slow_query_ms=args.slow_query_ms)
    elapsed = time.perf_counter() - started
    for response in responses:
        print(json.dumps(response, sort_keys=True))
    failures = sum(1 for response in responses if not response.get("ok"))
    print(
        f"# {len(responses)} responses ({failures} errors) in {elapsed:.3f}s",
        file=sys.stderr,
    )
    if args.stats:
        print(json.dumps(pool.stats(), indent=2, sort_keys=True), file=sys.stderr)
    return 0 if failures == 0 else 1


def _parse_host_port(text, flag="--socket"):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise KmtError(f"{flag} expects HOST:PORT, got {text!r}")
    return host, int(port)


def cmd_serve(args):
    import signal
    import threading

    _configure_observability(args)
    if args.checkpoint_interval is not None and not args.snapshot:
        print("error: --checkpoint-interval requires --snapshot PATH", file=sys.stderr)
        return 2

    def _make_manager(exporter, importer, metrics=None):
        if not args.snapshot:
            return None
        from repro.engine.persist import CheckpointManager, SnapshotStore

        return CheckpointManager(
            SnapshotStore(args.snapshot), exporter, importer=importer,
            interval=args.checkpoint_interval, metrics=metrics,
        )

    from repro.engine.server import QueryServer, SocketServer, serve_stdio

    server = QueryServer(
        workers=args.workers, stripes=args.stripes, queue_limit=args.queue_limit,
        default_theory=args.theory, budget=args.budget, backend=args.backend,
        slow_query_ms=args.slow_query_ms, theory_factory_spec=args.theory_factory,
    )
    manager = _make_manager(server.export_snapshot, server.import_snapshot,
                            metrics=server.metrics)
    server.snapshot_manager = manager

    exporter = None
    if args.metrics:
        from repro.engine.telemetry import MetricsExporter

        metrics_host, metrics_port = _parse_host_port(args.metrics, flag="--metrics")
        exporter = MetricsExporter(server.metrics_prometheus,
                                   host=metrics_host, port=metrics_port)
        exporter.start()
        print(f"# metrics on http://{exporter.host}:{exporter.port}/metrics",
              file=sys.stderr)

    class _Terminated(Exception):
        pass

    def _on_sigterm(_signum, _frame):
        raise _Terminated()

    # SIGTERM drains gracefully: in-flight requests answer before exit.  Only
    # installable from the main thread (tests drive cmd_serve from workers).
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _on_sigterm)

    if manager is not None:
        # Boot order matters: workers must be up (process backend) before the
        # snapshot import crosses the pipes.  A missing/invalid snapshot is a
        # logged cold start, never a startup failure.
        server.start()
        server.wait_ready(timeout=120)
        counts = manager.load()
        if counts is not None:
            total = sum(sum(tables.values()) for tables in counts.values())
            print(f"# warm start: {total} cache entries from {args.snapshot}",
                  file=sys.stderr)
        manager.start()

    if args.socket:
        host, port = _parse_host_port(args.socket)
        socket_server = SocketServer(server, host=host, port=port, ordered=args.ordered)
        socket_server.start()
        print(f"# listening on {host}:{socket_server.port} "
              f"({args.workers} {args.backend} workers, {server.stripes} stripes)",
              file=sys.stderr)
        try:
            threading.Event().wait()  # serve until SIGTERM / SIGINT
        except (_Terminated, KeyboardInterrupt):
            pass
        finally:
            if manager is not None:
                # Final checkpoint needs live workers: drain in-flight work,
                # save, then tear the backend down.
                server.drain()
                manager.close()
            socket_server.close(drain=True)
            if exporter is not None:
                exporter.close()
            print("# drained and stopped", file=sys.stderr)
        return 0

    try:
        served = serve_stdio(sys.stdin, sys.stdout, server, ordered=args.ordered)
    except _Terminated:
        served = None
    finally:
        if manager is not None:
            server.wait_idle(timeout=60)
            manager.close()
        server.shutdown(drain=True)
        if exporter is not None:
            exporter.close()
    if served is not None:
        print(f"# served {served} requests", file=sys.stderr)
    else:
        print("# terminated; in-flight requests drained", file=sys.stderr)
    return 0


def cmd_route(args):
    import signal
    import threading

    _configure_observability(args)
    from repro.engine.router import Router
    from repro.engine.server import SocketServer

    host, port = _parse_host_port(args.socket)
    router = Router(
        args.backends, queue_limit=args.queue_limit, ring_replicas=args.ring_replicas,
        max_retries=args.max_retries, probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout, rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
    )

    exporter = None
    if args.metrics:
        from repro.engine.telemetry import MetricsExporter

        metrics_host, metrics_port = _parse_host_port(args.metrics, flag="--metrics")
        exporter = MetricsExporter(router.metrics_prometheus,
                                   host=metrics_host, port=metrics_port)
        exporter.start()
        print(f"# metrics on http://{exporter.host}:{exporter.port}/metrics",
              file=sys.stderr)

    class _Terminated(Exception):
        pass

    def _on_sigterm(_signum, _frame):
        raise _Terminated()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _on_sigterm)

    socket_server = SocketServer(router, host=host, port=port, ordered=args.ordered)
    socket_server.start()
    # Backends that are already up join the ring during start(); late ones
    # are picked up by the probe loop — routing with a partial ring is fine.
    router.wait_all_up(timeout=args.wait_backends)
    up = len(router.ring)
    print(f"# routing on {host}:{socket_server.port} "
          f"({up}/{len(args.backends)} backends up, "
          f"queue limit {args.queue_limit})", file=sys.stderr)
    try:
        threading.Event().wait()  # route until SIGTERM / SIGINT
    except (_Terminated, KeyboardInterrupt):
        pass
    finally:
        socket_server.close(drain=True)
        if exporter is not None:
            exporter.close()
        print("# drained and stopped", file=sys.stderr)
    return 0


def cmd_query(args):
    import json

    from repro.engine.client import SocketClient

    host, port = _parse_host_port(args.connect, flag="--connect")
    if args.request == "-":
        raw = sys.stdin.readline()
    elif args.request.startswith("@"):
        raw = _read_text(args.request[1:])
    else:
        raw = args.request
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as error:
        raise KmtError(f"request must be a JSON object: {error}")
    if not isinstance(record, dict):
        raise KmtError(f"request must be a JSON object, got {type(record).__name__}")
    record.setdefault("id", "q0")
    try:
        with SocketClient(host, port, connect_timeout=args.timeout,
                          io_timeout=args.timeout) as client:
            response = client.request(record, timeout=args.timeout)
    except (ConnectionError, TimeoutError) as error:
        raise KmtError(str(error))
    print(json.dumps(response, sort_keys=True))
    return 0 if response.get("ok") else 1


def _at_least(convert, minimum, strict=False):
    """An argparse ``type=`` for a number ``>= minimum`` (``> minimum`` when
    ``strict``): any other value is a usage error (exit 2), not a traceback."""
    bound = f"{'>' if strict else '>='} {minimum}"

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not (value > minimum if strict else value >= minimum):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


_POSITIVE_INT = _at_least(int, 1)
_POSITIVE_FLOAT = _at_least(float, 0, strict=True)
_NON_NEGATIVE_FLOAT = _at_least(float, 0)


def make_arg_parser():
    parser = argparse.ArgumentParser(
        prog="kmt",
        description="Kleene algebra modulo theories: equivalence, normalization, satisfiability.",
    )
    parser.add_argument(
        "--theory",
        default="incnat",
        help=(
            "theory preset: incnat, bitvec, netkat, product, ltlf-nat, ltlf-bool, "
            "temporal-netkat, sets, maps"
        ),
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=500_000,
        help="pushback step budget before normalization gives up",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    equiv = sub.add_parser("equiv", help="decide equivalence of two terms")
    equiv.add_argument("left")
    equiv.add_argument("right")
    equiv.set_defaults(func=_one_shot("equiv", ("left", "right"), _show_equiv))

    incl = sub.add_parser(
        "incl",
        help=(
            "decide inclusion left <= right (per-cell compiled-automaton "
            "containment, with a shortest witness word on failure)"
        ),
    )
    incl.add_argument("left")
    incl.add_argument("right")
    incl.set_defaults(func=_one_shot("inclusion", ("left", "right"), _show_inclusion))

    member = sub.add_parser(
        "member",
        help=(
            "decide whether a word of primitive actions is a possible action "
            "sequence of a term"
        ),
    )
    member.add_argument("term")
    member.add_argument(
        "word", nargs="*",
        help="primitive actions, one per argument (or ';'-separated in one)",
    )
    member.set_defaults(func=_one_shot("member", ("term", "word"), _show_member))

    norm = sub.add_parser("norm", help="print the normal form of a term")
    norm.add_argument("term")
    norm.set_defaults(func=_one_shot("norm", ("term",), _show_norm))

    sat = sub.add_parser("sat", help="decide satisfiability of a predicate")
    sat.add_argument("pred")
    sat.set_defaults(func=_one_shot("sat", ("pred",), _show_sat))

    classes = sub.add_parser("classes", help="partition a file of terms into equivalence classes")
    classes.add_argument("file")
    classes.set_defaults(func=cmd_classes)

    run = sub.add_parser("run", help="run a term from the theory's initial state")
    run.add_argument("term")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser(
        "verify",
        help=(
            "decide the Hoare triple {pre} program {post} for a While program "
            "(counterexample cell + witness trace on failure)"
        ),
    )
    verify.add_argument("pre", help="precondition (a test in the theory's syntax)")
    verify.add_argument("program", help="While program source, or @path to a file")
    verify.add_argument("post", help="postcondition (a test in the theory's syntax)")
    verify.set_defaults(func=_one_shot("verify", ("pre", "program", "post"), _show_verify,
                                      programs=("program",)))

    prog_equiv = sub.add_parser(
        "prog-equiv",
        help="decide equivalence of two While programs",
    )
    prog_equiv.add_argument("left", help="While program source, or @path to a file")
    prog_equiv.add_argument("right", help="While program source, or @path to a file")
    prog_equiv.set_defaults(func=_one_shot("prog_equiv", ("left", "right"), _show_prog_equiv,
                                          programs=("left", "right")))

    dead_code = sub.add_parser(
        "dead-code",
        help=(
            "report unreachable statements of a While program with exact "
            "source spans and the controlling reason guard"
        ),
    )
    dead_code.add_argument("program", help="While program source, or @path to a file")
    dead_code.set_defaults(func=_one_shot("dead_code", ("program",), _show_dead_code,
                                         programs=("program",)))

    batch = sub.add_parser(
        "batch", help="run a JSONL batch of queries over cached engine sessions"
    )
    batch.add_argument("file", help="JSONL file of requests, or '-' for stdin")
    batch.add_argument(
        "--jobs", type=_POSITIVE_INT, default=4,
        help="worker threads executing queries (default: 4)",
    )
    batch.add_argument(
        "--stats", action="store_true", help="dump cache hit/miss stats to stderr"
    )
    _add_observability_flags(batch)
    batch.set_defaults(func=cmd_batch)

    serve = sub.add_parser(
        "serve",
        help=(
            "concurrent JSONL query server: stdin/stdout by default, TCP with "
            "--socket; see the README's server section for the protocol"
        ),
    )
    serve.add_argument(
        "--workers", type=_POSITIVE_INT, default=4,
        help="workers executing queries (default: 4)",
    )
    serve.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help=(
            "execution backend: worker threads in this process (default; best "
            "when queries wait on external oracles or I/O) or worker processes "
            "(true parallelism for CPU-bound queries on multi-core machines)"
        ),
    )
    serve.add_argument(
        "--stripes", type=_POSITIVE_INT, default=None,
        help="sessions per hot theory (default: one per worker)",
    )
    serve.add_argument(
        "--queue-limit", type=_POSITIVE_INT, default=128,
        help="max in-flight requests before intake blocks (backpressure)",
    )
    serve.add_argument(
        "--ordered", action="store_true",
        help="emit responses in submission order instead of completion order",
    )
    serve.add_argument(
        "--socket", metavar="HOST:PORT", default=None,
        help="serve multiple clients over TCP instead of stdin/stdout (port 0 = ephemeral)",
    )
    serve.add_argument(
        "--metrics", metavar="HOST:PORT", default=None,
        help=(
            "expose a Prometheus text endpoint at http://HOST:PORT/metrics "
            "(port 0 = ephemeral)"
        ),
    )
    serve.add_argument(
        "--snapshot", metavar="PATH", default=None,
        help=(
            "persistent snapshot file: warm-start the caches from PATH at boot "
            "(missing or stale snapshots are a logged cold start) and write a "
            "final checkpoint there on clean shutdown"
        ),
    )
    serve.add_argument(
        "--theory-factory", metavar="MODULE:ATTR", default=None,
        help=(
            "theory-factory spec resolved inside each worker (test hook — "
            "e.g. repro.engine.testing:oracle_latency_factory reads "
            "KMT_TEST_ORACLE_* from the environment)"
        ),
    )
    serve.add_argument(
        "--checkpoint-interval", type=_POSITIVE_FLOAT, default=None, metavar="SECS",
        help=(
            "also checkpoint the caches to --snapshot every SECS seconds in "
            "the background (default: only the final checkpoint on shutdown)"
        ),
    )
    _add_observability_flags(serve)
    serve.set_defaults(func=cmd_serve)

    route = sub.add_parser(
        "route",
        help=(
            "consistent-hash router over N `kmt serve --socket` backends: "
            "same JSONL protocol, sticky cache affinity, failover, per-client "
            "rate limits and a priority field; see the README's Cluster section"
        ),
    )
    route.add_argument(
        "--socket", metavar="HOST:PORT", required=True,
        help="listen address for clients (port 0 = ephemeral)",
    )
    route.add_argument(
        "--backend", metavar="HOST:PORT", action="append", required=True,
        dest="backends",
        help="a backend server address; repeat once per backend",
    )
    route.add_argument(
        "--queue-limit", type=_POSITIVE_INT, default=256,
        help="max in-flight requests across all backends before intake blocks",
    )
    route.add_argument(
        "--ordered", action="store_true",
        help="emit responses in submission order instead of completion order",
    )
    route.add_argument(
        "--ring-replicas", type=_POSITIVE_INT, default=64,
        help="virtual nodes per backend on the hash ring (default: 64)",
    )
    route.add_argument(
        "--max-retries", type=int, default=2,
        help="replicas to retry an in-flight request on after its backend dies",
    )
    route.add_argument(
        "--probe-interval", type=float, default=1.0, metavar="SECS",
        help="seconds between backend health probes / rejoin attempts",
    )
    route.add_argument(
        "--probe-timeout", type=float, default=5.0, metavar="SECS",
        help="seconds before an unanswered probe ejects a backend",
    )
    route.add_argument(
        "--rate-limit", type=_POSITIVE_FLOAT, default=None, metavar="QPS",
        help=(
            "per-client token-bucket admission limit in queries/second "
            "(default: off); excess answers a rate_limited error"
        ),
    )
    route.add_argument(
        "--rate-burst", type=_POSITIVE_FLOAT, default=None, metavar="N",
        help="token-bucket burst capacity (default: 2x the rate)",
    )
    route.add_argument(
        "--wait-backends", type=float, default=10.0, metavar="SECS",
        help="seconds to wait for all backends before serving anyway",
    )
    route.add_argument(
        "--metrics", metavar="HOST:PORT", default=None,
        help="expose the router's Prometheus endpoint at http://HOST:PORT/metrics",
    )
    _add_observability_flags(route)
    route.set_defaults(func=cmd_route)

    query = sub.add_parser(
        "query",
        help=(
            "send one JSONL request to a running server or router over TCP "
            "and print the response"
        ),
    )
    query.add_argument(
        "--connect", metavar="HOST:PORT", required=True,
        help="address of a `kmt serve --socket` server or `kmt route` router",
    )
    query.add_argument(
        "request", nargs="?", default="-",
        help="JSON request object, @path to a file, or '-' for stdin (default)",
    )
    query.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECS",
        help="connect/read timeout in seconds (default: 30)",
    )
    query.set_defaults(func=cmd_query)
    return parser


def _add_observability_flags(sub):
    sub.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default=None,
        help="enable the JSON-lines event log at this level (default: off)",
    )
    sub.add_argument(
        "--log-file", metavar="PATH", default=None,
        help="write the event log to PATH instead of stderr (implies --log-level info)",
    )
    sub.add_argument(
        "--slow-query-ms", type=_NON_NEGATIVE_FLOAT, default=None, metavar="N",
        help=(
            "log a slow_query event with the full phase breakdown for every "
            "request slower than N ms end-to-end (implies logging)"
        ),
    )


def main(argv=None):
    parser = make_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KmtError, RecursionError) as error:
        # Over-deep input on ``run``/``classes`` (the verbs that do not go
        # through execute_record) gets the protocol's ``input_too_deep`` text.
        print(f"error: {classify_query_error(error)[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
