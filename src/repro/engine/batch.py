"""The JSONL query protocol: request classification, error codes, execution.

One request per line, one JSON response per line::

    {"op": "equiv", "theory": "incnat", "left": "inc(x); x > 1", "right": "x > 0; inc(x)"}
    {"op": "norm",  "theory": "bitvec", "term": "(flip a)*; a = T"}
    {"op": "sat",   "pred": "x > 3; ~(x > 5)"}
    {"op": "empty", "term": "x > 3; ~(x > 3)"}
    {"op": "leq",   "left": "inc(x)", "right": "inc(x) + inc(y)"}
    {"op": "inclusion", "left": "inc(x)", "right": "inc(x) + inc(y)"}
    {"op": "member", "term": "(inc(x))*; x > 1", "word": ["inc(x)", "inc(x)"]}
    {"op": "verify", "pre": "x > 0", "program": "inc(x);", "post": "x > 1"}
    {"op": "prog_equiv", "left": "skip;", "right": "if (x > 0) {} else {}"}
    {"op": "dead_code", "program": "abort; inc(x);"}

The last three take While-language program source (docs/GRAMMAR.md) instead
of bare KMT terms; see :mod:`repro.analysis.checks` for their result payloads.

Responses echo ``op``/``theory`` plus the request's ``id`` (defaulting to the
0-based line number) and carry either ``"ok": true`` with a ``result`` object
or ``"ok": false`` with an ``error`` string and a machine-readable
``error_code`` — malformed lines produce error records instead of aborting
the stream.  Replayed equivalence verdicts are flagged ``"cached": true`` so
their exploration counters are not mistaken for fresh work.  The control ops
``{"op": "stats"}``, ``{"op": "ping"}`` and ``{"op": "metrics"}`` expose cache
accounting, liveness and the aggregated telemetry counters/histograms.  Any
query may carry ``"trace": true`` to get a per-phase timing breakdown back in
its response (see :mod:`repro.engine.telemetry`).

This module owns the protocol itself — :func:`parse_request_line` classifies
a line, :func:`execute_query` / :func:`run_query` run one query record on an
engine session, and :func:`classify_query_error` / :func:`error_response`
turn failures into error records.  Scheduling lives in
:mod:`repro.engine.server`: ``kmt serve`` and ``kmt batch`` both feed lines to
its :class:`~repro.engine.server.QueryServer`, which executes every query
through :func:`~repro.engine.server.execute_record`.
"""

from __future__ import annotations

import json
import time

from repro.core.pretty import pretty_normal_form
from repro.engine.telemetry import Trace, activate, deactivate
from repro.utils.errors import KmtError, ParseError, PushbackCycle, QueryCancelled

#: Ops that dispatch to a theory session.
QUERY_OPS = ("equiv", "leq", "inclusion", "member", "norm", "sat", "empty",
             "verify", "prog_equiv", "dead_code")
#: Control ops answered by the scheduler itself.
CONTROL_OPS = ("stats", "ping", "metrics")

DEFAULT_THEORY = "incnat"

# ---------------------------------------------------------------------------
# structured error codes (stable, machine-readable; the human-readable
# ``error`` string may change freely)
# ---------------------------------------------------------------------------
ERROR_MALFORMED = "malformed_request"
ERROR_UNKNOWN_OP = "unknown_op"
ERROR_UNKNOWN_THEORY = "unknown_theory"
ERROR_MISSING_FIELD = "missing_field"
ERROR_PARSE = "parse_error"
ERROR_INVALID = "invalid_request"
ERROR_DEADLINE = "deadline_exceeded"
ERROR_QUEUE_FULL = "queue_full"
ERROR_SHUTDOWN = "shutting_down"
ERROR_WORKER_CRASHED = "worker_crashed"
ERROR_SNAPSHOT_INVALID = "snapshot_invalid"
ERROR_INTERNAL = "internal_error"
# A request nested deeper than the interpreter's recursion limit allows
# (parenthesized terms, long programs): rejected, and the session stays usable.
ERROR_INPUT_TOO_DEEP = "input_too_deep"
# Normalization met a pushback subproblem again while computing it: the
# theory's ordering obligations fail on this input (not deep input).
ERROR_PUSHBACK_CYCLE = "pushback_cycle"
# Cluster-router codes (see repro.engine.router): a request whose backend —
# and every retry replica — is unreachable answers ``backend_down``; a client
# over its token-bucket budget is refused with ``rate_limited``.
ERROR_BACKEND_DOWN = "backend_down"
ERROR_RATE_LIMITED = "rate_limited"


def parse_request_line(raw):
    """Classify one input line of the JSONL protocol.

    ``raw`` is text, or bytes that must decode as UTF-8.  Returns a
    ``(kind, payload)`` pair:

    * ``("skip", None)`` — blank line or ``#`` comment (no response);
    * ``("quit", record)`` — a well-formed ``{"op": "quit"}`` record;
    * ``("control", record)`` — ``stats`` / ``ping``;
    * ``("query", record)`` — one of :data:`QUERY_OPS`;
    * ``("error", (message, code, record))`` — malformed JSON, a non-object
      record, undecodable bytes, or an unknown op.  ``record`` is the parsed
      request when one exists (``{}`` otherwise) so error responses can
      still echo the client's ``id`` — out-of-order completion depends on
      that.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            return "error", (f"malformed request: not UTF-8 text ({error.reason})",
                             ERROR_MALFORMED, {})
    line = raw.strip()
    if not line or line.startswith("#"):
        return "skip", None
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as error:
        # json.loads raises RecursionError on deeply nested arrays/objects.
        return "error", (f"malformed request: {error}", ERROR_MALFORMED, {})
    if not isinstance(record, dict):
        return "error", ("malformed request: record must be a JSON object", ERROR_MALFORMED, {})
    op = record.get("op")
    if op == "quit":
        return "quit", record
    if op in CONTROL_OPS:
        return "control", record
    if op in QUERY_OPS:
        return "query", record
    return "error", (
        f"unknown op {op!r}; expected one of {', '.join(QUERY_OPS + CONTROL_OPS)}",
        ERROR_UNKNOWN_OP,
        record,
    )


def classify_query_error(error):
    """Map an exception from query execution to ``(message, error_code)``."""
    if isinstance(error, KeyError):
        return f"missing field {error.args[0]!r}", ERROR_MISSING_FIELD
    if isinstance(error, QueryCancelled):
        return str(error), ERROR_DEADLINE
    if isinstance(error, ParseError):
        return str(error), ERROR_PARSE
    if isinstance(error, PushbackCycle):
        return str(error), ERROR_PUSHBACK_CYCLE
    if isinstance(error, RecursionError):
        return f"input nested too deeply: {error}", ERROR_INPUT_TOO_DEEP
    return str(error), ERROR_INVALID


def error_response(record, fallback_id, theory_name, message, code):
    """Build one ``"ok": false`` response record."""
    out = {
        "id": record.get("id", fallback_id) if isinstance(record, dict) else fallback_id,
        "ok": False,
        "error": message,
        "error_code": code,
    }
    if isinstance(record, dict) and record.get("op") is not None:
        out["op"] = record.get("op")
    if theory_name is not None:
        out["theory"] = theory_name
    return out


def execute_query(session, record, cancel=None):
    """Run one query record on a session; returns the ``result`` payload.

    Raises ``KmtError`` (or ``KeyError`` for missing fields) — callers convert
    those into error records via :func:`classify_query_error`.  ``cancel`` is
    the optional cooperative-cancellation hook threaded through the session
    into normalization and the decision procedure.
    """
    op = record["op"]
    if op == "equiv":
        result = session.check_equivalent(record["left"], record["right"], cancel=cancel)
        payload = {
            "equivalent": result.equivalent,
            "cells_explored": result.cells_explored,
            "cells_pruned": result.cells_pruned,
            "signatures_explored": result.signatures_explored,
        }
        if result.cached:
            # Replayed verdict: the counters above describe the run that
            # first computed it, not work done for this request.
            payload["cached"] = True
        if result.counterexample is not None:
            payload["counterexample"] = result.counterexample.describe()
        return payload
    if op == "leq":
        return {"leq": session.less_or_equal(record["left"], record["right"], cancel=cancel)}
    if op == "inclusion":
        result = session.check_inclusion(record["left"], record["right"], cancel=cancel)
        payload = {
            "includes": result.includes,
            "cells_explored": result.cells_explored,
            "cells_pruned": result.cells_pruned,
            "signatures_explored": result.signatures_explored,
        }
        if result.cached:
            payload["cached"] = True
        if result.counterexample is not None:
            payload["counterexample"] = result.counterexample.describe()
            # The machine-readable form of the witness: a shortest word in
            # L(left) \ L(right), one primitive action per element.
            payload["witness_word"] = [str(pi) for pi in result.counterexample.word or ()]
        return payload
    if op == "member":
        return {"member": session.member(record["term"], record["word"], cancel=cancel)}
    if op == "norm":
        nf = session.normalize(record["term"], cancel=cancel)
        return {"normal_form": pretty_normal_form(nf), "summands": len(nf)}
    if op == "sat":
        return {"satisfiable": session.satisfiable(record["pred"])}
    if op == "empty":
        return {"empty": session.is_empty(record["term"], cancel=cancel)}
    # Program-analysis ops: While source text in, spans/witnesses out (see
    # repro.analysis.checks; docs/GRAMMAR.md specifies the program syntax).
    if op == "verify":
        return session.verify(record["pre"], record["program"], record["post"],
                              cancel=cancel)
    if op == "prog_equiv":
        return session.prog_equiv(record["left"], record["right"], cancel=cancel)
    if op == "dead_code":
        return session.dead_code(record["program"], cancel=cancel)
    raise KmtError(f"unknown op {op!r}; expected one of {', '.join(QUERY_OPS)}")


def _cache_table_snapshot(caches):
    """Per-table ``(hits, misses)`` of a session's cache tables."""
    return {cache.stats.name: (cache.stats.hits, cache.stats.misses)
            for cache in caches.tables()}


def _cache_table_deltas(before, after):
    out = {}
    for name, (hits, misses) in after.items():
        hits_before, misses_before = before.get(name, (0, 0))
        delta_hits, delta_misses = hits - hits_before, misses - misses_before
        if delta_hits or delta_misses:
            out[name] = {"hits": delta_hits, "misses": delta_misses}
    return out


def run_query(session, record, cancel=None):
    """Execute one query, honoring the request's ``"trace": true`` flag.

    Returns ``(result, trace_payload)``; the payload is ``None`` on the
    untraced fast path (one dict lookup of overhead).  When tracing, a
    :class:`~repro.engine.telemetry.Trace` is activated on this thread for
    the duration of the query so every instrumented layer (session
    normalization, signature/cell search, comparison memo, automaton
    compilation + minimization, product walks) records its spans into it.
    The payload carries the phase self-time breakdown, ``exec_ms`` (the whole
    execution window), ``unattributed_ms`` (window time no phase claims:
    parsing, routing, memo lookups), and per-table cache hit/miss deltas
    observed across the query — the caller must hold the session lock, which
    makes those deltas attributable to this request alone.  The server's
    slow-query log traces a request that did not ask by setting
    ``record["trace"]`` itself, and strips the payload from the client
    response.  Failed queries raise exactly as :func:`execute_query` does;
    the partial trace is discarded with them.
    """
    if not record.get("trace"):
        return execute_query(session, record, cancel=cancel), None
    trace = Trace()
    tables_before = _cache_table_snapshot(session.caches)
    started = time.monotonic()
    activate(trace)
    try:
        result = execute_query(session, record, cancel=cancel)
    finally:
        deactivate()
    exec_ms = (time.monotonic() - started) * 1000.0
    payload = trace.payload()
    payload["exec_ms"] = round(exec_ms, 3)
    payload["unattributed_ms"] = round(max(0.0, exec_ms - trace.attributed_ms()), 3)
    payload["cache"] = _cache_table_deltas(
        tables_before, _cache_table_snapshot(session.caches))
    return result, payload
