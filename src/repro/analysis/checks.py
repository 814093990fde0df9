"""Static program analyses served by the engine: verify / prog_equiv / dead_code.

The paper's motivating workload (Section 1.1, Fig. 1) is verifying small
imperative programs by compiling them to KMT terms.  This module turns that
scenario into queries on a :class:`~repro.core.kmt.KMT` facade:

``verify``
    Decides the partial-correctness triple ``{pre} prog {post}`` via Kozen's
    KAT encoding — the triple holds iff ``pre;prog;~post == 0``.  Deciding it
    as an equivalence against ``0`` (rather than a bare emptiness bit) buys a
    counterexample on failure: the distinguishing cell is a satisfiable
    assignment of primitive tests under which the program can run and end in a
    ``~post`` state, and the distinguishing word is a witness trace of
    primitive actions.

``prog_equiv``
    Decides equivalence of two While programs by compiling both and routing
    the terms through the facade's cached equivalence pipeline, so
    edit-recheck loops hit warm normal forms, signature memos and the ``aut``
    LRU.

``dead_code``
    Reports, per statement, whether it is unreachable.  Every parsed
    statement carries a source span; the analysis threads a *reachability
    prefix* term through the program (guard-path prefixes for branches and
    loop bodies) and a statement is dead iff its prefix language is empty — a
    per-summand bit-test on the cached compiled automata
    (:meth:`EquivalenceChecker.is_empty_nf`).  Dead statements report their
    span plus the innermost *reason guard* (the controlling branch/loop guard
    or the preceding ``assume``/``abort``) with its own span.

All three parse program text through the facade's compile cache
(``caches.prog``: source text → compiled term + AST), so re-checking an
unchanged program never re-parses, and re-checking a mutated one only pays
for the parts whose *normal forms* changed.
"""

from __future__ import annotations

from repro.analysis.hoare import HoareTriple
from repro.core import terms as T
from repro.lang.while_lang import (
    Abort,
    Assert,
    Assume,
    If,
    Seq,
    Skip,
    While,
    parse_program,
)
from repro.utils.errors import line_and_column
from repro.utils.trace import current_trace

_MISS = object()


def compiled_program(kmt, text):
    """Parse + compile a While program, memoized on the facade by source text.

    Returns ``(WhileProgram, Term)``.  The parse+compile work is recorded
    under the ``prog_compile`` trace phase (cache hits record nothing).
    """
    if not isinstance(text, str):
        raise TypeError(f"a While program must be given as source text, got {text!r}")
    cache = kmt.caches.prog
    cached = cache.get(text, _MISS)
    if cached is not _MISS:
        return cached
    trace = current_trace()
    if trace is None:
        program = parse_program(text, kmt.theory)
        term = program.compile()
    else:
        with trace.span("prog_compile"):
            program = parse_program(text, kmt.theory)
            term = program.compile()
    value = (program, term)
    cache.put(text, value)
    return value


def _search_counters(result):
    payload = {
        "cells_explored": result.cells_explored,
        "cells_pruned": result.cells_pruned,
        "signatures_explored": result.signatures_explored,
    }
    if result.cached:
        # Replayed verdict: the counters describe the run that first
        # computed it, not work done for this request.
        payload["cached"] = True
    return payload


def verify(kmt, pre, program, post, cancel=None):
    """Decide ``{pre} program {post}``; returns the JSONL ``result`` payload."""
    pre_pred = kmt.parse_pred(pre) if isinstance(pre, str) else pre
    post_pred = kmt.parse_pred(post) if isinstance(post, str) else post
    _, term = compiled_program(kmt, program)
    encoding = HoareTriple(pre_pred, term, post_pred).encoding()
    result = kmt.check_equivalent(encoding, T.tzero(), cancel=cancel)
    payload = {"holds": result.equivalent}
    payload.update(_search_counters(result))
    if not result.equivalent and result.counterexample is not None:
        cex = result.counterexample
        payload["counterexample"] = cex.describe()
        # The machine-readable witness: a trace of primitive actions the
        # program can take (from a state satisfying the cell) that ends in a
        # state where the postcondition fails.
        payload["witness_trace"] = [str(pi) for pi in cex.word or ()]
    return payload


def prog_equiv(kmt, left, right, cancel=None):
    """Decide equivalence of two While programs; returns the ``result`` payload."""
    _, left_term = compiled_program(kmt, left)
    _, right_term = compiled_program(kmt, right)
    result = kmt.check_equivalent(left_term, right_term, cancel=cancel)
    payload = {"equivalent": result.equivalent}
    payload.update(_search_counters(result))
    if result.counterexample is not None:
        payload["counterexample"] = result.counterexample.describe()
    return payload


# ---------------------------------------------------------------------------
# dead code
# ---------------------------------------------------------------------------


def _span_payload(source, span):
    start, end = span
    line, column = line_and_column(source, start)
    return {"start": start, "end": end, "line": line, "column": column}


def _stmt_text(source, stmt):
    if stmt.span is not None and source is not None:
        text = source[stmt.span[0]:stmt.span[1]]
    else:
        text = stmt.pretty()
    # Blocks span multiple lines; their headline is enough to identify them.
    return " ".join(text.split())[:120]


class _DeadCodeWalk:
    """Collects ``(statement, reachability prefix, reason)`` in program order."""

    def __init__(self, source):
        self.source = source
        self.entries = []

    def _guard_reason(self, stmt, negated):
        reason = {
            "kind": "guard",
            "guard": stmt.cond.pretty(),
            "negated": negated,
        }
        if stmt.cond_span is not None and self.source is not None:
            reason["guard"] = self.source[stmt.cond_span[0]:stmt.cond_span[1]]
            reason["span"] = _span_payload(self.source, stmt.cond_span)
        return reason

    def _stmt_reason(self, stmt, kind):
        reason = {"kind": kind}
        if kind in ("assume", "assert"):
            reason["guard"] = stmt.pred.pretty()
        if stmt.span is not None and self.source is not None:
            reason["span"] = _span_payload(self.source, stmt.span)
        return reason

    def walk(self, stmt, prefix, reason):
        """Returns ``(exit_prefix, exit_reason)`` for control flow after ``stmt``."""
        if isinstance(stmt, Seq):
            for inner in stmt.statements:
                prefix, reason = self.walk(inner, prefix, reason)
            return prefix, reason
        # The implicit ``else { skip; }`` of an if-without-else has no span;
        # reporting it would point at nothing the user wrote.
        if stmt.span is not None or self.source is None:
            self.entries.append((stmt, prefix, reason))
        if isinstance(stmt, If):
            guard = T.ttest(stmt.cond)
            not_guard = T.ttest(T.pnot(stmt.cond))
            then_exit, _ = self.walk(
                stmt.then_branch, T.tseq(prefix, guard),
                self._guard_reason(stmt, negated=False))
            else_exit, _ = self.walk(
                stmt.else_branch, T.tseq(prefix, not_guard),
                self._guard_reason(stmt, negated=True))
            return T.tplus(then_exit, else_exit), reason
        if isinstance(stmt, While):
            guard = T.ttest(stmt.cond)
            body_term = stmt.body.compile()
            # Reaching the body (at any iteration) means: prefix, then some
            # complete iterations, then the guard holding once more.
            body_prefix = T.tseq(prefix, T.tseq(T.tstar(T.tseq(guard, body_term)), guard))
            self.walk(stmt.body, body_prefix, self._guard_reason(stmt, negated=False))
            return T.tseq(prefix, stmt.compile()), reason
        exit_prefix = T.tseq(prefix, stmt.compile())
        if isinstance(stmt, Assume):
            reason = self._stmt_reason(stmt, "assume")
        elif isinstance(stmt, Assert):
            reason = self._stmt_reason(stmt, "assert")
        elif isinstance(stmt, Abort):
            reason = self._stmt_reason(stmt, "abort")
        elif isinstance(stmt, Skip):
            pass  # skip constrains nothing; the previous reason stands
        return exit_prefix, reason


def dead_code(kmt, program, cancel=None):
    """Per-statement unreachability report; returns the ``result`` payload.

    Statement order follows the source (pre-order over the AST).  A dead
    statement's entry carries its exact source span and the reason guard; a
    statement nested under a dead construct is itself reported dead (its
    prefix language is empty too).
    """
    prog, _ = compiled_program(kmt, program)
    source = prog.source
    walker = _DeadCodeWalk(source)
    walker.walk(prog.body, T.tone(), None)
    statements = []
    dead = 0
    for stmt, prefix, reason in walker.entries:
        is_dead = kmt._is_empty_nf_cached(prefix, cancel=cancel)
        entry = {
            "text": _stmt_text(source, stmt),
            "dead": is_dead,
        }
        if stmt.span is not None and source is not None:
            entry["span"] = _span_payload(source, stmt.span)
        if is_dead:
            dead += 1
            if reason is not None:
                entry["reason"] = reason
        statements.append(entry)
    trace = current_trace()
    if trace is not None:
        trace.count("statements_analyzed", len(statements))
        if dead:
            trace.count("dead_statements", dead)
    return {"statements": statements, "total": len(statements), "dead": dead}
