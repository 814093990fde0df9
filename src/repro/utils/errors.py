"""Exception hierarchy for the KMT library."""


class KmtError(Exception):
    """Base class for all errors raised by the library."""


class TheoryError(KmtError):
    """A client theory was given an argument it does not understand.

    Raised, for example, when a theory's ``push_back`` is handed a primitive
    action or test that belongs to a different theory, or when a higher-order
    theory (products, sets, LTLf) cannot find an owner for a primitive.
    """


def line_and_column(text, position):
    """1-based ``(line, column)`` of a character offset into ``text``.

    Offsets past the end (the parsers point "unexpected end of input" one
    past the last character) clamp to the end of the text.
    """
    position = max(0, min(position, len(text)))
    prefix = text[:position]
    line = prefix.count("\n") + 1
    column = position - (prefix.rfind("\n") + 1) + 1
    return line, column


def caret_frame(text, position, prefix="  | "):
    """The source line containing ``position`` with a caret under it.

    Tabs in the excerpt are expanded to single spaces so the caret column
    lines up regardless of the reader's tab stops.
    """
    position = max(0, min(position, len(text)))
    start = text.rfind("\n", 0, position) + 1
    end = text.find("\n", position)
    if end == -1:
        end = len(text)
    excerpt = text[start:end].replace("\t", " ")
    return f"{prefix}{excerpt}\n{prefix}{' ' * (position - start)}^"


class ParseError(KmtError):
    """Raised by the concrete-syntax parsers on malformed input.

    Diagnostics are positional: when ``position`` and ``text`` are given, the
    rendered message carries the 1-based ``line``/``column`` plus a
    caret-frame excerpt of the offending source line (``position`` — the flat
    character offset — is kept for backward compatibility).  ``expected`` is
    the set of token spellings the grammar allowed at that point, rendered as
    an "expected one of …" clause and kept machine-readable on the attribute.
    ``bare_message`` preserves the undecorated message so a wrapper (the core
    parser anchoring a theory's position-less phrase error at the phrase)
    can re-render it at a position without stacking location clauses.
    """

    def __init__(self, message, position=None, text=None, expected=None):
        self.bare_message = message
        self.position = position
        self.text = text
        self.expected = tuple(expected) if expected else ()
        self.line = None
        self.column = None
        if self.expected:
            if len(self.expected) == 1:
                message = f"{message}; expected {self.expected[0]}"
            else:
                message = f"{message}; expected one of: {', '.join(self.expected)}"
        if position is not None and text is not None:
            self.line, self.column = line_and_column(text, position)
            message = (
                f"{message} (at line {self.line}, column {self.column})\n"
                f"{caret_frame(text, position)}"
            )
        super().__init__(message)


class NormalizationBudgetExceeded(KmtError):
    """The pushback-based normalization exceeded its step budget.

    Normalization is guaranteed to terminate (Theorem 3.5 of the paper) but can
    take doubly-exponential time on terms with sums nested under Kleene star
    (the ``Denest`` rule blow-up discussed in the paper's evaluation).  A step
    budget turns that blow-up into a catchable exception rather than an
    apparent hang; the Fig. 9 "timeout" row relies on this.
    """

    def __init__(self, budget, message=None):
        self.budget = budget
        super().__init__(message or f"normalization exceeded its step budget of {budget}")


class PushbackCycle(KmtError):
    """Pushback met a PB• or PB* subproblem again while still computing it.

    Termination (Theorem 3.5) rests on the theory's ``push_back`` being
    non-increasing in the maximal-subterm ordering; where it is not, pushback
    would recurse forever, so its re-entry guards raise this instead.
    """

    def __init__(self, relation, theory_name):
        self.theory_name = theory_name
        super().__init__(
            f"{relation} re-entered on the same subproblem in theory "
            f"{theory_name!r}: its push_back is not non-increasing in the "
            "maximal-subterm ordering, so pushback would not terminate"
        )


class CounterexampleBoundExceeded(KmtError):
    """A bounded counterexample search ran out of budget without a verdict.

    Raised by :func:`repro.core.oracle.counterexample_word` when the
    breadth-first product search had to truncate at ``max_length`` before
    finding a distinguishing word: at that point "no word found" means
    *unknown*, not "the languages are equivalent", and silently returning
    ``None`` (the equivalence answer) would conflate the two.  The unbounded
    product walk (:func:`repro.core.kernels.flat_compare`) never raises this
    — compiled automata are finite, so it always reaches a verdict.
    """

    def __init__(self, max_length, message=None):
        self.max_length = max_length
        super().__init__(
            message
            or (
                f"counterexample search truncated at word length {max_length} "
                "without a verdict (raise max_length, or use the compiled "
                "product walk which needs no bound)"
            )
        )


class SnapshotError(KmtError):
    """A persisted cache snapshot could not be written, read, or applied.

    Raised by :mod:`repro.engine.persist` when a snapshot file is truncated,
    corrupted, carries a foreign format/theory stamp, or fails to decode.
    Imports are staged before they are installed, so a raised
    ``SnapshotError`` always leaves the session's caches untouched — there is
    no partial load.  ``code`` is the stable machine-readable identifier
    surfaced on error responses and in logs.
    """

    def __init__(self, message, code="snapshot_invalid"):
        self.code = code
        super().__init__(message)


class WorkerCrashed(KmtError):
    """A server worker process died while a request was assigned to it.

    Raised inside the process execution backend when the pipe to a worker
    breaks mid-call; the supervisor converts it into a structured
    ``worker_crashed`` error response and respawns the worker.
    """


class QueryCancelled(KmtError):
    """A long-running query was cancelled cooperatively.

    The decision-procedure layers (normalization, signature enumeration,
    automata comparison) accept an optional ``cancel`` callable and invoke it
    at their progress points; the callable signals cancellation by raising a
    subclass of this error, which unwinds the search without corrupting any
    memo table (results are only published on completion).
    """


class DeadlineExceeded(QueryCancelled):
    """A query ran past its caller-supplied deadline (``deadline_ms``)."""

    def __init__(self, deadline_ms=None, message=None):
        self.deadline_ms = deadline_ms
        if message is None:
            if deadline_ms is not None:
                message = f"query exceeded its deadline of {deadline_ms} ms"
            else:
                message = "query exceeded its deadline"
        super().__init__(message)
