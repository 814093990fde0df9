"""A While-language frontend over KMT theories (paper Section 1.1 and Fig. 1).

The paper motivates KMT with small imperative programs — ``Pnat``, ``Pset``
and ``Pmap`` in Fig. 1 — and shows the standard translation of While programs
into KAT terms::

    skip                      ->  1
    abort                     ->  0
    assume b / assert b       ->  b
    primitive action pi       ->  pi
    s1 ; s2                   ->  s1 ; s2
    if b { s1 } else { s2 }   ->  b;s1 + ~b;s2
    while b { s }             ->  (b;s)* ; ~b

This module provides a statement AST, the compiler into KMT terms, and a
concrete syntax parser so the Fig. 1 programs can be written literally, e.g.::

    assume i < 50;
    while (i < 100) {
        inc(i);
        inc(j); inc(j);
    }
    assert j > 100;

The program parser extends the core term parser (:mod:`repro.core.parser`)
on the same token stream: tests and actions inside a program are read in
place by the core grammar, with primitive phrases delegated to the active
client theory, so the same frontend works for all the shipped theories (and
products thereof) and every diagnostic points into the program as written.
"""

from __future__ import annotations

from repro.core import parser as core_parser
from repro.core import terms as T
from repro.utils.errors import ParseError


# ---------------------------------------------------------------------------
# statement AST
# ---------------------------------------------------------------------------


class Statement:
    """Base class for While-language statements.

    ``span`` is the half-open ``(start, end)`` character range of the
    statement in the source text it was parsed from (``None`` on
    programmatically-built statements; the trailing ``;`` terminator is not
    part of the span).  The concrete classes guarantee a *pretty round-trip*:
    re-parsing ``pretty()`` under the same theory compiles to the identical
    (hash-consed) KMT term — the grammar fuzzer in the test suite holds them
    to it.
    """

    span = None

    def compile(self):
        """Compile this statement into a KMT term."""
        raise NotImplementedError

    def __repr__(self):
        return self.pretty()

    def pretty(self, indent=0):
        raise NotImplementedError


class Skip(Statement):
    """The no-op statement."""

    def compile(self):
        return T.tone()

    def pretty(self, indent=0):
        return " " * indent + "skip;"


class Abort(Statement):
    """The failing statement (no behaviours)."""

    def compile(self):
        return T.tzero()

    def pretty(self, indent=0):
        return " " * indent + "abort;"


class Assume(Statement):
    """``assume b`` — continue only on states satisfying ``b``."""

    def __init__(self, pred):
        self.pred = pred

    def compile(self):
        return T.ttest(self.pred)

    def pretty(self, indent=0):
        return " " * indent + f"assume {self.pred.pretty()};"


class Assert(Statement):
    """``assert b`` — identical to ``assume`` as a KAT term.

    The distinction matters to the *user* (an assert states an intended
    property); verification questions phrase themselves as equivalences, e.g.
    "does dropping the assert change the program?".
    """

    def __init__(self, pred):
        self.pred = pred

    def compile(self):
        return T.ttest(self.pred)

    def pretty(self, indent=0):
        return " " * indent + f"assert {self.pred.pretty()};"


class ActionStmt(Statement):
    """A primitive theory action (or any already-built KMT term)."""

    def __init__(self, term):
        self.term = term

    def compile(self):
        return self.term

    def pretty(self, indent=0):
        return " " * indent + f"{self.term.pretty()};"


class Seq(Statement):
    """A block of statements executed in order."""

    def __init__(self, statements):
        self.statements = list(statements)

    def compile(self):
        return T.tseq_all(stmt.compile() for stmt in self.statements)

    def pretty(self, indent=0):
        return "\n".join(stmt.pretty(indent) for stmt in self.statements)


class If(Statement):
    """``if (b) { s1 } else { s2 }``."""

    cond_span = None

    def __init__(self, cond, then_branch, else_branch=None):
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch if else_branch is not None else Skip()

    def compile(self):
        return T.tif(self.cond, self.then_branch.compile(), self.else_branch.compile())

    def pretty(self, indent=0):
        pad = " " * indent
        return (
            f"{pad}if ({self.cond.pretty()}) {{\n"
            f"{self.then_branch.pretty(indent + 2)}\n{pad}}} else {{\n"
            f"{self.else_branch.pretty(indent + 2)}\n{pad}}}"
        )


class While(Statement):
    """``while (b) { s }``."""

    cond_span = None

    def __init__(self, cond, body):
        self.cond = cond
        self.body = body

    def compile(self):
        return T.twhile(self.cond, self.body.compile())

    def pretty(self, indent=0):
        pad = " " * indent
        return f"{pad}while ({self.cond.pretty()}) {{\n{self.body.pretty(indent + 2)}\n{pad}}}"


class WhileProgram:
    """A parsed/constructed While program together with its theory.

    ``source`` is the original program text when the program came from
    :func:`parse_program` (``None`` otherwise); statement ``span`` offsets
    index into it.
    """

    def __init__(self, body, theory, source=None):
        self.body = body if isinstance(body, Statement) else Seq(body)
        self.theory = theory
        self.source = source

    def compile(self):
        """The KMT term denoting this program."""
        return self.body.compile()

    def pretty(self):
        return self.body.pretty()

    def __repr__(self):
        return f"WhileProgram(\n{self.pretty()}\n)"


def compile_program(program):
    """Compile a :class:`WhileProgram` or a :class:`Statement` into a term."""
    if isinstance(program, WhileProgram):
        return program.compile()
    if isinstance(program, Statement):
        return program.compile()
    raise TypeError(f"expected a WhileProgram or Statement, got {program!r}")


# ---------------------------------------------------------------------------
# concrete syntax
# ---------------------------------------------------------------------------


class _ProgramParser(core_parser.Parser):
    """The While grammar of docs/GRAMMAR.md, on the core parser's own cursor.

    Statements, their tests and actions, and the ``if``/``while`` guards are
    all read from one token list, so every :class:`ParseError` — including
    one raised by the theory inside a test or action — carries its offset in
    the whole (possibly multi-line) program.  A statement's test or action is
    a ``choice``: a bare ``;`` ends the statement, and sequencing with ``;``
    happens only inside an ``expr`` (parentheses, guards, keyword arguments).
    """

    def parse_statements(self):
        """``{statement [';' {';'}]}`` up to a ``}`` or the end of input."""
        statements = []
        while not self.at_end() and not self.at_sym("}"):
            statements.append(self.parse_statement())
            while self.at_sym(";"):
                self.advance()
        return Seq(statements)

    def parse_statement(self):
        start = self.peek()
        word = start.value if start.kind == "word" else None
        if word in ("skip", "abort"):
            self.advance()
            stmt = Skip() if word == "skip" else Abort()
        elif word in ("if", "while"):
            self.advance()
            cond, cond_span = self._parse_cond()
            if word == "while":
                stmt = While(cond, self._parse_block())
            else:
                then_branch = self._parse_block()
                else_branch = None
                if self.at_word("else"):
                    self.advance()
                    else_branch = self._parse_block()
                stmt = If(cond, then_branch, else_branch)
            stmt.cond_span = cond_span
        else:
            if word in ("assume", "assert"):
                self.advance()
                operand = self.peek()
                pred = self.expect_test(operand, self.parse_choice())
                stmt = Assume(pred) if word == "assume" else Assert(pred)
            else:
                stmt = ActionStmt(self.parse_choice())
            token = self.peek()
            if token.kind != "end" and not (token.kind == "sym" and token.value in (";", "}")):
                raise ParseError(f"found {token.value!r} after a statement", token.pos,
                                 self.text, expected=("';'", "'}'", "end of input"))
        stmt.span = (start.pos, self.consumed_end())
        return stmt

    def _parse_block(self):
        self.expect_sym("{")
        block = self.parse_statements()
        self.expect_sym("}")
        return block


def parse_program(text, theory):
    """Parse a While program over the given theory; returns a :class:`WhileProgram`.

    The returned program keeps the source text, and every parsed statement
    carries its ``(start, end)`` source span (``If``/``While`` additionally
    record ``cond_span``, the guard's range inside the parentheses).
    """
    parser = _ProgramParser(theory, text)
    body = parser.parse_statements()
    if not parser.at_end():
        token = parser.peek()
        raise ParseError(f"trailing input starting at {token.value!r}", token.pos, text,
                         expected=("a statement", "';'", "end of input"))
    return WhileProgram(body, theory, source=text)
