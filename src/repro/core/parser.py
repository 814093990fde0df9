"""Extensible concrete-syntax parser for KMT terms (paper Section 4).

The core grammar knows only the regular/Boolean structure::

    expr   ::= seq ('+' seq)*
    seq    ::= star (';' star)*
    choice ::= star ('+' star)*          a While statement's test or action
    star   ::= atom '*'*
    atom   ::= '(' expr ')'
             | 'true' | 'false' | 'skip' | 'drop' | '1' | '0'
             | ('~' | '!' | 'not') atom
             | 'if' '(' expr ')' 'then' seq 'else' seq
             | 'while' '(' expr ')' 'do' seq ('end')?
             | <theory keyword form>        e.g. last(...), since(a, b)
             | <theory phrase>              e.g. x > 3, inc(x), a := T, f <- v

Everything domain specific is delegated to the client theory:

* ``theory.parser_keywords()`` maps keywords to callbacks that receive the
  parser and build a predicate (used by LTLf's ``last``/``since``/...);
* ``theory.parse_phrase(tokens)`` receives the raw tokens of a primitive
  phrase (a maximal run of non-structural tokens, with balanced parentheses
  and brackets kept inside) and returns one of ``("test", alpha)``,
  ``("action", pi)``, ``("pred", Pred)`` or ``("term", Term)``.

The While-program parser (:mod:`repro.lang.while_lang`) subclasses
:class:`Parser`, so statements and the tests and actions inside them are read
from one token list with one cursor.
"""

from __future__ import annotations

import re

from repro.core import terms as T
from repro.utils.errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<word>[A-Za-z_][A-Za-z_0-9']*)
  | (?P<sym>:=|<-|<=|>=|!=|==|\+=|\*=|=|<|>|\(|\)|\[|\]|\{|\}|,|;|\+|\*|~|!|\.)
    """,
    re.VERBOSE,
)

#: Words with structural meaning; theory phrases must not contain them.
RESERVED_WORDS = frozenset(
    {"if", "then", "else", "while", "do", "end", "not", "true", "false", "skip", "drop", "abort"}
)

#: Symbols that terminate a theory phrase (at bracket depth zero).  The
#: braces delimit While-program blocks; no shipped theory uses them.
_PHRASE_BOUNDARY_SYMS = frozenset({";", "+", "*", ")", ",", "{", "}"})

#: What the grammar allows at the start of an ``atom`` (see the module
#: docstring and docs/GRAMMAR.md); rendered into "expected one of …"
#: diagnostics when no production matches.
ATOM_EXPECTED = (
    "'('", "'~'", "'not'", "'true'", "'false'", "'skip'", "'drop'",
    "'if'", "'while'", "a theory phrase",
)


def _found(token):
    """Render a token for a diagnostic (``end`` reads as end of input)."""
    return "end of input" if token.kind == "end" else repr(token.value)


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"

    def __eq__(self, other):
        if isinstance(other, Token):
            return self.kind == other.kind and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.value))


def tokenize(text):
    """Tokenize the concrete syntax; raises :class:`ParseError` on junk."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup
        value = match.group()
        tokens.append(Token(kind, value, match.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


class Parser:
    """Recursive-descent parser parameterized by a client theory."""

    def __init__(self, theory, text):
        self.theory = theory
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.keywords = dict(theory.parser_keywords())
        # How many ``expr``s are open; outside every one (a While statement's
        # ``choice``) a bare ';' ends the statement instead of sequencing.
        self._open_exprs = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_sym(self, sym):
        token = self.peek()
        if token.kind == "sym" and token.value == sym:
            return self.advance()
        raise ParseError(f"found {_found(token)}", token.pos, self.text,
                         expected=(repr(sym),))

    def expect_word(self, word):
        token = self.peek()
        if token.kind == "word" and token.value == word:
            return self.advance()
        raise ParseError(f"found {_found(token)}", token.pos, self.text,
                         expected=(repr(word),))

    def at_sym(self, sym):
        token = self.peek()
        return token.kind == "sym" and token.value == sym

    def at_word(self, word):
        token = self.peek()
        return token.kind == "word" and token.value == word

    def at_end(self):
        return self.peek().kind == "end"

    def consumed_end(self):
        """The source offset just past the last consumed token."""
        token = self.tokens[self.index - 1]
        return token.pos + len(token.value)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_term(self):
        term = self.parse_expr()
        if not self.at_end():
            token = self.peek()
            raise ParseError(
                f"trailing input starting at {_found(token)}", token.pos, self.text,
                expected=("';'", "'+'", "'*'", "end of input"))
        return term

    def parse_pred(self):
        term = self.parse_term()
        pred = T.pred_of_term(term)
        if pred is not None:
            return pred
        # Re-read the input operand by operand to point at the first action
        # (the check needs the whole term: ``inc(x); 0`` denotes the test 0).
        self.index, self._open_exprs = 0, 1
        start = self.peek()
        while T.pred_of_term(self.parse_star()) is not None and not self.at_end():
            self.advance()  # the ';' or '+' between two operands
            start = self.peek()
        message = f"expected a test, got action {term.pretty()}"
        if start is self.tokens[0] and self.at_end():
            # The input is one action as a whole: nothing narrower to point at.
            raise ParseError(message)
        raise ParseError(message, start.pos, self.text)

    def expect_test(self, start, term):
        """The predicate ``term`` denotes; an action is rejected at ``start``.

        ``start`` is the first token of the operand ``term`` was parsed from,
        so the diagnostic points at the offending operand.
        """
        pred = T.pred_of_term(term)
        if pred is None:
            raise ParseError(f"expected a test, got action {term.pretty()}",
                             start.pos, self.text)
        return pred

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------
    def parse_expr(self):
        self._open_exprs += 1
        term = self.parse_seq()
        while self.at_sym("+"):
            self.advance()
            term = T.tplus(term, self.parse_seq())
        self._open_exprs -= 1
        return term

    def parse_seq(self):
        term = self.parse_star()
        while self._open_exprs and self.at_sym(";"):
            self.advance()
            term = T.tseq(term, self.parse_star())
        return term

    def parse_choice(self):
        """A While statement's test or action: a bare ``;`` ends it."""
        term = self.parse_star()
        while self.at_sym("+"):
            self.advance()
            term = T.tplus(term, self.parse_star())
        return term

    def parse_star(self):
        term = self.parse_atom()
        while self.at_sym("*"):
            self.advance()
            term = T.tstar(term)
        return term

    def parse_atom(self):
        token = self.peek()
        if token.kind == "sym" and token.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if ((token.kind == "sym" and token.value in ("~", "!"))
                or (token.kind == "word" and token.value == "not")):
            self.advance()
            operand = self.peek()
            return T.ttest(T.pnot(self.expect_test(operand, self.parse_atom())))
        if token.kind == "num" and token.value in ("0", "1") and self._standalone_number():
            self.advance()
            return T.tone() if token.value == "1" else T.tzero()
        if token.kind == "word":
            word = token.value
            if word in ("true", "skip"):
                self.advance()
                return T.tone()
            if word in ("false", "drop", "abort"):
                self.advance()
                return T.tzero()
            if word == "if":
                return self._parse_if()
            if word == "while":
                return self._parse_while()
            if word in self.keywords:
                self.advance()
                pred = self.keywords[word](self)
                return T.ttest(pred)
        return self._parse_phrase()

    def _standalone_number(self):
        """True iff the upcoming number is not the start of a theory phrase."""
        nxt = self.tokens[self.index + 1]
        return nxt.kind == "end" or (nxt.kind == "sym" and nxt.value in _PHRASE_BOUNDARY_SYMS)

    def _parse_cond(self):
        """``'(' expr ')'`` after ``if``/``while``: the test and its span.

        The span is the half-open source range of the test inside the
        parentheses (the While frontend records it as ``cond_span``).
        """
        self.expect_sym("(")
        start = self.peek()
        term = self.parse_expr()
        span = (start.pos, self.consumed_end())
        if not self.at_sym(")"):
            raise ParseError("unterminated '('", self.peek().pos, self.text,
                             expected=("')'",))
        self.advance()
        return self.expect_test(start, term), span

    def _parse_if(self):
        self.expect_word("if")
        cond, _ = self._parse_cond()
        self.expect_word("then")
        then_branch = self.parse_seq()
        self.expect_word("else")
        return T.tif(cond, then_branch, self.parse_seq())

    def _parse_while(self):
        self.expect_word("while")
        cond, _ = self._parse_cond()
        self.expect_word("do")
        body = self.parse_seq()
        if self.at_word("end"):
            self.advance()
        return T.twhile(cond, body)

    # ------------------------------------------------------------------
    # theory phrases
    # ------------------------------------------------------------------
    def _parse_phrase(self):
        start = self.peek()
        if start.kind == "end":
            raise ParseError("unexpected end of input", start.pos, self.text,
                             expected=ATOM_EXPECTED)
        depth = 0
        phrase = []
        while True:
            token = self.peek()
            if token.kind == "end":
                break
            if token.kind == "word" and token.value in RESERVED_WORDS and depth == 0:
                break
            if token.kind == "sym":
                if token.value in ("(", "["):
                    depth += 1
                elif token.value in (")", "]"):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and token.value in _PHRASE_BOUNDARY_SYMS:
                    break
                elif depth == 0 and token.value == "~":
                    break
            phrase.append(self.advance())
        if not phrase:
            raise ParseError(
                f"found {_found(start)}", start.pos, self.text, expected=ATOM_EXPECTED
            )
        try:
            kind, value = self.theory.parse_phrase(phrase)
        except ParseError as error:
            if error.position is not None:
                raise
            # Theories report *what* they could not parse but not where; the
            # phrase's first token anchors the diagnostic in the source.
            raise ParseError(error.bare_message, start.pos, self.text,
                             expected=error.expected) from None
        if kind == "test":
            return T.ttest(T.pprim(value))
        if kind == "action":
            return T.tprim(value)
        if kind == "pred":
            return T.ttest(value)
        if kind == "term":
            return value
        raise ParseError(
            f"theory {self.theory.name!r} returned unknown phrase kind {kind!r}"
        )


# ---------------------------------------------------------------------------
# helpers for theories implementing parse_phrase
# ---------------------------------------------------------------------------


def phrase_text(tokens):
    """Reassemble a phrase's tokens into a display string (for errors)."""
    return " ".join(t.value for t in tokens)


def match_phrase(tokens, *pattern):
    """Match a phrase against a pattern of expected token descriptions.

    Each pattern element is either a literal string (matched against the token
    text) or one of the placeholders ``"WORD"`` / ``"NUM"`` (matched against
    the token kind).  On success returns the list of values captured by the
    placeholders; on failure returns ``None``.
    """
    if len(tokens) != len(pattern):
        return None
    captured = []
    for token, expected in zip(tokens, pattern):
        if expected == "WORD":
            if token.kind != "word":
                return None
            captured.append(token.value)
        elif expected == "NUM":
            if token.kind != "num":
                return None
            captured.append(int(token.value))
        else:
            if token.value != expected:
                return None
    return captured


def parse_term(text, theory):
    """Parse a complete term in the given theory's syntax."""
    return Parser(theory, text).parse_term()


def parse_pred(text, theory):
    """Parse a complete predicate in the given theory's syntax."""
    return Parser(theory, text).parse_pred()
