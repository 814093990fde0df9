"""Regression tests for ParseError diagnostics: line/column, caret, expected.

docs/GRAMMAR.md promises that every rejection from either parser carries the
flat offset (backward compatible ``position``), a 1-based line/column pair, an
``expected …`` clause where the grammar knows what it wanted, and a caret
frame quoting the offending source line.  These tests pin that contract on
deterministic multi-line inputs; tests/test_grammar_fuzz.py checks the same
invariants on generated corruptions.
"""

from __future__ import annotations

import pytest

from repro.core import parser as core_parser
from repro.lang import parse_program
from repro.theories.incnat import IncNatTheory
from repro.utils.errors import ParseError, caret_frame, line_and_column


@pytest.fixture
def nat():
    return IncNatTheory(variables=("x", "y"))


class TestLineAndColumn:
    def test_first_character(self):
        assert line_and_column("abc", 0) == (1, 1)

    def test_after_newlines(self):
        text = "ab\ncd\nef"
        assert line_and_column(text, 3) == (2, 1)
        assert line_and_column(text, 7) == (3, 2)

    def test_position_at_end_of_text(self):
        text = "ab\ncd"
        assert line_and_column(text, len(text)) == (2, 3)

    def test_position_past_end_clamps(self):
        assert line_and_column("ab", 99) == (1, 3)

    def test_position_on_newline_char(self):
        assert line_and_column("ab\ncd", 2) == (1, 3)


class TestCaretFrame:
    def test_points_at_offset_within_line(self):
        frame = caret_frame("ab\ncde\nf", 4)
        assert frame == "  | cde\n  |  ^"

    def test_tabs_expand_consistently(self):
        # The caret must line up under the offending character even when the
        # line mixes tabs into the indentation.
        frame = caret_frame("\tx ?= 1", 3)
        excerpt, caret = frame.splitlines()
        assert "\t" not in frame
        assert caret.index("^") == excerpt.index("?")

    def test_end_of_input_points_past_last_char(self):
        frame = caret_frame("ab", 2)
        assert frame == "  | ab\n  |   ^"


class TestCoreParserDiagnostics:
    def test_unexpected_character_full_anatomy(self, nat):
        text = "x > 1;\nx ? 2"
        with pytest.raises(ParseError) as exc:
            core_parser.parse_term(text, nat)
        error = exc.value
        assert error.position == text.index("?")
        assert (error.line, error.column) == (2, 3)
        assert error.bare_message == "unexpected character '?'"
        message = str(error)
        assert "(at line 2, column 3)" in message
        assert "  | x ? 2\n  |   ^" in message

    def test_missing_close_paren_expected_clause(self, nat):
        with pytest.raises(ParseError) as exc:
            core_parser.parse_term("(x > 1; inc(x)", nat)
        error = exc.value
        assert error.expected == ("')'",)
        assert "expected ')'" in str(error)
        assert error.position == len("(x > 1; inc(x)")
        assert "end of input" in str(error)

    def test_empty_input_lists_atom_alternatives(self, nat):
        with pytest.raises(ParseError) as exc:
            core_parser.parse_term("", nat)
        message = str(exc.value)
        assert "expected one of:" in message
        for spelling in ("'('", "'~'", "a theory phrase"):
            assert spelling in message

    def test_trailing_input_expected_clause(self, nat):
        text = "inc(x) ) x > 1"
        with pytest.raises(ParseError) as exc:
            core_parser.parse_term(text, nat)
        assert "trailing input" in str(exc.value)
        assert "end of input" in str(exc.value)
        assert exc.value.position == text.rindex(")")

    def test_theory_phrase_error_anchored_at_phrase(self, nat):
        text = "inc(x);\nx +== 1"
        with pytest.raises(ParseError) as exc:
            core_parser.parse_term(text, nat)
        error = exc.value
        assert error.position == text.index("x +== 1")
        assert (error.line, error.column) == (2, 1)
        assert "cannot parse phrase" in error.bare_message

    def test_position_only_error_still_backward_compatible(self, nat):
        # Callers that predate line/column read .position; it must stay the
        # flat character offset into the originally-parsed text.
        with pytest.raises(ParseError) as exc:
            core_parser.parse_term("x > 1 +", nat)
        assert isinstance(exc.value.position, int)

    def test_error_without_position_has_no_location(self, nat):
        with pytest.raises(ParseError) as exc:
            core_parser.parse_pred("inc(x)", nat)
        error = exc.value
        assert error.position is None
        assert error.line is None and error.column is None
        assert "line" not in str(error)


class TestProgramParserDiagnostics:
    def test_error_inside_guard_points_into_program(self, nat):
        # The guard is read from the program's own token stream, so the
        # diagnostic points into the full multi-line program source.
        text = ("assume x > 1;\n"
                "while (x ? 3) {\n"
                "    inc(x);\n"
                "}\n")
        with pytest.raises(ParseError) as exc:
            parse_program(text, nat)
        error = exc.value
        assert error.position == text.index("?")
        assert (error.line, error.column) == (2, 10)
        assert "  | while (x ? 3) {" in str(error)

    def test_error_inside_assume_points_into_program(self, nat):
        text = "skip;\nskip;\nassume x >> 1;\n"
        with pytest.raises(ParseError) as exc:
            parse_program(text, nat)
        error = exc.value
        assert error.line == 3
        assert error.position >= text.index("x >>")

    def test_missing_brace_expected_clause(self, nat):
        text = "if (x > 1) {\n    inc(x);\n"
        with pytest.raises(ParseError) as exc:
            parse_program(text, nat)
        error = exc.value
        assert "'}'" in str(error)
        assert "end of input" in str(error)
        assert error.line == 3  # EOF lands just past the last newline

    def test_statement_junk_positioned(self, nat):
        text = "inc(x);\n} inc(y);"
        with pytest.raises(ParseError) as exc:
            parse_program(text, nat)
        error = exc.value
        assert error.position == text.index("}")
        assert (error.line, error.column) == (2, 1)

    def test_unterminated_guard_paren(self, nat):
        text = "while (x > 0 {\n    inc(x);\n}"
        with pytest.raises(ParseError) as exc:
            parse_program(text, nat)
        assert "unterminated" in str(exc.value)
        assert exc.value.line is not None


class TestExpectedTestPositions:
    """Every "expected a test" rejection points at the offending operand."""

    @pytest.mark.parametrize("entry, text, position, line, column", [
        ("term", "~inc(x)", 1, 1, 2),
        ("pred", "x > 1; inc(x)", 7, 1, 8),
        ("term", "if (inc(x)) then skip else skip", 4, 1, 5),
        ("program", "assume inc(x);", 7, 1, 8),
        ("program", "while (inc(x)) { skip; }", 7, 1, 8),
        ("program", "skip;\nif (x > 1) {\n    assert y > 0 + inc(y);\n}", 30, 3, 12),
        ("program", "skip;\nwhile (x > 1) {\n    assume ~inc(x);\n}", 34, 3, 13),
    ])
    def test_anchored_at_operand(self, nat, entry, text, position, line, column):
        parse = {"term": core_parser.parse_term, "pred": core_parser.parse_pred,
                 "program": parse_program}[entry]
        with pytest.raises(ParseError) as exc:
            parse(text, nat)
        error = exc.value
        assert error.bare_message.startswith("expected a test")
        assert (error.position, error.line, error.column) == (position, line, column)
        assert "^" in str(error)
