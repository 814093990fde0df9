"""Tests for the While-language frontend (paper Section 1.1, Fig. 1)."""

import pytest

from repro.core import parser as core_parser
from repro.core import terms as T
from repro.core.kmt import KMT
from repro.lang import (
    Abort,
    ActionStmt,
    Assert,
    Assume,
    If,
    Seq,
    Skip,
    While,
    WhileProgram,
    compile_program,
    parse_program,
)
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import Gt, IncNatTheory, Incr
from repro.theories.product import ProductTheory
from repro.utils.errors import ParseError


@pytest.fixture
def nat():
    return IncNatTheory(variables=("i", "j"))


@pytest.fixture
def kmt(nat):
    return KMT(nat)


class TestStatementCompilation:
    def test_skip_and_abort(self):
        assert Skip().compile() is T.tone()
        assert Abort().compile() is T.tzero()

    def test_assume_and_assert_compile_to_tests(self, nat):
        pred = nat.gt("i", 3)
        assert Assume(pred).compile() == T.ttest(pred)
        assert Assert(pred).compile() == T.ttest(pred)

    def test_action_statement(self, nat):
        stmt = ActionStmt(nat.inc("i"))
        assert stmt.compile() == nat.inc("i")

    def test_seq_compiles_in_order(self, nat):
        block = Seq([ActionStmt(nat.inc("i")), ActionStmt(nat.inc("j"))])
        assert block.compile() == T.tseq(nat.inc("i"), nat.inc("j"))

    def test_if_desugars_to_guarded_choice(self, nat):
        cond = nat.gt("i", 0)
        stmt = If(cond, ActionStmt(nat.inc("i")), ActionStmt(nat.inc("j")))
        expected = T.tplus(
            T.tseq(T.ttest(cond), nat.inc("i")),
            T.tseq(T.ttest(T.pnot(cond)), nat.inc("j")),
        )
        assert stmt.compile() == expected

    def test_if_without_else_uses_skip(self, nat):
        cond = nat.gt("i", 0)
        stmt = If(cond, ActionStmt(nat.inc("i")))
        compiled = stmt.compile()
        assert isinstance(compiled, T.TPlus)

    def test_while_desugars_to_star(self, nat):
        cond = nat.lt("i", 2)
        stmt = While(cond, ActionStmt(nat.inc("i")))
        expected = T.tseq(
            T.tstar(T.tseq(T.ttest(cond), nat.inc("i"))), T.ttest(T.pnot(cond))
        )
        assert stmt.compile() == expected

    def test_compile_program_helpers(self, nat):
        stmt = ActionStmt(nat.inc("i"))
        program = WhileProgram([stmt], nat)
        assert compile_program(program) == nat.inc("i")
        assert compile_program(stmt) == nat.inc("i")
        with pytest.raises(TypeError):
            compile_program("not a program")

    def test_pretty_rendering(self, nat):
        program = WhileProgram(
            [Assume(nat.lt("i", 2)), While(nat.lt("i", 4), Seq([ActionStmt(nat.inc("i"))]))],
            nat,
        )
        rendered = program.pretty()
        assert "assume" in rendered and "while" in rendered
        assert "WhileProgram" in repr(program)


class TestParsing:
    def test_parse_simple_program(self, nat):
        program = parse_program("assume i < 2; inc(i); assert i > 0;", nat)
        term = program.compile()
        assert isinstance(term, T.TSeq)

    def test_parse_if_else_blocks(self, nat):
        source = """
        if (i > 0) {
            inc(j);
        } else {
            inc(i);
        }
        """
        program = parse_program(source, nat)
        assert isinstance(program.body.statements[0], If)

    def test_parse_while_block(self, nat):
        source = "while (i < 3) { inc(i); inc(j); }"
        program = parse_program(source, nat)
        loop = program.body.statements[0]
        assert isinstance(loop, While)
        assert isinstance(loop.body, Seq)
        assert len(loop.body.statements) == 2

    def test_parse_nested_control_flow(self, nat):
        source = """
        assume i < 1;
        while (i < 4) {
            if (j > 1) { inc(i); } else { inc(j); }
        }
        """
        program = parse_program(source, nat)
        loop = program.body.statements[1]
        assert isinstance(loop, While)
        assert isinstance(loop.body.statements[0], If)

    def test_skip_and_abort_statements(self, nat):
        program = parse_program("skip; abort;", nat)
        kinds = [type(s) for s in program.body.statements]
        assert kinds == [Skip, Abort]

    def test_unknown_statement_is_parse_error(self, nat):
        with pytest.raises(ParseError):
            parse_program("frobnicate the widget;", nat)

    def test_unbalanced_brace_is_parse_error(self, nat):
        with pytest.raises(ParseError):
            parse_program("while (i < 2) { inc(i);", nat)

    def test_missing_condition_is_parse_error(self, nat):
        with pytest.raises(ParseError):
            parse_program("while () { inc(i); }", nat)

    @pytest.mark.parametrize("source, offending", [
        ("assume i > 1 { inc(i); }", "{"),
        ("inc(i) ) ;", ")"),
        ("inc(i) then inc(j);", "then"),
    ])
    def test_statement_must_end_at_terminator(self, nat, source, offending):
        with pytest.raises(ParseError) as exc:
            parse_program(source, nat)
        assert exc.value.position == source.rindex(offending)

    def test_bare_semicolon_ends_a_core_if_term(self, nat):
        # Inside a statement only an expr sequences: the ';' after the core
        # ``if`` term's else branch ends the statement.
        program = parse_program("i > 1 + if (i > 1) then inc(i) else skip; inc(j);", nat)
        first, second = program.body.statements
        cond = nat.gt("i", 1)
        assert first.compile() is T.tplus(
            T.ttest(cond), T.tif(cond, nat.inc("i"), T.tone()))
        assert second.compile() is nat.inc("j")


class TestFig1Programs:
    def test_pnat_program_compiles_and_verifies(self, nat, kmt):
        """Fig. 1(a), scaled down: assume i<1; while (i<3) {inc i; inc j; inc j}; assert j>1."""
        source = """
        assume i < 1;
        while (i < 3) {
            inc(i); inc(j); inc(j);
        }
        assert j > 1;
        """
        program = parse_program(source, nat)
        term = program.compile()
        without_assert = parse_program(
            """
            assume i < 1;
            while (i < 3) {
                inc(i); inc(j); inc(j);
            }
            """,
            nat,
        ).compile()
        # The assert never fires: the loop adds at least 6 to j.
        assert kmt.equivalent(term, without_assert)
        # A too-strong assert does change the program.
        too_strong = T.tseq(without_assert, T.ttest(nat.gt("j", 9)))
        assert not kmt.equivalent(too_strong, without_assert)

    def test_loop_unfolding_equivalence(self, nat, kmt):
        """Section 1.1: the while loop equals its unfolding."""
        source = "while (i < 2) { inc(i); }"
        loop = parse_program(source, nat).compile()
        guard = nat.lt("i", 2)
        body = nat.inc("i")
        unfolded = T.tseq(
            T.tplus(
                T.tone(),
                T.tseq(T.tseq(T.ttest(guard), body), T.tstar(T.tseq(T.ttest(guard), body))),
            ),
            T.ttest(T.pnot(guard)),
        )
        assert kmt.equivalent(loop, unfolded)

    def test_product_theory_program(self):
        theory = ProductTheory(IncNatTheory(variables=("i",)), BitVecTheory(variables=("done",)))
        kmt = KMT(theory)
        source = """
        assume i < 1;
        done := F;
        while (i < 2) {
            inc(i);
        }
        done := T;
        assert done = T;
        """
        program = parse_program(source, theory)
        term = program.compile()
        stripped = parse_program(
            """
            assume i < 1;
            done := F;
            while (i < 2) {
                inc(i);
            }
            done := T;
            """,
            theory,
        ).compile()
        assert kmt.equivalent(term, stripped)


class TestSourceSpans:
    SOURCE = ("assume i < 2;\n"
              "if (i > 0) {\n"
              "    inc(i);\n"
              "} else {\n"
              "    inc(j);\n"
              "}\n"
              "while (j < 4) {\n"
              "    j += 2;\n"
              "}\n")

    def test_statement_spans_slice_the_source(self, nat):
        program = parse_program(self.SOURCE, nat)
        assume, branch, loop = program.body.statements
        text = self.SOURCE
        assert text[slice(*assume.span)] == "assume i < 2"
        assert text[slice(*branch.span)].startswith("if (i > 0) {")
        assert text[slice(*branch.span)].endswith("}")
        assert text[slice(*loop.span)].startswith("while (j < 4) {")
        then_stmt = branch.then_branch.statements[0]
        assert text[slice(*then_stmt.span)] == "inc(i)"
        body_stmt = loop.body.statements[0]
        assert text[slice(*body_stmt.span)] == "j += 2"

    def test_cond_spans_cover_the_guard_text(self, nat):
        program = parse_program(self.SOURCE, nat)
        _, branch, loop = program.body.statements
        assert self.SOURCE[slice(*branch.cond_span)] == "i > 0"
        assert self.SOURCE[slice(*loop.cond_span)] == "j < 4"

    def test_long_program_is_tokenized_once(self, nat, monkeypatch):
        # Statements, guards, tests and actions share one token stream.
        calls = []
        tokenize = core_parser.tokenize
        monkeypatch.setattr(core_parser, "tokenize",
                            lambda text: calls.append(text) or tokenize(text))
        copies = 70
        source = self.SOURCE * copies
        program = parse_program(source, nat)
        assert calls == [source]
        statements = program.body.statements
        assert len(statements) == 3 * copies
        for copy in range(copies):
            assume, branch, loop = statements[3 * copy:3 * copy + 3]
            assert source[slice(*assume.span)] == "assume i < 2"
            assert source[slice(*branch.span)].startswith("if (i > 0) {")
            assert source[slice(*branch.span)].endswith("}")
            assert source[slice(*branch.cond_span)] == "i > 0"
            assert source[slice(*branch.then_branch.statements[0].span)] == "inc(i)"
            assert source[slice(*loop.span)].startswith("while (j < 4) {")
            assert source[slice(*loop.cond_span)] == "j < 4"
            assert source[slice(*loop.body.statements[0].span)] == "j += 2"
            offset = copy * len(self.SOURCE)
            assert assume.span[0] == offset and loop.span[1] == offset + len(self.SOURCE) - 1

    def test_program_keeps_source_text(self, nat):
        program = parse_program(self.SOURCE, nat)
        assert program.source == self.SOURCE

    def test_hand_built_statements_have_no_span(self):
        stmt = Assume(T.pprim(Gt("i", 1)))
        assert stmt.span is None
        assert If(T.pprim(Gt("i", 1)), Skip(), Skip()).cond_span is None


class TestPrettyRoundTrip:
    def test_pretty_reparses_to_identical_term(self, nat):
        source = ("assume i < 2;\n"
                  "while (i < 5) {\n"
                  "    i += 1;\n"
                  "    if (j > 1) { inc(j); }\n"
                  "}\n"
                  "assert j > 0;\n")
        program = parse_program(source, nat)
        reparsed = parse_program(program.pretty(), nat)
        # Hash-consing makes term equality an identity check.
        assert reparsed.compile() is program.compile()

    def test_each_statement_pretty_reparses(self, nat):
        source = "assume i < 2; if (i > 0) { inc(i); } else { } abort;"
        program = parse_program(source, nat)
        for stmt in program.body.statements:
            again = parse_program(stmt.pretty(), nat)
            assert again.compile() is stmt.compile()
