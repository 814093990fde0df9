"""Tests for the command-line interface (the paper's partitioning tool)."""

import pytest

from repro.cli import build_theory, main
from repro.theories.bitvec import BitVecTheory
from repro.theories.incnat import IncNatTheory
from repro.theories.ltlf import LtlfTheory
from repro.theories.netkat import NetKatTheory
from repro.theories.product import ProductTheory
from repro.utils.errors import KmtError


class TestTheoryPresets:
    def test_known_presets(self):
        assert isinstance(build_theory("incnat"), IncNatTheory)
        assert isinstance(build_theory("bitvec"), BitVecTheory)
        assert isinstance(build_theory("netkat"), NetKatTheory)
        assert isinstance(build_theory("product"), ProductTheory)
        assert isinstance(build_theory("ltlf-nat"), LtlfTheory)
        assert isinstance(build_theory("temporal-netkat"), LtlfTheory)

    def test_unknown_preset(self):
        with pytest.raises(KmtError):
            build_theory("quantum-gravity")


class TestEquivCommand:
    def test_equivalent_terms_exit_zero(self, capsys):
        code = main(["--theory", "incnat", "equiv", "inc(x); x > 1", "x > 0; inc(x)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "equivalent" in out

    def test_inequivalent_terms_exit_one(self, capsys):
        code = main(["--theory", "incnat", "equiv", "x > 1", "x > 2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT equivalent" in out
        assert "counterexample" in out

    def test_bitvec_theory_selection(self, capsys):
        code = main(["--theory", "bitvec", "equiv", "a := T; a = T", "a := T"])
        assert code == 0


class TestNormCommand:
    def test_norm_prints_summands(self, capsys):
        code = main(["--theory", "incnat", "norm", "inc(x)*; x > 1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "+" in captured.out
        assert "summands" in captured.err


class TestSatCommand:
    def test_sat(self, capsys):
        assert main(["--theory", "incnat", "sat", "x > 3; ~(x > 5)"]) == 0
        assert "satisfiable" in capsys.readouterr().out

    def test_unsat(self, capsys):
        assert main(["--theory", "incnat", "sat", "x > 5; ~(x > 3)"]) == 1
        assert "unsatisfiable" in capsys.readouterr().out


class TestRunCommand:
    def test_run_prints_traces(self, capsys):
        code = main(["--theory", "incnat", "run", "inc(x); inc(x)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "inc(x)" in out

    def test_run_rejecting_program(self, capsys):
        code = main(["--theory", "incnat", "run", "x > 5"])
        assert code == 1
        assert "no traces" in capsys.readouterr().out


class TestClassesCommand:
    def test_partitions_file(self, tmp_path, capsys):
        terms_file = tmp_path / "terms.txt"
        terms_file.write_text(
            "\n".join(
                [
                    "# population of equivalent and inequivalent terms",
                    "inc(x); x > 1",
                    "x > 0; inc(x)",
                    "inc(x)",
                    "",
                ]
            )
        )
        code = main(["--theory", "incnat", "classes", str(terms_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "class 0:" in out and "class 1:" in out
        assert "class 2:" not in out


class TestErrorHandling:
    def test_kmt_errors_reported_cleanly(self, capsys):
        code = main(["--theory", "nosuch", "sat", "true"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_budget_flag_threaded_through(self, capsys):
        code = main(
            ["--theory", "bitvec", "--budget", "2000", "equiv",
             "(flip a + flip b + flip c)*", "(flip a + flip b + flip c)*"]
        )
        assert code == 2
        assert "budget" in capsys.readouterr().err


class TestNumericOptionBounds:
    """Out-of-range numeric options are usage errors (exit 2), never a
    traceback or a server that leaves requests unanswered."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "0"],
        ["serve", "--queue-limit", "0"],
        ["serve", "--stripes", "0"],
        ["serve", "--slow-query-ms", "-1"],
        ["serve", "--snapshot", "snap.json", "--checkpoint-interval", "-5"],
        ["serve", "--checkpoint-interval", "0"],
        ["batch", "-", "--jobs", "0"],
        ["batch", "-", "--slow-query-ms", "nan"],
        ["route", "--socket", "127.0.0.1:0", "--backend", "127.0.0.1:1",
         "--queue-limit", "0"],
        ["route", "--socket", "127.0.0.1:0", "--backend", "127.0.0.1:1",
         "--ring-replicas", "0"],
        ["route", "--socket", "127.0.0.1:0", "--backend", "127.0.0.1:1",
         "--rate-limit", "0"],
        ["route", "--socket", "127.0.0.1:0", "--backend", "127.0.0.1:1",
         "--rate-limit", "5", "--rate-burst", "0"],
        ["serve", "--workers", "two"],
    ])
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    def test_zero_slow_query_threshold_is_allowed(self, capsys, monkeypatch, quiet_logging):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "sat", "pred": "x > 1"}\n'))
        assert main(["batch", "-", "--slow-query-ms", "0"]) == 0
        assert '"ok": true' in capsys.readouterr().out


class TestCellSearchFlag:
    def test_signature_output_by_default(self, capsys):
        code = main(["--theory", "incnat", "equiv", "inc(x); x > 1", "x > 0; inc(x)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "signatures" in out

    def test_enumerate_flag(self, capsys):
        """The cell enumerator is a test oracle now: the flag is a usage error
        wherever it appears."""
        for argv in (
            ["--theory", "incnat", "equiv", "--cell-search", "enumerate",
             "inc(x); x > 1", "x > 0; inc(x)"],
            ["--theory", "incnat", "--cell-search", "enumerate", "equiv",
             "inc(x); x > 1", "x > 0; inc(x)"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("usage: kmt")


class TestTheoryPresets:
    def test_sets_preset(self, capsys):
        code = main(["--theory", "sets", "equiv", "add(X, 3); in(X, 3)", "add(X, 3)"])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_maps_preset(self, capsys):
        code = main(["--theory", "maps", "sat", "m[1] = T"])
        assert code == 0
        assert "satisfiable" in capsys.readouterr().out


class TestVerifyCommand:
    def test_valid_triple_exits_zero(self, capsys):
        code = main(["--theory", "incnat", "verify",
                     "i < 2", "while (i < 5) { i += 1; j += 2; }", "j > 5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid" in out

    def test_invalid_triple_prints_witness(self, capsys):
        code = main(["--theory", "incnat", "verify",
                     "i < 2", "while (i < 5) { i += 1; j += 2; }", "j > 20"])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out
        assert "counterexample" in out
        assert "witness" in out

    def test_program_from_file(self, tmp_path, capsys):
        path = tmp_path / "prog.while"
        path.write_text("inc(i);\n", encoding="utf-8")
        code = main(["--theory", "incnat", "verify", "true", f"@{path}", "i > 0"])
        assert code == 0

    def test_parse_error_reported_cleanly(self, capsys):
        code = main(["--theory", "incnat", "verify", "true", "while (i { }", "true"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestProgEquivCommand:
    def test_equivalent_programs(self, capsys):
        code = main(["--theory", "incnat", "prog-equiv",
                     "skip;", "if (i > 0) { } else { }"])
        out = capsys.readouterr().out
        assert code == 0
        assert "equivalent" in out

    def test_inequivalent_programs(self, capsys):
        code = main(["--theory", "incnat", "prog-equiv", "inc(i);", "skip;"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT equivalent" in out


class TestDeadCodeCommand:
    def test_dead_statement_reported_with_caret(self, capsys):
        code = main(["--theory", "incnat", "dead-code",
                     "assume i > 4;\nif (i < 3) {\n    inc(i);\n}"])
        captured = capsys.readouterr()
        assert code == 1
        assert "DEAD" in captured.out
        assert "3:5" in captured.out          # the dead inc(i) statement
        assert "^" in captured.out            # caret frame into the source
        assert "reason: guard (i < 3)" in captured.out
        assert "1 dead of" in captured.err

    def test_live_program_exits_zero(self, capsys):
        code = main(["--theory", "incnat", "dead-code", "inc(i); inc(j);"])
        captured = capsys.readouterr()
        assert code == 0
        assert "DEAD" not in captured.out
