"""Tests for the command-line interface (the paper's partitioning tool)."""

import json

import pytest

from repro import cli
from repro.cli import build_theory, main
from repro.core.kmt import KMT
from repro.core.pushback import normalize_with_stats
from repro.engine.server import run_batch_lines
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

    def test_step_count_is_one_pushback_run(self, capsys):
        kmt = KMT(build_theory("incnat"))
        nf, stats = normalize_with_stats(kmt.parse("inc(x)*; x > 1"), kmt.theory)
        assert main(["--theory", "incnat", "norm", "inc(x)*; x > 1"]) == 0
        assert capsys.readouterr().err == (
            f"# {len(nf)} summands, {stats.steps} pushback steps\n")


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


#: A term nested past the interpreter's recursion limit.
DEEP = "(" * 3000 + "inc(x)" + ")" * 3000

#: ``op`` -> whether an ok result of that op means "yes" (exit 0).
_YES = {
    "equiv": lambda result: result["equivalent"],
    "inclusion": lambda result: result["includes"],
    "member": lambda result: result["member"],
    "norm": lambda result: True,
    "sat": lambda result: result["satisfiable"],
    "verify": lambda result: result["holds"],
    "prog_equiv": lambda result: result["equivalent"],
    "dead_code": lambda result: not result["dead"],
}


def _exit_code_of(response):
    if not response["ok"]:
        return 2
    return 0 if _YES[response["op"]](response["result"]) else 1


class TestOneShotVerbsTakeTheProtocolPath:
    """Every one-shot verb is one ``execute_record`` call, and its exit code
    is the verdict ``kmt batch`` gives the same record."""

    @pytest.mark.parametrize("argv, expected", [
        (["equiv", "inc(x); x > 1", "x > 0; inc(x)"], 0),
        (["equiv", "x > 1", "x > 2"], 1),
        (["incl", "inc(x)", "inc(x) + inc(y)"], 0),
        (["incl", "inc(x) + inc(y)", "inc(x)"], 1),
        (["member", "(inc(x))*; x > 1", "inc(x)", "inc(x)"], 0),
        (["member", "inc(x)", "inc(y)"], 1),
        (["norm", "inc(x)*; x > 1"], 0),
        (["sat", "x > 3; ~(x > 5)"], 0),
        (["sat", "x > 5; ~(x > 3)"], 1),
        (["verify", "i < 2", "while (i < 5) { i += 1; j += 2; }", "j > 5"], 0),
        (["verify", "i < 2", "while (i < 5) { i += 1; j += 2; }", "j > 20"], 1),
        (["prog-equiv", "skip;", "if (i > 0) { } else { }"], 0),
        (["prog-equiv", "inc(i);", "skip;"], 1),
        (["dead-code", "inc(i); inc(j);"], 0),
        (["dead-code", "assume i > 4; if (i < 3) { inc(i); }"], 1),
        (["sat", "x > !!"], 2),
        (["equiv", DEEP, "inc(x)"], 2),
        (["--theory", "nosuch", "sat", "true"], 2),
        (["--budget", "2000", "--theory", "bitvec", "equiv",
          "(flip a + flip b + flip c)*", "(flip a + flip b + flip c)*"], 2),
    ])
    def test_one_call_with_the_batch_verdict(self, argv, expected, monkeypatch, capsys):
        records = []
        execute_record = cli.execute_record

        def spy(pool, record, default_theory, fallback_id):
            records.append(dict(record))
            return execute_record(pool, record, default_theory, fallback_id)

        monkeypatch.setattr(cli, "execute_record", spy)
        code = main(argv)
        assert len(records) == 1
        budget = int(argv[argv.index("--budget") + 1]) if "--budget" in argv else 500_000
        (response,), _ = run_batch_lines([json.dumps(records[0])], budget=budget)
        assert code == expected == _exit_code_of(response)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if expected == 2:
            assert err == f"error: {response['error']}\n"


class TestOverDeepInput:
    """Input nested past the recursion limit is an ``error:`` line and exit 2
    on ``run`` and ``classes`` too, which do not go through the protocol."""

    @pytest.mark.parametrize("verb", ["run", "classes"])
    def test_clean_error(self, verb, tmp_path, capsys):
        terms_file = tmp_path / "terms.txt"
        terms_file.write_text(DEEP + "\n")
        argv = {"run": ["run", DEEP], "classes": ["classes", str(terms_file)]}[verb]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input nested too deeply: ")
        assert err.count("\n") == 1


class TestUnreadableFileArguments:
    """A file argument that cannot be read is a usage error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "true", "@{missing}", "true"],
        ["verify", "true", "@{directory}", "true"],
        ["verify", "true", "@{binary}", "true"],
        ["prog-equiv", "@{missing}", "skip;"],
        ["prog-equiv", "skip;", "@{missing}"],
        ["dead-code", "@{missing}"],
        ["classes", "{missing}"],
        ["classes", "{binary}"],
        ["query", "--connect", "127.0.0.1:9", "@{missing}"],
        ["batch", "{missing}"],
    ])
    def test_cannot_read(self, argv, tmp_path, capsys):
        binary = tmp_path / "binary.while"
        binary.write_bytes(b"\xff\xfe skip;")
        paths = {"missing": tmp_path / "missing.while", "directory": tmp_path,
                 "binary": binary}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert err.count("\n") == 1


class TestBatchUndecodableLines:
    """A batch line that is not UTF-8 is one ``malformed_request`` answer at
    its position; the lines around it are answered as usual."""

    DATA = (b'{"op": "sat", "pred": "x > 1"}\n\xff\n'
            b'{"op": "sat", "pred": "x > 2; ~(x > 1)"}\n')

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_one_malformed_answer(self, source, tmp_path, monkeypatch, capsys):
        import io

        if source == "file":
            path = tmp_path / "queries.jsonl"
            path.write_bytes(self.DATA)
            argv = ["batch", str(path)]
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.DATA)))
            argv = ["batch", "-"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [response["id"] for response in responses] == [0, 1, 2]
        assert responses[0]["result"] == {"satisfiable": True}
        assert responses[1]["error_code"] == "malformed_request"
        assert "not UTF-8" in responses[1]["error"]
        assert responses[2]["result"] == {"satisfiable": False}
