import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcheck import cli
from pathcheck.cli import main
from pathcheck.contraction import check
from pathcheck.formula import parse
from pathcheck.semantics import eval_seq
from pathcheck.trace import Trace, load_trace, to_csv

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def sat_trace(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,0\n1,0\n0,1\n")
    return str(p)


@pytest.fixture
def unsat_trace(tmp_path):
    p = tmp_path / "u.csv"
    p.write_text("a,b\n1,0\n1,0\n1,0\n")
    return str(p)


class TestCheck:
    def test_satisfied_exit_0(self, sat_trace, capsys):
        rc = main(["check", "--formula", "a U b", "--trace", sat_trace])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "SATISFIED"
        assert "engine=circuit" in out
        assert "stages=" in out
        assert "wall_ms=" in out

    def test_violated_exit_1(self, unsat_trace, capsys):
        rc = main(["check", "--formula", "a U b", "--trace", unsat_trace])
        assert rc == 1
        assert capsys.readouterr().out.splitlines()[0] == "VIOLATED"

    def test_naive_engine(self, sat_trace, capsys):
        rc = main(["check", "--formula", "a U b", "--trace", sat_trace,
                   "--engine", "naive"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine=naive" in out
        assert "stages=" not in out

    def test_engines_agree_on_fixture(self, sat_trace, capsys):
        for engine in ("circuit", "naive"):
            rc = main(["check", "--formula", "(a S b) | (b U a)",
                       "--trace", sat_trace, "--engine", engine])
            assert rc == 0
        capsys.readouterr()

    def test_emit_sequence(self, sat_trace, capsys):
        rc = main(["check", "--formula", "a U b", "--trace", sat_trace,
                   "--emit-sequence"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sequence=1,1,1" in out

    @pytest.mark.parametrize("engine", ["circuit", "naive"])
    @pytest.mark.parametrize("n", [1, 3, 14336])
    def test_emit_sequence_text(self, tmp_path, capsys, engine, n):
        # byte-identical to joining "1"/"0" per position with commas
        rng = np.random.default_rng(n)
        tr = Trace(rng.random((2, n)) < 0.5, ("a", "b"))
        path = tmp_path / "t.csv"
        path.write_text(to_csv(tr))
        text = "(a & X b) | Y !a"
        rc = main(["check", "--formula", text, "--trace", str(path),
                   "--engine", engine, "--emit-sequence"])
        out = capsys.readouterr().out
        seq = check(parse(text), tr, engine=engine).sequence
        assert rc == (0 if seq[0] else 1)
        lines = out.split("\n")
        assert len(lines) == 4 and lines[3] == ""
        assert lines[2] == "sequence=" + ",".join("1" if b else "0" for b in seq)
        assert len(lines[2]) == len("sequence=") + 2 * n - 1

    def test_formula_file(self, tmp_path, sat_trace, capsys):
        ff = tmp_path / "f.txt"
        ff.write_text("a U b\n")
        rc = main(["check", "--formula-file", str(ff), "--trace", sat_trace])
        assert rc == 0
        capsys.readouterr()

    def test_jsonl_trace(self, tmp_path, capsys):
        tf = tmp_path / "t.jsonl"
        tf.write_text('{"alphabet":["a","b"]}\n["a"]\n["b"]\n')
        rc = main(["check", "--formula", "a U b", "--trace", str(tf),
                   "--format", "jsonl"])
        assert rc == 0
        capsys.readouterr()

    def test_parse_error_exit_2(self, sat_trace, capsys):
        rc = main(["check", "--formula", "a U", "--trace", sat_trace])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error:" in captured.err
        assert "1:4" in captured.err

    def test_missing_trace_file_exit_2(self, capsys):
        rc = main(["check", "--formula", "a", "--trace", "/nonexistent.csv"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_both_formula_sources_exit_2(self, tmp_path, sat_trace, capsys):
        ff = tmp_path / "f.txt"
        ff.write_text("a")
        rc = main(["check", "--formula", "a", "--formula-file", str(ff),
                   "--trace", sat_trace])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_no_formula_exit_2(self, sat_trace, capsys):
        rc = main(["check", "--trace", sat_trace])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text,want",
        [("X " * 3000 + "a", 1), (" U ".join(["a"] * 2000), 0)],
        ids=["next_3000", "until_2000"],
    )
    def test_deeply_nested_decided(self, tmp_path, sat_trace, capsys, text, want):
        # nesting depth is bounded by the input size only: the verdict is
        # the oracle's
        f = tmp_path / "deep.ltl"
        f.write_text(text)
        oracle = eval_seq(load_trace(Path(sat_trace).read_text()), parse(text))
        assert want == (0 if oracle[0] else 1)
        rc = main(["check", "--formula-file", str(f), "--trace", sat_trace])
        out, err = capsys.readouterr()
        assert rc == want
        assert out.splitlines()[0] == ("SATISFIED" if want == 0 else "VIOLATED")
        assert err == ""

    def test_unknown_atom_exit_2(self, sat_trace, capsys):
        rc = main(["check", "--formula", "zz", "--trace", sat_trace])
        assert rc == 2
        assert "zz" in capsys.readouterr().err

    def test_non_utf8_trace_exit_2(self, tmp_path, capsys):
        tf = tmp_path / "bad.csv"
        tf.write_bytes(b"a,b\n1,0\n\xff,1\n")
        rc = main(["check", "--formula", "a U b", "--trace", str(tf)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {tf}: not valid UTF-8 at byte offset 8" in err
        assert "Traceback" not in err

    def test_non_utf8_formula_file_exit_2(self, tmp_path, sat_trace, capsys):
        ff = tmp_path / "bad.ltl"
        ff.write_bytes(b"a U \xc3(")
        rc = main(["check", "--formula-file", str(ff), "--trace", sat_trace])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {ff}: not valid UTF-8 at byte offset 4" in err

    def test_crlf_files(self, tmp_path, capsys):
        tf = tmp_path / "t.csv"
        tf.write_bytes(b"a,b\r\n1,0\r\n0,1\r\n")
        ff = tmp_path / "f.ltl"
        ff.write_bytes(b"a\r\nU b\r\n")
        rc = main(["check", "--formula-file", str(ff), "--trace", str(tf),
                   "--emit-sequence"])
        assert rc == 0
        assert "sequence=1,1" in capsys.readouterr().out

    def test_lone_cr_files(self, tmp_path, capsys):
        tf = tmp_path / "t.csv"
        tf.write_bytes(b"a,b\r1,0\r0,1\r")
        ff = tmp_path / "f.ltl"
        ff.write_bytes(b"a\rU b\r")
        rc = main(["check", "--formula-file", str(ff), "--trace", str(tf),
                   "--emit-sequence"])
        assert rc == 0
        assert "sequence=1,1" in capsys.readouterr().out


class TestDot:
    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # an oversized arity fails to allocate; that is an error line and
        # exit 2, not a traceback (no huge array is allocated here)
        import pathcheck.builder as builder_mod

        def too_large(n, op):
            raise MemoryError

        monkeypatch.setattr(builder_mod, "build_shift", too_large)
        rc = main(["dot", "--op", "X", "--arity", "100000000000"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "memory" in err
        assert "Traceback" not in err

    def test_oversized_arity_exits_2(self, capsys):
        # rejected before numpy is asked for an array it cannot describe
        rc = main(["dot", "--op", "X", "--arity", str(10**20)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "arity" in err
        assert "Traceback" not in err

    def test_builder_collapsed_row(self, capsys):
        rc = main(["dot", "--op", "U[3]", "--side", "right",
                   "--seq", "0,1,0,0,0,0,0,1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("digraph builder {")
        # the four chain gates of the collapsed row
        for edge in ("g8 -> g0", "g8 -> g9", "g12 -> g4", "g12 -> g13",
                     "g13 -> g5", "g13 -> g14", "g14 -> g6", "g14 -> g15"):
            assert f"  {edge};" in out
        assert out.count('[label="AND"]') == 4
        assert out.count('[label="1"]') == 2
        assert out.count('[label="0"]') == 2

    def test_builder_grid(self, capsys):
        rc = main(["dot", "--op", "U[3]", "--side", "left",
                   "--seq", "0,1,0,1,1,1,0,1"])
        out = capsys.readouterr().out
        assert rc == 0
        # 8 vars + 24 grid gates, Or at the four live interior columns per row
        assert out.count('[label="VAR"]') == 8
        assert out.count('[label="OR"]') == 12
        assert out.count('[label="ID"]') == 12

    def test_builder_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        rc = main(["dot", "--op", "wX", "--arity", "4",
                   "--emit-dot", str(target)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert target.read_text().startswith("digraph builder {")

    def test_builder_boolean(self, capsys):
        rc = main(["dot", "--op", "&", "--seq", "1,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count('[label="ID"]') == 1
        assert out.count('[label="0"]') == 1

    def test_bad_seq_exit_2(self, capsys):
        rc = main(["dot", "--op", "U[3]", "--side", "right", "--seq", "0,2,1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_op_exit_2(self, capsys):
        rc = main(["dot", "--op", "Z[1]", "--side", "right", "--seq", "0,1"])
        assert rc == 2
        capsys.readouterr()

    def test_missing_side_exit_2(self, capsys):
        rc = main(["dot", "--op", "U", "--seq", "0,1"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_builder_bound_above_n_builds_as_n(self, side, capsys):
        # a window never uses more than n steps: a 10^20 bound neither
        # overflows nor allocates 10^20 rows
        seq = ["--side", side, "--seq", "0,1"]
        assert main(["dot", "--op", "U[2]"] + seq) == 0
        want = capsys.readouterr().out
        assert main(["dot", "--op", f"U[{10 ** 20}]"] + seq) == 0
        assert capsys.readouterr().out == want

    def test_full_run_writes_stage_files(self, tmp_path, sat_trace, capsys):
        outdir = tmp_path / "stages"
        rc = main(["dot", "--formula", "(a U b) & (b S a)",
                   "--trace", sat_trace, "--emit-dot", str(outdir)])
        out = capsys.readouterr().out
        assert rc == 0
        files = sorted(p.name for p in outdir.iterdir())
        # 3 leaves -> 2 stages -> stage_00 through stage_02
        assert files == ["stage_00.dot", "stage_01.dot", "stage_02.dot"]
        assert "wrote 3 stage files" in out
        first = (outdir / "stage_00.dot").read_text()
        assert first.startswith("digraph stage0 {")
        assert "subgraph cluster_edge" in first

    def test_full_run_golden(self, tmp_path, sat_trace, capsys):
        outdir = tmp_path / "stages"
        rc = main(["dot", "--formula", "(a U b) & (b S a)",
                   "--trace", sat_trace, "--emit-dot", str(outdir)])
        capsys.readouterr()
        assert rc == 0
        golden = GOLDEN / "stages_until_since"
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in outdir.iterdir()) == names
        for name in names:
            assert (outdir / name).read_bytes() == (golden / name).read_bytes(), name

    def test_builder_golden(self, tmp_path, capsys):
        target = tmp_path / "grid.dot"
        rc = main(["dot", "--op", "U[3]", "--side", "left",
                   "--seq", "0,1,0,1,1,1,0,1", "--emit-dot", str(target)])
        capsys.readouterr()
        assert rc == 0
        assert target.read_bytes() == (GOLDEN / "builder_U3_left.dot").read_bytes()

    def test_full_run_non_utf8_exit_2(self, tmp_path, sat_trace, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a\n\xfe\n")
        outdir = str(tmp_path / "stages")
        for argv in (["--formula", "a", "--trace", str(bad)],
                     ["--formula-file", str(bad), "--trace", sat_trace]):
            rc = main(["dot", "--emit-dot", outdir] + argv)
            assert rc == 2
            assert f"error: {bad}: not valid UTF-8 at byte offset 2" in capsys.readouterr().err

    def test_full_run_unknown_atom_exit_2_as_check(self, tmp_path, sat_trace, capsys):
        outdir = tmp_path / "stages"
        assert main(["check", "--formula", "a U zz", "--trace", sat_trace]) == 2
        want = capsys.readouterr().err
        rc = main(["dot", "--formula", "a U zz", "--trace", sat_trace,
                   "--emit-dot", str(outdir)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == want and err.startswith("error: ") and "zz" in err
        assert out == "" and list(outdir.iterdir()) == []

    def test_full_run_needs_directory(self, sat_trace, capsys):
        rc = main(["dot", "--formula", "a", "--trace", sat_trace])
        assert rc == 2
        assert "emit-dot" in capsys.readouterr().err


# Near-misses of both formats reach the loaders' deeper checks; raw bytes
# reach the decoding.
_TRACE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet='ab01, \t\r\n"[]{}:', max_size=48).map(str.encode),
    st.binary(max_size=24).map(lambda tail: b"a,b\n1,0\n" + tail),
)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=_TRACE_BYTES, fmt=st.sampled_from(["csv", "jsonl"]),
           engine=st.sampled_from(["circuit", "naive"]))
    def test_arbitrary_trace_bytes(self, data, fmt, engine):
        with tempfile.TemporaryDirectory() as tmp:
            tf = Path(tmp) / f"t.{fmt}"
            tf.write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["check", "--formula", "(a U b) | Y a", "--trace", str(tf),
                           "--format", fmt, "--engine", engine])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert (rc == 2) == err.getvalue().startswith("error: ")


# Formula text from operator tokens, brackets, digits, blanks and stray
# characters, or any text at all.
_FORMULA_TEXT = st.one_of(
    st.lists(
        st.sampled_from(["a", "b", "zz", "true", "false", "!", "&", "|", "U", "R", "S", "T",
                         "F", "G", "O", "H", "X", "wX", "Y", "wY", "(", ")", "[", "]",
                         "0", "2", "17", " ", "\n", "\t", "\r", "$", "\u00e9"]),
        max_size=40,
    ).map("".join),
    st.text(max_size=40),
)


class TestFormulaFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=_FORMULA_TEXT, engine=st.sampled_from(["circuit", "naive"]))
    def test_arbitrary_formula_text(self, text, engine):
        with tempfile.TemporaryDirectory() as tmp:
            tf = Path(tmp) / "t.csv"
            tf.write_text("a,b\n1,0\n1,0\n0,1\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["check", f"--formula={text}", "--trace", str(tf),
                           "--engine", engine])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert (rc == 2) == err.getvalue().startswith("error: ")


class TestSelftest:
    def test_small_pass(self, capsys):
        rc = main(["selftest", "--cases", "40", "--max-size", "8",
                   "--max-len", "10", "--max-bound", "3",
                   "--processes", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS: 40 cases" in out
        assert "digest:" in out
        assert "seed 0" in out
        lines = out.splitlines()
        assert lines[0].startswith("selftest: 40 cases")
        rate = next(ln for ln in lines if ln.startswith("throughput: "))
        assert float(rate.split()[1]) > 0 and rate.endswith(" cases/s")
        slow = next(ln for ln in lines if ln.startswith("slowest cases: "))
        indices = [int(part.split()[0][1:]) for part in slow[len("slowest cases: "):].split(", ")]
        assert len(set(indices)) == 5 and all(0 <= i < 40 for i in indices)

    def test_multiprocess_pass(self, capsys):
        rc = main(["selftest", "--cases", "24", "--max-size", "8",
                   "--max-len", "10", "--processes", "2"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("seed,digest", [
        ("1", "148aa74ad4c5e534fccb5aa638ac30afdd11732ba04834e61847dca27cf0d20d"),
        ("7", "1d5de8c0537745f6cf2f078d46c66084b0d74921b3ab74a9b2273e6fefceee62"),
        ("42", "b970c88f8cf5734987464cd50715d6d82df8a95dfbe55386d6ef97e2683cc6d5"),
    ])
    def test_default_campaign_digest_is_pinned(self, capsys, seed, digest):
        rc = main(["selftest", "--cases", "2000", "--seed", seed, "--processes", "1"])
        assert rc == 0
        assert f"digest: {digest}" in capsys.readouterr().out.splitlines()

    def test_digest_reproducible(self, capsys):
        main(["selftest", "--cases", "30", "--max-size", "8", "--max-len", "8",
              "--seed", "5", "--processes", "1"])
        first = capsys.readouterr().out
        main(["selftest", "--cases", "30", "--max-size", "8", "--max-len", "8",
              "--seed", "5", "--processes", "1"])
        second = capsys.readouterr().out
        digest = [ln for ln in first.splitlines() if "digest:" in ln]
        assert digest == [ln for ln in second.splitlines() if "digest:" in ln]

    @pytest.mark.parametrize(
        "argv",
        [["--cases", "0"], ["--cases", "-3"], ["--max-len", "0"], ["--max-bound", "-1"],
         ["--max-size", "-5"], ["--max-size", "0"], ["--max-len", str(10**20)],
         ["--max-len", str(10**20), "--processes", "1"]],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_config_exit_2(self, argv, capsys):
        rc = main(["selftest", "--cases", "4", "--processes", "2"] + argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_fault_injection_fails_with_counterexample(self, capsys, monkeypatch):
        # reroute Until chains through Release: the campaign must notice,
        # report FAIL, and print a still-disagreeing minimized pair
        import pathcheck.builder as builder_mod

        real = builder_mod._raw_unbounded

        def wrong(n, op, known_side, known):
            if op == "U":
                op = "R"
            return real(n, op, known_side, known)

        monkeypatch.setattr(builder_mod, "_raw_unbounded", wrong)
        rc = main(["selftest", "--cases", "200", "--max-size", "10",
                   "--max-len", "12", "--max-bound", "3",
                   "--processes", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "first failing case" in out
        assert "minimized counterexample:" in out
        assert "formula:" in out
        assert "trace (csv):" in out


class TestParserReuse:
    def test_built_once(self, monkeypatch, sat_trace, capsys):
        real = cli._build_parser
        calls = []

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "_build_parser", counting)
        monkeypatch.setattr(cli, "_PARSER", None)
        assert main(["check", "--formula", "a U b", "--trace", sat_trace]) == 0
        assert main(["check", "--formula", "a U b", "--trace", sat_trace,
                     "--engine", "naive", "--emit-sequence"]) == 0
        assert main(["check", "--formula", "G a", "--trace", sat_trace]) == 1
        assert main([]) == 2
        assert len(calls) == 1
        out = capsys.readouterr().out
        assert out.count("sequence=") == 1

    @pytest.mark.parametrize("sub", ["check", "selftest"])
    def test_help_unchanged_on_reuse(self, monkeypatch, capsys, sub):
        monkeypatch.setattr(cli, "_PARSER", None)
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: pathcheck {sub}")


class TestTopLevel:
    def test_no_subcommand_prints_help(self, capsys):
        rc = main([])
        assert rc == 2
        assert "usage:" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "pathcheck", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "check" in proc.stdout
