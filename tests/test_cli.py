"""End-to-end CLI behavior through run_cli; only the cold-start checks,
which must see what a new process imports, start fresh interpreters."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from projpair.cli import _bridge_pair, run_cli
from projpair.generators import gen_pair_oblique_rational
from projpair.pairfile import save_pair
from projpair.pairs import derived_ops
from test_pairfile import MALFORMED


def run(capsys, *args):
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(tmp_path, name="pair.json", seed=5, dim=4, rp=2, rq=2):
    path = tmp_path / name
    save_pair(path, gen_pair_oblique_rational(dim, rp, rq, seed=seed))
    return path


class TestVerify:
    def test_single_file_roundtrip(self, tmp_path, capsys):
        path = write_pair(tmp_path)
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert "verdicts: 12/12 true" in out
        assert "index:" in out

    def test_json_goes_to_stdout_human_to_stderr(self, tmp_path, capsys):
        path = write_pair(tmp_path)
        code, out, err = run(capsys, "verify", "--input", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"dim", "ns", "traces", "dims", "fitting", "verdicts"}
        assert "verdicts: 12/12 true" in err

    def test_json_byte_deterministic(self, tmp_path, capsys):
        path = write_pair(tmp_path)
        _, out1, _ = run(capsys, "verify", "--input", str(path), "--json")
        _, out2, _ = run(capsys, "verify", "--input", str(path), "--json")
        assert out1 == out2

    def test_directory_sorted_by_filename(self, tmp_path, capsys):
        write_pair(tmp_path, "b.json", seed=2)
        write_pair(tmp_path, "a.json", seed=3)
        write_pair(tmp_path, "c.json", seed=4)
        code, out, err = run(capsys, "verify", "--input", str(tmp_path), "--json")
        assert code == 0
        docs = json.loads(out)
        assert [d["file"] for d in docs] == ["a.json", "b.json", "c.json"]
        assert err.index("== a.json ==") < err.index("== b.json ==") < err.index("== c.json ==")

    def test_directory_bad_file_reported_others_verified(self, tmp_path, capsys):
        good = [write_pair(tmp_path, "a.json", seed=3), write_pair(tmp_path, "c.json", seed=4)]
        (tmp_path / "b.json").write_text('{"bad": 1}')
        code, out, err = run(capsys, "verify", "--input", str(tmp_path), "--json")
        assert code == 2
        docs = json.loads(out)
        assert [d["file"] for d in docs] == ["a.json", "b.json", "c.json"]
        assert set(docs[1]) == {"file", "error"}
        assert docs[1]["error"].startswith("missing keys")
        for doc, path in zip((docs[0], docs[2]), good):
            _, single, _ = run(capsys, "verify", "--input", str(path), "--json")
            assert doc == {"file": path.name, "report": json.loads(single)}
        assert "== b.json ==\nerror: missing keys" in err
        assert err.count("verdicts: 12/12 true") == 2

        code, out, _ = run(capsys, "verify", "--input", str(tmp_path))
        assert code == 2
        assert out.index("== a.json ==") < out.index("== b.json ==\nerror:") < out.index("== c.json ==")

    def test_directory_with_one_file_is_a_batch(self, tmp_path, capsys):
        path = write_pair(tmp_path, "a.json", seed=3)
        code, out, err = run(capsys, "verify", "--input", str(tmp_path), "--json")
        assert code == 0
        _, single, _ = run(capsys, "verify", "--input", str(path), "--json")
        assert json.loads(out) == [{"file": "a.json", "report": json.loads(single)}]
        assert err.startswith("== a.json ==\n")

    def test_directory_with_one_bad_file_reports_it(self, tmp_path, capsys):
        (tmp_path / "b.json").write_text('{"bad": 1}')
        code, out, err = run(capsys, "verify", "--input", str(tmp_path), "--json")
        assert code == 2
        docs = json.loads(out)
        assert [set(doc) for doc in docs] == [{"file", "error"}]
        assert docs[0]["file"] == "b.json"
        assert docs[0]["error"].startswith("missing keys")
        assert err.startswith("== b.json ==\nerror: missing keys")

    def test_custom_powers(self, tmp_path, capsys):
        path = write_pair(tmp_path)
        code, out, _ = run(capsys, "verify", "--input", str(path), "--n", "1,7", "--json")
        assert code == 0
        assert json.loads(out)["ns"] == [1, 7]

    def test_even_power_rejected(self, tmp_path, capsys):
        path = write_pair(tmp_path)
        code, _, err = run(capsys, "verify", "--input", str(path), "--n", "2")
        assert code == 2
        assert "n must be odd and >= 1, got 2" in err

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        code, _, err = run(capsys, "verify", "--input", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path / "ghost.json"))
        assert code == 2

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--input", str(tmp_path))
        assert code == 2
        assert "no pair files" in err


class TestGen:
    def test_oblique_gen_then_verify(self, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        code, out, _ = run(
            capsys, "gen", "--kind", "oblique", "--dim", "5",
            "--rank-p", "2", "--rank-q", "3", "--seed", "11", "--out", str(out_path),
        )
        assert code == 0
        assert f"wrote {out_path}: dim=5 field=rational" in out
        code, out, _ = run(capsys, "verify", "--input", str(out_path))
        assert code == 0

    def test_orthogonal_gen_then_verify(self, tmp_path, capsys):
        out_path = tmp_path / "o.json"
        code, *_ = run(
            capsys, "gen", "--kind", "orthogonal", "--dim", "6",
            "--rank-p", "2", "--rank-q", "4", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        code, *_ = run(capsys, "verify", "--input", str(out_path))
        assert code == 0

    def test_prescribed_gen_reports_index(self, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        code, out, _ = run(
            capsys, "gen", "--kind", "prescribed", "--d10", "2", "--d01", "1",
            "--blocks", "pyth:2:1,shear:1/3", "--conjugate", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        assert "expected_index=1" in out
        assert "dim=7" in out
        code, *_ = run(capsys, "verify", "--input", str(out_path))
        assert code == 0

    def test_gen_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "oblique", "--dim", "4", "--rank-p", "1",
                "--rank-q", "2", "--seed", "21"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_rank_flags(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "oblique", "--dim", "4", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "needs --dim, --rank-p and --rank-q" in err

    def test_prescribed_rejects_rank_flags(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "prescribed", "--d10", "1", "--rank-p", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_prescribed_dim_crosscheck(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "prescribed", "--d10", "1", "--dim", "5",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "does not match the prescribed total" in err

    def test_bad_block_syntax(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "prescribed", "--d10", "1",
            "--blocks", "weird:1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "pyth:M:K or shear:T" in err


class TestLemma:
    def test_suite_and_bridge_pass(self, capsys):
        code, out, _ = run(capsys, "lemma", "--max-n", "7", "--numeric-samples", "3")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS numeric bridge:" in out
        assert "witness_m_minus_m7" in out

    def test_bridge_builds_exchange_operators(self, capsys):
        """The bridge evaluates U and V, which derived_ops builds and
        certifies on first access."""
        derived_ops.cache_clear()
        code, out, _ = run(capsys, "lemma", "--numeric-samples", "3")
        assert code == 0 and "PASS numeric bridge:" in out
        for i in range(3):
            ops = derived_ops(_bridge_pair(0xB71D6E, i))
            assert "_exchange" in vars(ops)
            assert ops.certificate.max_residual() == 0

    def test_bridge_can_be_skipped(self, capsys):
        code, out, _ = run(capsys, "lemma", "--max-n", "5", "--numeric-samples", "0")
        assert code == 0
        assert "numeric bridge" not in out

    def test_bad_max_n(self, capsys):
        code, _, err = run(capsys, "lemma", "--max-n", "4")
        assert code == 2


class TestSpectrum:
    def test_float_pair_csv(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        run(capsys, "gen", "--kind", "orthogonal", "--dim", "6", "--rank-p", "3",
            "--rank-q", "3", "--seed", "13", "--out", str(path))
        code, out, err = run(capsys, "spectrum", "--input", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,real,imag,status,partner"
        assert len(lines) == 7
        assert "unmatched" not in out
        assert "eigenvalues: 6 total" in err

    def test_rational_pair_conversion_notice(self, tmp_path, capsys):
        path = write_pair(tmp_path)
        code, out, err = run(capsys, "spectrum", "--input", str(path))
        assert code == 0
        assert "converted to float" in err

    def test_corrupt_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code, *_ = run(capsys, "spectrum", "--input", str(bad))
        assert code == 2


class TestTolerance:
    GOLDEN_FLOAT = str(pathlib.Path(__file__).parent / "data" / "golden" / "f8-orthogonal-d6.json")

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    def test_unusable_tolerance_exits_2(self, capsys, command, tol):
        # with tol = inf every float comparison would pass vacuously; the
        # spaced spelling must reach the same rule, also for -1e-9, which
        # argparse alone takes for an option
        for spelling in ([f"--tol={tol}"], ["--tol", tol]):
            code, out, err = run(capsys, command, "--input", self.GOLDEN_FLOAT, *spelling)
            assert code == 2
            assert out == ""
            assert "tolerances must be finite and strictly positive" in err

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_finite_tolerance_accepted(self, capsys, command):
        code, *_ = run(capsys, command, "--input", self.GOLDEN_FLOAT, "--tol", "1e-6")
        assert code == 0


class TestMalformedFiles:
    """A file the reader rejects is an input error (exit 2), never a crash,
    and in a batch it does not hide the reports of the other files."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2(self, tmp_path, capsys, command, case):
        bad = tmp_path / "bad.json"
        bad.write_text(MALFORMED[case])
        code, _, err = run(capsys, command, "--input", str(bad))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_batch_still_reports_the_good_file(self, tmp_path, capsys, case):
        (tmp_path / "a.json").write_text(MALFORMED[case])
        shutil.copy(GOLDEN / "r0-oblique-d3.json", tmp_path / "b.json")
        code, out, err = run(capsys, "verify", "--input", str(tmp_path), "--json")
        assert code == 2
        bad, good = json.loads(out)
        assert set(bad) == {"file", "error"} and bad["file"] == "a.json"
        want = json.loads((GOLDEN / "r0-oblique-d3.out").read_text(encoding="utf-8"))
        assert good == {"file": "b.json", "report": want}
        assert "== b.json ==" in err


class TestParsing:
    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_command_exits_2(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()


GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# A lazily bound numpy sits in sys.modules as a module that has not run;
# running numpy's __init__ imports its submodules, so those mark an import.
NUMPY_RAN = "any(name.startswith('numpy.') for name in sys.modules)"


def fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports projpair from src;
    return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestColdStart:
    def test_import_loads_no_numpy_generators_or_symbolic(self):
        loaded = fresh("import json, sys, projpair; print(json.dumps(sorted(sys.modules)))")
        assert "projpair" in loaded
        assert not {"numpy", "projpair.symbolic", "projpair.generators"} & set(loaded)

    @pytest.mark.parametrize(
        "name, numpy_ran", [("r0-oblique-d3", False), ("f8-orthogonal-d6", True)]
    )
    def test_verify_imports_numpy_only_for_floats(self, capsys, name, numpy_ran):
        """A small rational pair runs without numpy; a float pair loads it
        on first use and gives the same bytes as in this process, where
        numpy was imported eagerly (test_golden holds those to the .out)."""
        path = str(GOLDEN / f"{name}.json")
        code, out, ran = fresh(
            "import contextlib, io, json, sys\n"
            "import projpair.cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = projpair.cli.main(['verify', '--input', sys.argv[1], '--json'])\n"
            f"print(json.dumps([code, out.getvalue(), {NUMPY_RAN}]))",
            path,
        )
        assert (code, ran) == (0, numpy_ran)
        assert out == run(capsys, "verify", "--input", path, "--json")[1]
        if not numpy_ran:
            assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")

    def test_public_names_resolve_in_a_fresh_interpreter(self):
        """Submodules first, then every exported name, none of them
        imported beforehand; an unknown name is still an AttributeError."""
        modules, missing, exported, unknown = fresh(
            "import json, projpair as pp\n"
            "modules = [m.__name__ for m in (pp.pairs, pp.index, pp.pairfile, pp.errors)]\n"
            "missing = [name for name in pp.__all__ if not hasattr(pp, name)]\n"
            "print(json.dumps([modules, missing, sorted(pp._SOURCE) == sorted(pp.__all__),"
            " hasattr(pp, 'no_such_name')]))"
        )
        assert modules == ["projpair.pairs", "projpair.index", "projpair.pairfile", "projpair.errors"]
        assert missing == []
        assert exported and not unknown
