"""Golden corpus: ``verify --json`` output must not drift.

``tests/data/golden`` holds pair files drawn from fixed ``mix_seed``
seeds and the stdout that ``projpair verify --input FILE --json`` gave
for each (see ``make_corpus.py`` there).  Rational reports are exact, so
they must match byte for byte.  Float reports must agree on everything
but the trace values, which may move in the last bits when BLAS sums in
another order; those must stay within 1e-12 relative to max(1, |value|),
because a trace that should be zero is itself roundoff.  They must do so
under ``--tol 1e-6`` too: the comparison tolerance moves no rank
decision, so no dimension and no verdict may change with it.
"""

import json
import pathlib

import pytest

from projpair import linalg
from projpair.cli import run_cli
from test_linalg import primes_after

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))
TRACE_TOL = 1e-12


def verify_json(capsys, name, *extra):
    code = run_cli(["verify", "--input", str(GOLDEN / f"{name}.json"), "--json", *extra])
    return code, capsys.readouterr().out


def test_corpus_size():
    assert sum(c.startswith("r") for c in CASES) == 8
    assert sum(c.startswith("f") for c in CASES) == 4


@pytest.mark.parametrize("name", [c for c in CASES if c.startswith("r")])
def test_rational_report_byte_identical(capsys, name):
    code, out = verify_json(capsys, name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "primes", [None, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)], ids=["own_primes", "tiny_primes"]
)
@pytest.mark.parametrize("name", [c for c in CASES if c.startswith("r")])
def test_rational_report_through_the_primes(capsys, monkeypatch, name, primes):
    """With the size rule lowered to one row and column every exact
    elimination runs modulo the primes: the default ones, or the first
    primes ahead of them, which lose pivots and stop rational
    reconstruction early.  Every product with rows, inner dimension and
    columns then runs through 16-bit limbs in one float64 GEMM.  No
    answer may move."""
    monkeypatch.setattr(linalg, "MODULAR_MIN_DIM", 1)
    if primes:
        monkeypatch.setattr(linalg, "_prime", primes_after(primes))
    code, out = verify_json(capsys, name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", [c for c in CASES if c.startswith("f")])
def test_float_report_matches(capsys, name):
    want = json.loads((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))
    want_traces = want.pop("traces")
    for extra in ((), ("--tol", "1e-6")):
        code, out = verify_json(capsys, name, *extra)
        assert code == 0, extra
        got = json.loads(out)
        got_traces = got.pop("traces")
        assert got == want, extra
        assert got_traces.keys() == want_traces.keys()
        for n, value in want_traces.items():
            assert abs(got_traces[n] - value) <= TRACE_TOL * max(1.0, abs(value)), (extra, n)
