"""Acceptance suite: the nine end-to-end guarantees, one test each.

Each test prints a single PASS line with its headline numbers once its
assertions have gone through; a test that fails never reaches its print.
Criteria 1, 4 and 6 share one 500-instance rational ensemble (oblique
and prescribed, dimensions 1 through 10), built once and memoized; one
more test checks every eigenspace basis of that ensemble exactly.
"""

import time
from fractions import Fraction

import numpy as np

from projpair.cli import run_cli
from projpair.fitting import fitting_decomposition
from projpair.generators import (
    PrescribedSpec,
    PythagoreanBlock,
    ShearBlock,
    expected_dimensions,
    gen_pair_oblique_rational,
    gen_pair_orthogonal,
    gen_prescribed,
    mix_seed,
)
from projpair.index import (
    compute_eigenspaces,
    index_report,
    spectrum_symmetry_check,
    trace_power,
)
from projpair.linalg import is_invertible
from projpair.pairs import CentralizerElement, check_lemma3, derived_ops, to_float_pair
from projpair.symbolic import lemma_suite
from test_linalg import rref_fraction_loop

ODD_NS = (1, 3, 5, 7)

_BLOCK_MENU = (
    (),
    (PythagoreanBlock(2, 1),),
    (ShearBlock(Fraction(1, 2)),),
    (PythagoreanBlock(3, 2), ShearBlock(2)),
)


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def _oblique_instance(tag, i, max_dim):
    h = mix_seed(tag, i)
    dim = 1 + h % max_dim
    rank_p = (h >> 8) % (dim + 1)
    rank_q = (h >> 16) % (dim + 1)
    return gen_pair_oblique_rational(dim, rank_p, rank_q, seed=mix_seed(tag + 1, i))


def _prescribed_instance(tag, i):
    h = mix_seed(tag, i)
    kwargs = {
        "d10": h % 3,
        "d01": (h >> 2) % 3,
        "d11": (h >> 4) % 2,
        "d00": (h >> 6) % 2,
        "generic_blocks": _BLOCK_MENU[(h >> 8) % 4],
        "conjugate": bool((h >> 10) & 1),
        "seed": mix_seed(tag + 1, i),
    }
    if (
        kwargs["d10"] + kwargs["d01"] + kwargs["d11"] + kwargs["d00"] == 0
        and not kwargs["generic_blocks"]
    ):
        kwargs["d10"] = 1
    return PrescribedSpec(**kwargs)


_ENSEMBLE_CACHE = {}


def ensemble_500():
    """500 rational pairs with their reports, plus the build time."""
    if "data" not in _ENSEMBLE_CACHE:
        start = time.perf_counter()
        entries = []
        for i in range(250):
            pair = _oblique_instance(0xACC0, i, max_dim=10)
            entries.append((pair, index_report(pair, ODD_NS)))
        for i in range(250):
            pair, _ = gen_prescribed(_prescribed_instance(0xACC2, i))
            entries.append((pair, index_report(pair, ODD_NS)))
        _ENSEMBLE_CACHE["data"] = entries
        _ENSEMBLE_CACHE["elapsed"] = time.perf_counter() - start
    return _ENSEMBLE_CACHE["data"], _ENSEMBLE_CACHE["elapsed"]


def test_criterion_1_exact_integer_index(capsys):
    entries, elapsed = ensemble_500()
    assert len(entries) == 500
    dims_seen = set()
    for pair, rep in entries:
        dims_seen.add(pair.dim)
        values = {rep.traces[n] for n in ODD_NS}
        assert len(values) == 1, f"odd traces disagree on dim {pair.dim}"
        t = values.pop()
        assert t.denominator == 1
        assert t == rep.dims["e10"] - rep.dims["et01"]
        assert t == rep.dims["et10"] - rep.dims["e01"]
    assert dims_seen == set(range(1, 11))
    assert elapsed < 120.0, f"ensemble took {elapsed:.1f}s"
    announce(
        capsys,
        f"PASS criterion 1: 500 rational pairs, dims 1-10, n in {ODD_NS}, "
        f"trace = dim E10 - dim Et01 = dim Et10 - dim E01 exactly ({elapsed:.1f}s)",
    )


def test_ensemble_eigenspaces_hold_eigenvectors(capsys):
    entries, _ = ensemble_500()
    checked = 0
    for pair, _rep in entries:
        spaces = compute_eigenspaces(pair)
        pt, qt = pair.P.transpose(), pair.Q.transpose()
        for (a, b), primal, dual in (
            ((1, 0), spaces.E10, spaces.Et10),
            ((0, 1), spaces.E01, spaces.Et01),
            ((1, 1), spaces.E11, spaces.Et11),
            ((0, 0), spaces.E00, spaces.Et00),
        ):
            for p, q, x in ((pair.P, pair.Q, primal.basis), (pt, qt, dual.basis)):
                assert (p * x - a * x).is_zero() and (q * x - b * x).is_zero()
                checked += x.cols
    announce(
        capsys,
        f"PASS eigenspace bases: P x = a x and Q x = b x exactly for all "
        f"{checked} basis vectors of the 500 ensemble pairs (transposes for the duals)",
    )


def test_criterion_2_symbolic_lemma_suite(capsys):
    start = time.perf_counter()
    suite = lemma_suite(9)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in suite.results)
    assert all(r.difference.is_zero() for r in suite.results)
    names = {r.name for r in suite.results}
    for n in (3, 5, 7, 9):
        assert f"witness_m_minus_m{n}" in names
    assert elapsed < 1.0, f"suite took {elapsed:.3f}s"
    announce(
        capsys,
        f"PASS criterion 2: lemma_suite(9), {len(suite.results)} identities, "
        f"all zero differences ({elapsed * 1000:.0f}ms)",
    )


def test_criterion_3_inverse_commutator_residual(capsys):
    ts = (
        CentralizerElement.identity(),
        CentralizerElement.m_squared(),
        CentralizerElement((1, 1)),  # I + M^2
    )
    checked = 0
    i = 0
    while checked < 100:
        pair = _oblique_instance(0x3C0, i, max_dim=6)
        i += 1
        if not is_invertible(derived_ops(pair).S):
            continue
        for t in ts:
            assert check_lemma3(pair, t).is_zero()
        checked += 1
    announce(
        capsys,
        f"PASS criterion 3: exact zero residual on 100 invertible-S pairs "
        f"x 3 choices of T ({i} candidates drawn)",
    )


def test_criterion_4_proof_chain_verdicts(capsys):
    entries, _ = ensemble_500()
    chain = (
        "trace_split",
        "trace_y_zero",
        "trace_f_constant",
        "trace_f_rank_gap",
        "counting_identity",
        "dual_identification",
    )
    for pair, rep in entries:
        for name in chain:
            assert rep.verdicts[name], f"{name} failed on dim {pair.dim}"
        # the remaining verdicts must hold too; fail loudly if any slipped
        assert rep.all_verdicts_true, rep.failed_verdicts()
    announce(
        capsys,
        "PASS criterion 4: verdicts (i)-(vi) true on all 500 ensemble pairs "
        "(and the other six verdicts with them)",
    )


def test_criterion_5_prescribed_ground_truth(capsys):
    base_cases = []
    for d10 in range(3):
        for d01 in range(3):
            for d11 in range(2):
                for d00 in range(2):
                    for blocks in _BLOCK_MENU:
                        if d10 + d01 + d11 + d00 == 0 and not blocks:
                            continue
                        base_cases.append((d10, d01, d11, d00, blocks))
    base_cases = base_cases[:100]
    assert len(base_cases) == 100
    cases = 0
    for j, (d10, d01, d11, d00, blocks) in enumerate(base_cases):
        for conjugate in (False, True):
            spec = PrescribedSpec(
                d10=d10, d01=d01, d11=d11, d00=d00,
                generic_blocks=blocks, conjugate=conjugate, seed=mix_seed(0x5E5, j),
            )
            pair, index = gen_prescribed(spec)
            assert index == d10 - d01
            assert trace_power(pair, 1) == index
            assert trace_power(pair, 3) == index
            assert compute_eigenspaces(pair).dims() == expected_dimensions(spec)
            cases += 1
    announce(
        capsys,
        f"PASS criterion 5: {cases} prescribed cases (100 specs, plain and "
        "conjugated), index and all eight dimensions as prescribed",
    )


def test_criterion_6_fitting_certification(capsys):
    entries, _ = ensemble_500()
    max_k = 0
    for pair, _rep in entries:
        fd = fitting_decomposition(pair)
        assert fd.F.dim + fd.Y.dim == pair.dim
        assert (fd.S_F ** fd.k).is_zero()
        # plain Fraction Gauss-Jordan, independent of the split's own rank
        assert len(rref_fraction_loop(fd.S_Y)[1]) == fd.Y.dim
        spaces = compute_eigenspaces(pair)
        assert fd.F.contains(spaces.E10)
        assert fd.F.contains(spaces.E01)
        assert fd.k <= pair.dim
        max_k = max(max_k, fd.k)
    announce(
        capsys,
        f"PASS criterion 6: split certified on all 500 pairs "
        f"(dim F + dim Y = dim, S_F^k = 0, det S_Y != 0, E10 and E01 inside F, "
        f"k <= dim; largest k seen: {max_k})",
    )


def _s_spectrum_safe(pair):
    """No eigenvalue of S in the numerical danger zone (0, 1e-3).

    Anything below 1e-12 is an exact zero seen through roundoff.  The
    stated requirement only rules out (0, 1e-6); demanding the wider gap
    keeps every selected instance honestly decidable in floats.
    """
    s = derived_ops(pair).S
    values = np.linalg.eigvals(s.to_float().to_numpy())
    return all(abs(v) <= 1e-12 or abs(v) >= 1e-3 for v in values)


def test_criterion_7_float_exact_agreement(capsys):
    checked = 0
    i = 0
    while checked < 100:
        h = mix_seed(0x7A9, i)
        dim = 1 + h % 6
        pair = gen_pair_oblique_rational(
            dim, (h >> 8) % (dim + 1), (h >> 16) % (dim + 1),
            seed=mix_seed(0x7AA, i), entry_bound=2,
        )
        i += 1
        if not _s_spectrum_safe(pair):
            continue
        exact = index_report(pair, ODD_NS)
        approx = index_report(to_float_pair(pair), ODD_NS)
        assert approx.dims == exact.dims
        assert (approx.dim_F, approx.dim_Y, approx.fitting_k) == (
            exact.dim_F, exact.dim_Y, exact.fitting_k,
        )
        assert approx.index == exact.index
        for n in ODD_NS:
            assert abs(float(exact.traces[n]) - approx.traces[n]) <= 1e-8
        fd_e = fitting_decomposition(pair)
        fd_f = fitting_decomposition(to_float_pair(pair))
        assert fd_f.rank_sequence == fd_e.rank_sequence
        checked += 1
    announce(
        capsys,
        f"PASS criterion 7: float backend matches exact on 100 instances "
        f"(dims and ranks equal, traces within 1e-8; {i} candidates drawn)",
    )


def test_criterion_8_spectral_symmetry(capsys):
    paired_total = 0
    for i in range(100):
        h = mix_seed(0x8BA, i)
        pair = gen_pair_orthogonal(8, h % 9, (h >> 8) % 9, seed=mix_seed(0x8BB, i))
        rep = spectrum_symmetry_check(pair, tol=1e-8)
        assert rep.all_paired
        for a, b in rep.pairs:
            assert abs(rep.eigenvalues[a] + rep.eigenvalues[b]) <= 1e-8
        for idx in rep.excluded:
            lam = rep.eigenvalues[idx]
            assert min(abs(lam - t) for t in (-1.0, 0.0, 1.0)) <= 1e-8
        paired_total += 2 * len(rep.pairs)
        assert len(rep.excluded) + 2 * len(rep.pairs) == 8
    announce(
        capsys,
        f"PASS criterion 8: 100 random 8x8 orthogonal pairs, spectrum outside "
        f"{{-1,0,1}} fully negation-matched within 1e-8 ({paired_total} eigenvalues paired)",
    )


def test_criterion_9_cli_contract(capsys, tmp_path):
    verified = 0
    for seed in range(100):
        path = tmp_path / f"pair{seed:03d}.json"
        h = mix_seed(0x9C1, seed)
        kind = seed % 3
        if kind == 0:
            dim = 2 + h % 4
            args = ["gen", "--kind", "oblique", "--dim", str(dim),
                    "--rank-p", str((h >> 8) % (dim + 1)),
                    "--rank-q", str((h >> 16) % (dim + 1)),
                    "--seed", str(seed), "--out", str(path)]
        elif kind == 1:
            dim = 2 + h % 5
            args = ["gen", "--kind", "orthogonal", "--dim", str(dim),
                    "--rank-p", str((h >> 8) % (dim + 1)),
                    "--rank-q", str((h >> 16) % (dim + 1)),
                    "--seed", str(seed), "--out", str(path)]
        else:
            args = ["gen", "--kind", "prescribed",
                    "--d10", str(1 + h % 2), "--d01", str((h >> 4) % 2),
                    "--blocks", "pyth:2:1", "--conjugate",
                    "--seed", str(seed), "--out", str(path)]
        assert run_cli(args) == 0
        assert run_cli(["verify", "--input", str(path)]) == 0
        verified += 1
    capsys.readouterr()

    # byte determinism of the JSON report for rational inputs
    for seed in (0, 2, 3, 5, 6, 8, 9, 11, 12, 14):
        path = tmp_path / f"pair{seed:03d}.json"
        assert run_cli(["verify", "--input", str(path), "--json"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["verify", "--input", str(path), "--json"]) == 0
        assert capsys.readouterr().out == first

    sample = tmp_path / "pair000.json"
    assert run_cli(["verify", "--input", str(sample), "--n", "2"]) == 2
    assert "n must be odd and >= 1, got 2" in capsys.readouterr().err
    assert run_cli(["verify", "--input", str(sample), "--n", "0"]) == 2
    capsys.readouterr()

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"dim": 2, "field": "rational"')
    assert run_cli(["verify", "--input", str(corrupt)]) == 2
    not_idempotent = tmp_path / "notproj.json"
    not_idempotent.write_text(
        '{"dim": 1, "field": "rational", "P": [["2"]], "Q": [["0"]]}'
    )
    assert run_cli(["verify", "--input", str(not_idempotent)]) == 2
    capsys.readouterr()
    announce(
        capsys,
        f"PASS criterion 9: gen->verify exit 0 on {verified} seeds, even and "
        "zero n exit 2, corrupt input exit 2, JSON byte-deterministic",
    )
