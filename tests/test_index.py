"""Eigenspace counts, odd-power traces, verdicts, spectrum pairing."""

import json
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_fitting import jordan_pair

from projpair import linalg
from projpair.errors import FieldMismatch, ProjpairError, RestrictionFailure
from projpair.fitting import fitting_decomposition
from projpair.generators import (
    PrescribedSpec,
    PythagoreanBlock,
    ShearBlock,
    gen_pair_oblique_rational,
    gen_pair_orthogonal,
    gen_prescribed,
    mix_seed,
    random_unimodular,
)
from projpair.index import (
    _mixed_image_dims,
    _odd_power_traces,
    compute_eigenspaces,
    eigenspace_dims,
    index_report,
    spectrum_symmetry_check,
    trace_power,
)
from projpair.linalg import Matrix, Subspace, rank, subspace_intersection
from projpair.pairs import commutator_witness, derived_ops, make_pair, to_float_pair
from projpair.scalars import FLOAT, RATIONAL

VERDICT_NAMES = {
    "trace_split",
    "trace_y_zero",
    "trace_f_constant",
    "trace_f_rank_gap",
    "counting_identity",
    "dual_identification",
    "counting_identity_mirror",
    "dual_identification_mirror",
    "index_formula_dual10",
    "index_formula_e10",
    "integer_trace",
    "balance",
}


def diag_pair():
    p = Matrix([[1, 0], [0, 0]], RATIONAL)
    q = Matrix([[0, 0], [0, 1]], RATIONAL)
    return make_pair(p, q)


def shear_pair():
    p = Matrix([[1, 1], [0, 0]], RATIONAL)
    q = Matrix([[1, 0], [0, 0]], RATIONAL)
    return make_pair(p, q)


def oblique(i, lo=2, hi=6):
    h = mix_seed(0x1DE, i)
    dim = lo + h % (hi - lo + 1)
    return gen_pair_oblique_rational(
        dim, (h >> 8) % (dim + 1), (h >> 16) % (dim + 1), seed=mix_seed(0x1DF, i)
    )


class TestEigenspaces:
    def test_full_vs_zero_projection(self):
        pair = make_pair(Matrix.identity(3, RATIONAL), Matrix.zeros(3, 3, RATIONAL))
        dims = compute_eigenspaces(pair).dims()
        assert dims["e10"] == 3 and dims["et10"] == 3
        assert sum(dims.values()) == 6

    def test_complementary_diagonals(self):
        dims = compute_eigenspaces(diag_pair()).dims()
        assert dims == {
            "e10": 1, "e01": 1, "e11": 0, "e00": 0,
            "et10": 1, "et01": 1, "et11": 0, "et00": 0,
        }

    def test_shear_asymmetry(self):
        # e1 is fixed by both projections, while only the transposed pair
        # annihilates a common covector: primal and dual counts differ.
        dims = compute_eigenspaces(shear_pair()).dims()
        assert dims["e11"] == 1 and dims["e00"] == 0
        assert dims["et11"] == 0 and dims["et00"] == 1
        space = compute_eigenspaces(shear_pair()).Et00
        assert space.contains(Subspace(Matrix([[0], [1]], RATIONAL)))

    def test_one_and_zero_spaces_meet_trivially(self):
        for i in range(10):
            spaces = compute_eigenspaces(oblique(i))
            assert subspace_intersection(spaces.E10, spaces.E01).dim == 0

    def test_float_agrees_with_exact(self):
        for i in range(8):
            pair = oblique(i)
            exact = compute_eigenspaces(pair).dims()
            approx = compute_eigenspaces(to_float_pair(pair)).dims()
            assert approx == exact


def rank_formula_dims(pair):
    """The eight dims from traces and ranks alone, with no kernel or
    intersection.

    For idempotents A and B, dim(im A cap im B) = rank A + rank B -
    rank [A | B], and the rank of an idempotent is its trace.  E_ab is
    im A cap im B with A = P for a = 1, I - P for a = 0 (likewise B from
    Q and b), and the et-dims take the transposes.
    """

    def meets(p, q):
        eye = Matrix.identity(p.rows, RATIONAL)
        a_side = {1: p, 0: eye - p}
        b_side = {1: q, 0: eye - q}
        # traces stay Fractions, so a non-integral one cannot match a dim
        return {
            f"{a}{b}": a_side[a].trace() + b_side[b].trace()
            - rank(a_side[a].hstack(b_side[b]))
            for a in (1, 0)
            for b in (1, 0)
        }

    dims = {f"e{k}": v for k, v in meets(pair.P, pair.Q).items()}
    dims.update(
        {f"et{k}": v for k, v in meets(pair.P.transpose(), pair.Q.transpose()).items()}
    )
    return dims


@st.composite
def oracle_pairs(draw):
    """Oblique, prescribed and Jordan-block (Fitting exponent up to 5) pairs."""
    family = draw(st.sampled_from(["oblique", "prescribed", "jordan"]))
    if family == "jordan":
        return jordan_pair(draw(st.integers(1, 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "oblique":
        dim = draw(st.integers(1, 8))
        ranks = st.integers(0, dim)
        return gen_pair_oblique_rational(dim, draw(ranks), draw(ranks), seed=seed)
    d10, d01, d11, d00 = (draw(st.integers(0, 2)) for _ in range(4))
    blocks = draw(
        st.lists(
            st.one_of(
                st.builds(ShearBlock, st.integers(1, 4).map(lambda t: Fraction(t, 3))),
                st.integers(2, 4).flatmap(
                    lambda m: st.integers(1, m - 1).map(lambda k: PythagoreanBlock(m, k))
                ),
            ),
            max_size=2,
        )
    )
    assume(d10 + d01 + d11 + d00 + len(blocks) > 0)
    spec = PrescribedSpec(
        d10=d10, d01=d01, d11=d11, d00=d00, generic_blocks=tuple(blocks),
        conjugate=draw(st.booleans()), seed=seed,
    )
    return gen_prescribed(spec)[0]


def kernel_route_dims(pair):
    return compute_eigenspaces(pair).dims()


def edge_pairs():
    """Pairs on which one elimination of an idempotent gives degenerate
    bases: P or Q = 0 or I (empty pivot or free columns), d = 1, and
    Fitting exponents 2..4."""
    other = gen_pair_oblique_rational(4, 2, 3, seed=17)
    zero, eye = Matrix.zeros(4, 4, RATIONAL), Matrix.identity(4, RATIONAL)
    pairs = {
        "P=0": make_pair(zero, other.Q),
        "P=I": make_pair(eye, other.Q),
        "Q=0": make_pair(other.P, zero),
        "Q=I": make_pair(other.P, eye),
    }
    for p in (0, 1):
        for q in (0, 1):
            pairs[f"d1-{p}{q}"] = make_pair(Matrix([[p]], RATIONAL), Matrix([[q]], RATIONAL))
    for m in (2, 3, 4):
        pairs[f"jordan{m}"] = jordan_pair(m)
    return pairs


EDGE_PAIRS = edge_pairs()


class TestRankFormulaOracle:
    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    @pytest.mark.parametrize(
        "route", [kernel_route_dims, eigenspace_dims], ids=["kernels", "basis_products"]
    )
    @given(pair=oracle_pairs())
    @settings(max_examples=80, deadline=None)
    def test_eight_dims_match_oracle(self, route, field, pair):
        """Both eigenspace routes against the exact block-rank oracle, on
        the pair and on its float conversion (non-symmetric float pairs)."""
        want = rank_formula_dims(pair)
        assert route(pair if field == RATIONAL else to_float_pair(pair)) == want

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("name", sorted(EDGE_PAIRS))
    def test_edge_idempotents(self, name, field):
        pair = EDGE_PAIRS[name]
        x = pair if field == RATIONAL else to_float_pair(pair)
        assert eigenspace_dims(x) == kernel_route_dims(x) == rank_formula_dims(pair)

    def test_formula_on_known_dims(self):
        assert rank_formula_dims(diag_pair()) == {
            "e10": 1, "e01": 1, "e11": 0, "e00": 0,
            "et10": 1, "et01": 1, "et11": 0, "et00": 0,
        }
        dims = rank_formula_dims(shear_pair())
        assert (dims["e11"], dims["et00"]) == (1, 1)


class TestAvronSeilerSimon:
    """Avron, Seiler and Simon 1994: for orthogonal projections M = P - Q
    is symmetric, E10 = ker(M - I) and E01 = ker(M + I), so those two
    dims are counts of eigenvalues of M, with no kernel and no rank."""

    def test_dims_count_unit_eigenvalues(self):
        for dim in range(2, 65):
            h = mix_seed(0xA55, dim)
            pair = gen_pair_orthogonal(dim, (h >> 8) % (dim + 1), (h >> 16) % (dim + 1), seed=h)
            values = np.linalg.eigvalsh(derived_ops(pair).M.to_numpy())
            tol = pair.pol.compare_abs_tol
            dims = index_report(pair).dims
            assert dims["e10"] == np.sum(np.abs(values - 1) <= tol)
            assert dims["e01"] == np.sum(np.abs(values + 1) <= tol)
            # a symmetric pair is its own transpose
            for key in ("10", "01", "11", "00"):
                assert dims["et" + key] == dims["e" + key]


class TestTracePower:
    def test_identity_vs_zero(self):
        pair = make_pair(Matrix.identity(3, RATIONAL), Matrix.zeros(3, 3, RATIONAL))
        assert trace_power(pair, 1) == 3
        assert trace_power(pair, 5) == 3

    def test_pythagorean_block_traces_vanish(self):
        block = PythagoreanBlock(2, 1)
        p = Matrix([[1, 0], [0, 0]], RATIONAL)
        pair = make_pair(p, Matrix(block.q_block(), RATIONAL))
        m = pair.P - pair.Q
        # M^3 is proportional to M here, and tr M = 0
        assert m ** 3 == Fraction(16, 25) * m
        for n in (1, 3, 5, 7):
            assert trace_power(pair, n) == 0

    def test_odd_powers_all_agree(self):
        for i in range(12):
            pair = oblique(i)
            values = {trace_power(pair, n) for n in (1, 3, 5, 7)}
            assert len(values) == 1
            assert next(iter(values)).denominator == 1

    def test_power_validation(self):
        with pytest.raises(ProjpairError):
            trace_power(diag_pair(), 0)


ODD = tuple(range(1, 16, 2))


def odd_subsets(rng, count):
    """(9,) alone, all odd n up to 15 unsorted, then random unsorted subsets."""
    subsets = [(9,), tuple(reversed(ODD))]
    for _ in range(count):
        ns = rng.sample(ODD, rng.randint(1, len(ODD)))
        subsets.append(tuple(ns))
    return subsets


class TestOddPowerTraces:
    """The half-power traces against the traces of the full powers."""

    def test_exact_on_rational_pairs(self):
        rng = random.Random(5)
        for pair in [oblique(i, 1, 8) for i in range(6)] + [jordan_pair(3)]:
            m, s = derived_ops(pair).M, derived_ops(pair).S
            want = {n: (m**n).trace() for n in ODD}
            for ns in odd_subsets(rng, 12):
                got = _odd_power_traces(m, s, ns)
                assert list(got) == list(ns)
                assert got == {n: want[n] for n in ns}

    def test_close_on_float_pairs(self):
        rng = random.Random(6)
        for dim in (1, 5, 16, 40):
            h = mix_seed(0x0DD, dim)
            pair = gen_pair_orthogonal(dim, (h >> 8) % (dim + 1), (h >> 16) % (dim + 1), seed=h)
            m, s = derived_ops(pair).M, derived_ops(pair).S
            want = {n: (m**n).trace() for n in ODD}
            for ns in odd_subsets(rng, 6):
                for n, value in _odd_power_traces(m, s, ns).items():
                    assert abs(value - want[n]) <= 1e-12 * max(1.0, abs(want[n])), (dim, n)

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    def test_empty_block(self, field):
        empty = Matrix.zeros(0, 0, field)
        assert _odd_power_traces(empty, empty, (7, 1, 3)) == {7: 0, 1: 0, 3: 0}


def mixed_images_by_products(fd, pair):
    """The two mixed-image dims from P B and Q B, B the basis of F: the
    form the report used before it read them off P_F and Q_F."""
    if fd.F.dim == 0:
        return 0, 0
    b = fd.F.basis
    pb, qb = pair.P * b, pair.Q * b
    return rank((b - pb).hstack(qb)), rank(pb.hstack(b - qb))


def mixed_edge_pairs():
    """Jordan pairs (F the whole space, k = 1..5), a pair with F = 0 (P =
    Q, so S = I) and one with F the whole space at k = 1 (P = I, Q = 0)."""
    other = gen_pair_oblique_rational(6, 2, 4, seed=29)
    pairs = {f"jordan{m}": jordan_pair(m) for m in range(1, 6)}
    pairs["F=0"] = make_pair(other.P, other.P)
    pairs["F=X"] = make_pair(Matrix.identity(6, RATIONAL), Matrix.zeros(6, 6, RATIONAL))
    return pairs


MIXED_EDGE_PAIRS = mixed_edge_pairs()


class TestMixedImageDims:
    """The mixed images read off the restricted blocks against P B and Q B."""

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    @given(
        dim=st.integers(1, 14),
        ranks=st.tuples(st.integers(0, 14), st.integers(0, 14)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_products(self, field, dim, ranks, seed):
        pair = gen_pair_oblique_rational(dim, ranks[0] % (dim + 1), ranks[1] % (dim + 1), seed=seed)
        x = pair if field == RATIONAL else to_float_pair(pair)
        try:
            fd = fitting_decomposition(x)
        except RestrictionFailure:  # a float split can fail on a valid pair
            assume(False)
        assert _mixed_image_dims(fd) == mixed_images_by_products(fd, x)

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("name", sorted(MIXED_EDGE_PAIRS))
    def test_edge_splits(self, name, field):
        pair = MIXED_EDGE_PAIRS[name]
        x = pair if field == RATIONAL else to_float_pair(pair)
        fd = fitting_decomposition(x)
        assert fd.F.dim == (0 if name == "F=0" else pair.dim)
        assert _mixed_image_dims(fd) == mixed_images_by_products(fd, x)


class TestIndexReport:
    def test_report_builds_no_exchange_operators(self):
        """The report reads M and S only; U, V and their certificate are
        built on first access, as by the commutator witness."""
        derived_ops.cache_clear()
        for pair in (oblique(4), to_float_pair(oblique(4)), jordan_pair(2)):
            assert index_report(pair, (1, 3, 5, 7)).all_verdicts_true
            ops = derived_ops(pair)
            assert "_exchange" not in vars(ops)
            commutator_witness(pair, 5)
            assert "_exchange" in vars(ops)
            # reading the certificate raises IdentityViolation past tolerance
            residual = ops.certificate.max_residual()
            assert pair.field == FLOAT or residual == 0

    @pytest.mark.parametrize(
        "pair", [gen_pair_oblique_rational(20, 9, 11, seed=3), jordan_pair(3)], ids=["d20", "jordan3"]
    )
    def test_exact_report_squares_m_once(self, pair):
        """The report's M is squared once, for S = I - M^2; the traces
        read M^2 back as I - S.  (On jordan3 F is the whole space, so
        M_F equals M and the split squares that copy itself.)"""
        derived_ops.cache_clear()
        operands = []
        product = Matrix.__mul__

        def spy(a, b):
            operands.append((a, b))
            return product(a, b)

        with mock.patch.object(Matrix, "__mul__", spy):
            index_report(pair, (1, 3, 5, 7))
        m = derived_ops(pair).M
        assert sum(a is m and b is m for a, b in operands) == 1

    def test_exact_report_pays_each_fact_once(self):
        """No matrix of a d = 20 exact report is eliminated or squared
        twice, and the report forms 31 products: the split reads its
        blocks unchecked and eliminates S^k once for F, verify_fitting
        alone checks each restriction, with one product t B and one B x
        apiece, and M_F and M_Y are squared once, for S_F and S_Y."""
        pair = gen_pair_oblique_rational(20, 9, 11, seed=1)
        derived_ops.cache_clear()
        products, eliminated = [], []
        product, rref = Matrix.__mul__, linalg._rref_exact

        def spy(a, b):
            products.append((a, b))
            return product(a, b)

        def spy_rref(m):
            eliminated.append(m)
            return rref(m)

        with mock.patch.object(Matrix, "__mul__", spy), mock.patch.object(linalg, "_rref_exact", spy_rref):
            report = index_report(pair, (1, 3, 5, 7))
        assert report.all_verdicts_true and report.fitting_k == 1
        assert eliminated and len({id(m) for m in eliminated}) == len(eliminated)
        assert sum(isinstance(b, Matrix) for _, b in products) == 31
        squares = [a for a, b in products if a is b]
        assert len({id(a) for a in squares}) == len(squares)

    def test_limb_planes_cut_once_per_matrix(self):
        """Each matrix of a d = 20 exact report is cut into limb planes at
        most once, however many products take it."""
        pair = gen_pair_oblique_rational(20, 9, 11, seed=3)
        derived_ops.cache_clear()
        with mock.patch.object(linalg, "_limb_planes", wraps=linalg._limb_planes) as built:
            report = index_report(pair, (1, 3, 5, 7))
        assert report.all_verdicts_true
        operands = [call.args[0] for call in built.call_args_list]
        assert operands and len({id(m) for m in operands}) == len(operands)
        assert not any(m.planes.flags.writeable for m in operands)

    def test_verdict_names_fixed(self):
        report = index_report(diag_pair())
        assert set(report.verdicts) == VERDICT_NAMES

    def test_equal_projections(self):
        eye = Matrix.identity(3, RATIONAL)
        report = index_report(make_pair(eye, eye))
        assert report.all_verdicts_true
        assert report.index == 0
        assert all(v == 0 for v in report.traces.values())

    def test_rank_one_difference(self):
        pair = make_pair(Matrix.identity(2, RATIONAL), Matrix([[1, 0], [0, 0]], RATIONAL))
        report = index_report(pair)
        assert report.index == 1
        assert report.traces[1] == 1
        assert report.all_verdicts_true

    def test_prescribed_index(self):
        spec = PrescribedSpec(d10=2, d01=1, seed=3, conjugate=True,
                              generic_blocks=(PythagoreanBlock(2, 1),))
        pair, expected = gen_prescribed(spec)
        assert expected == 1
        report = index_report(pair, odd_ns=(1, 3, 5, 7))
        assert report.index == 1
        assert report.all_verdicts_true
        assert report.dims["e10"] == 2 and report.dims["et01"] == 1

    def test_shear_index_zero(self):
        report = index_report(shear_pair())
        assert report.index == 0
        assert report.all_verdicts_true
        assert report.fitting_k == 0

    def test_oblique_sweep_all_verdicts(self):
        for i in range(25):
            report = index_report(oblique(i))
            assert report.all_verdicts_true, report.failed_verdicts()

    def test_orthogonal_float_sweep(self):
        for i in range(15):
            h = mix_seed(0xF10A7, i)
            dim = 2 + h % 6
            pair = gen_pair_orthogonal(
                dim, (h >> 8) % (dim + 1), (h >> 16) % (dim + 1), seed=i
            )
            report = index_report(pair)
            assert report.all_verdicts_true, report.failed_verdicts()

    def test_symmetric_pair_self_dual(self):
        # symmetric projections: transposing changes nothing, so each dual
        # dimension equals its primal counterpart
        for i in range(6):
            pair = gen_pair_orthogonal(5, 2, 3, seed=100 + i)
            dims = index_report(pair).dims
            for key in ("10", "01", "11", "00"):
                assert dims["e" + key] == dims["et" + key]

    def test_similarity_covariance(self):
        pair = oblique(4)
        base = index_report(pair)
        for i in range(4):
            g = random_unimodular(pair.dim, seed=mix_seed(0xABCD, i))
            gi = g.inverse()
            moved = make_pair(g * pair.P * gi, g * pair.Q * gi)
            report = index_report(moved)
            assert report.traces == base.traces
            assert report.dims == base.dims
            assert report.index == base.index

    def test_ns_validation(self):
        pair = diag_pair()
        with pytest.raises(ProjpairError):
            index_report(pair, odd_ns=(2,))
        with pytest.raises(ProjpairError):
            index_report(pair, odd_ns=(-1,))
        with pytest.raises(ProjpairError):
            index_report(pair, odd_ns=())

    def test_intermediates_exposed(self):
        report = index_report(diag_pair())
        assert report.intermediates["gap"] == report.dims["et10"]
        assert report.intermediates["gap_mirror"] == report.dims["et01"]


class TestReportJson:
    def test_schema_keys(self):
        doc = index_report(diag_pair()).to_json_dict()
        assert set(doc) == {"dim", "ns", "traces", "dims", "fitting", "verdicts"}
        assert doc["ns"] == [1, 3, 5]
        assert set(doc["traces"]) == {"1", "3", "5"}
        assert set(doc["fitting"]) == {"k", "dimF", "dimY"}

    def test_rational_traces_serialize_as_strings(self):
        doc = index_report(diag_pair()).to_json_dict()
        assert doc["traces"]["1"] == "0"

    def test_byte_determinism(self):
        a = index_report(oblique(7)).to_json()
        b = index_report(oblique(7)).to_json()
        assert a == b
        assert json.loads(a)["dims"]["e10"] == index_report(oblique(7)).dims["e10"]

    def test_float_traces_serialize_as_numbers(self):
        pair = gen_pair_orthogonal(4, 2, 2, seed=3)
        doc = index_report(pair).to_json_dict()
        assert isinstance(doc["traces"]["1"], float)


class TestSpectrum:
    def test_requires_float(self):
        with pytest.raises(FieldMismatch):
            spectrum_symmetry_check(diag_pair())

    def test_pythagorean_pair_pairs_up(self):
        block = PythagoreanBlock(2, 1)
        p = Matrix([[1, 0], [0, 0]], RATIONAL)
        pair = to_float_pair(make_pair(p, Matrix(block.q_block(), RATIONAL)))
        report = spectrum_symmetry_check(pair)
        # eigenvalues are +-4/5: one mirror pair, nothing excluded
        assert report.all_paired
        assert len(report.pairs) == 1
        assert report.excluded == ()
        i, j = report.pairs[0]
        assert report.eigenvalues[i] + report.eigenvalues[j] == pytest.approx(0.0, abs=1e-12)
        assert abs(report.eigenvalues[i]) == pytest.approx(0.8, abs=1e-12)

    def test_diag_pair_fully_excluded(self):
        report = spectrum_symmetry_check(to_float_pair(diag_pair()))
        assert set(report.excluded) == {0, 1}
        assert report.pairs == ()
        assert report.all_paired

    def test_random_orthogonal_always_pairs(self):
        for i in range(10):
            pair = gen_pair_orthogonal(8, 4, 3, seed=500 + i)
            assert spectrum_symmetry_check(pair).all_paired

    def test_tiny_tolerance_reports_unmatched(self):
        pair = gen_pair_orthogonal(6, 3, 3, seed=77)
        report = spectrum_symmetry_check(pair, tol=1e-17)
        loose = spectrum_symmetry_check(pair, tol=1e-8)
        assert loose.all_paired
        if loose.pairs:
            assert not report.all_paired

    def test_custom_tol_recorded(self):
        pair = gen_pair_orthogonal(4, 2, 2, seed=5)
        assert spectrum_symmetry_check(pair, tol=1e-6).tol == 1e-6


class TestWithShearBlocks:
    def test_prescribed_with_shears(self):
        spec = PrescribedSpec(
            d10=1, d01=0, d11=1, d00=0, seed=11, conjugate=True,
            generic_blocks=(ShearBlock(Fraction(3, 2)), PythagoreanBlock(3, 2)),
        )
        pair, expected = gen_prescribed(spec)
        report = index_report(pair)
        assert report.index == expected == 1
        assert report.all_verdicts_true
        # each shear block adds one vector fixed by both projections
        assert report.dims["e11"] == 2
        assert report.dims["et00"] == 1
