"""Matrix and subspace layer, checked against independent oracles."""

import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projpair.errors import (
    DimensionMismatch,
    FieldMismatch,
    NotInvariant,
    ProjpairError,
)
from projpair import linalg
from projpair.generators import gen_pair_oblique_rational
from projpair.linalg import (
    MODULAR_MIN_DIM,
    RANK_REL_TOL,
    Matrix,
    Subspace,
    _rref_exact,
    is_invertible,
    kernel_basis,
    numeric_rank,
    rank,
    restrict_operator,
    row_and_kernel,
    solve_exact,
    subspace_intersection,
    subspace_sum,
    trace_product,
)
from projpair.scalars import DEFAULT_POLICY, FLOAT, RATIONAL, TolerancePolicy


def rand_int_matrix(rng, rows, cols, bound=5):
    return Matrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        RATIONAL,
    )


class TestMatrixBasics:
    def test_construction_and_entry(self):
        m = Matrix([[1, 2], [3, 4]], RATIONAL)
        assert m.shape == (2, 2)
        assert m.entry(1, 0) == Fraction(3)
        assert m.to_lists() == [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2], [3]], RATIONAL)

    def test_float_contamination_rejected(self):
        with pytest.raises(FieldMismatch):
            Matrix([[0.5]], RATIONAL)

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    def test_bool_rejected(self, field):
        # a bool is no scalar in either field, and the error is a ProjpairError
        m = Matrix([[1]], field)
        with pytest.raises(FieldMismatch):
            Matrix([[True]], field)
        with pytest.raises(FieldMismatch):
            Matrix.diag([True], field)
        with pytest.raises(FieldMismatch):
            m * True
        with pytest.raises(FieldMismatch):
            False * m

    def test_mixed_field_arithmetic_rejected(self):
        a = Matrix([[1]], RATIONAL)
        b = Matrix([[1.0]], FLOAT)
        with pytest.raises(FieldMismatch):
            a + b
        with pytest.raises(FieldMismatch):
            a * b

    def test_identity_zeros_diag(self):
        eye = Matrix.identity(3, RATIONAL)
        assert eye.entry(0, 0) == 1 and eye.entry(0, 1) == 0
        assert Matrix.zeros(2, 3, FLOAT).is_zero()
        d = Matrix.diag([1, 2], RATIONAL)
        assert d.entry(1, 1) == 2 and d.entry(0, 1) == 0

    def test_identity_shared_per_size_and_field(self):
        """Matrix.identity hands out one immutable matrix per (n, field)."""
        for field in (RATIONAL, FLOAT):
            eye = Matrix.identity(4, field)
            assert Matrix.identity(4, field) is eye
            assert Matrix.identity(5, field) is not eye
            with pytest.raises(AttributeError):
                eye.rows = 5
        assert Matrix.identity(4, RATIONAL) != Matrix.identity(4, FLOAT)
        assert not Matrix.identity(4, FLOAT).data.flags.writeable

    def test_arithmetic_against_numpy(self):
        rng = random.Random(101)
        for _ in range(20):
            n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = rand_int_matrix(rng, n, m)
            b = rand_int_matrix(rng, m, k)
            c = rand_int_matrix(rng, n, m)
            prod = (a * b).to_numpy()
            assert np.array_equal(prod, a.to_numpy() @ b.to_numpy())
            assert np.array_equal((a + c).to_numpy(), a.to_numpy() + c.to_numpy())
            assert np.array_equal((a - c).to_numpy(), a.to_numpy() - c.to_numpy())
            assert np.array_equal((3 * a).to_numpy(), 3 * a.to_numpy())
            assert np.array_equal(a.transpose().to_numpy(), a.to_numpy().T)

    def test_power(self):
        rng = random.Random(7)
        a = rand_int_matrix(rng, 4, 4, bound=2)
        expected = Matrix.identity(4, RATIONAL)
        for e in range(6):
            assert a**e == expected
            expected = expected * a
        with pytest.raises(ProjpairError):
            a**-1

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    def test_power_matches_repeated_products(self, field):
        # integer entries keep every float product exact (below 2^53)
        rng = random.Random(11)
        for dim in (1, 3, 4):
            a = Matrix(rand_int_matrix(rng, dim, dim, bound=2).to_lists(), field)
            expected = Matrix.identity(dim, field)
            for e in range(10):
                assert a**e == expected, e
                expected = expected * a

    def test_trace_requires_square(self):
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(2, 3, RATIONAL).trace()
        assert Matrix.zeros(0, 0, RATIONAL).trace() == 0

    def test_trace_product(self):
        rng = random.Random(13)
        for rows, cols in ((1, 1), (2, 5), (4, 3)):
            a = rand_int_matrix(rng, rows, cols) * Fraction(1, 3)
            b = rand_int_matrix(rng, cols, rows) * Fraction(2, 7)
            assert trace_product(a, b) == (a * b).trace()
            fa, fb = a.to_float(), b.to_float()
            assert trace_product(fa, fb) == pytest.approx(float((a * b).trace()), abs=1e-12)
        for field in (RATIONAL, FLOAT):
            for rows, cols in ((0, 3), (3, 0), (0, 0)):
                a, b = Matrix.zeros(rows, cols, field), Matrix.zeros(cols, rows, field)
                assert trace_product(a, b) == 0
        with pytest.raises(DimensionMismatch):
            trace_product(Matrix.zeros(2, 3, RATIONAL), Matrix.zeros(2, 3, RATIONAL))

    def test_hstack(self):
        a = Matrix([[1], [2]], RATIONAL)
        b = Matrix([[3], [4]], RATIONAL)
        assert a.hstack(b).to_lists() == [[1, 3], [2, 4]]

    def test_max_norm(self):
        assert Matrix([[1, -7], [3, 2]], RATIONAL).max_norm() == 7

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    def test_empty_shapes_keep_their_columns(self, field):
        assert Matrix.zeros(0, 3, field).shape == (0, 3)
        assert Matrix.zeros(3, 0, field).transpose().shape == (0, 3)
        assert Matrix.zeros(0, 3, field).transpose().shape == (3, 0)
        assert (Matrix.zeros(0, 3, field) * Matrix.zeros(3, 2, field)).shape == (0, 2)
        assert (Matrix.zeros(2, 0, field) * Matrix.zeros(0, 3, field)).shape == (2, 3)
        zero_rows = Matrix.zeros(0, 3, field)
        assert (zero_rows + zero_rows).shape == (0, 3)
        assert (-zero_rows).shape == (0, 3)
        assert zero_rows.hstack(Matrix.zeros(0, 2, field)).shape == (0, 5)
        assert Matrix([[], []], field).transpose().shape == (0, 2)


class TestFloatBackend:
    """Float matrices store a read-only float64 array behind the same API."""

    def test_string_entry_rejected(self):
        with pytest.raises(FieldMismatch):
            Matrix([["1.5"]], FLOAT)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1.0, 2.0], [3.0]], FLOAT)

    def test_storage_cannot_be_written(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = Matrix(src, FLOAT)
        src[0, 0] = 9.0
        arr = m.to_numpy()
        try:
            arr[0, 1] = 9.0
        except ValueError:
            pass
        assert m.to_lists() == [[1.0, 2.0], [3.0, 4.0]]

    def test_signed_zero_equal_and_same_hash(self):
        a = Matrix([[0.0]], FLOAT)
        b = Matrix([[-0.0]], FLOAT)
        assert a == b
        assert hash(a) == hash(b)
        assert Matrix([[0.0, 0.0]], FLOAT) != Matrix([[0.0], [0.0]], FLOAT)

    def test_scalars_are_python_floats(self):
        m = Matrix([[1.0, 2.0], [3.0, 5.0]], FLOAT)
        for value in (m.entry(1, 0), m.trace(), m.max_norm()):
            assert type(value) is float
        assert all(type(x) is float for row in m.to_lists() for x in row)

    def test_arithmetic_against_loops(self):
        rng = np.random.default_rng(11)
        for n, k, m in ((1, 1, 1), (3, 4, 2), (7, 5, 6), (0, 3, 2), (3, 0, 2)):
            a, c = rng.standard_normal((n, k)), rng.standard_normal((n, k))
            b = rng.standard_normal((k, m))
            ma, mb, mc = Matrix(a, FLOAT), Matrix(b, FLOAT), Matrix(c, FLOAT)
            al, bl, cl = a.tolist(), b.tolist(), c.tolist()
            prod = ma * mb
            assert prod.shape == (n, m)
            for i in range(n):
                for j in range(m):
                    loop = sum(al[i][t] * bl[t][j] for t in range(k))
                    assert prod.entry(i, j) == pytest.approx(loop, rel=1e-12, abs=1e-12)
            assert (ma + mc).to_lists() == [[x + y for x, y in zip(r, q)] for r, q in zip(al, cl)]
            assert (ma - mc).to_lists() == [[x - y for x, y in zip(r, q)] for r, q in zip(al, cl)]
            assert (2.5 * ma).to_lists() == [[2.5 * x for x in r] for r in al]
            assert ma.transpose().shape == (k, n)
            assert ma.transpose().to_lists() == [[al[i][j] for i in range(n)] for j in range(k)]

    def test_numeric_rank_rule(self):
        sv = np.array([2.0, 1.0, 1e-6, 1e-12])
        assert numeric_rank(sv, (4, 4)) == (3, 1e-6 / (1e-9 * 2.0 * 4))
        assert numeric_rank(np.array([1e-10]), (1, 1)) == (0, float("inf"))
        assert numeric_rank(np.array([]), (0, 3)) == (0, float("inf"))

    def test_numeric_rank_unit_scale(self):
        # sigma_max < 1: the cutoff is 1e-9 * 1 * 3, not 1e-9 * 1e-3 * 3, so
        # 1e-9 no longer counts and the margin is taken against 3e-9
        sv = np.array([1e-3, 1e-6, 1e-9])
        assert numeric_rank(sv, (3, 3)) == (2, 1e-6 / (1e-9 * 1.0 * 3))
        assert numeric_rank(np.array([1e-10, 1e-11]), (2, 2)) == (0, float("inf"))

    def test_is_invertible(self):
        assert is_invertible(Matrix.zeros(0, 0, FLOAT))
        assert is_invertible(Matrix([[2.0, 1.0], [0.0, 1.0]], FLOAT))
        assert not is_invertible(Matrix([[1e-12, 0.0], [0.0, 1e-12]], FLOAT))
        assert not is_invertible(Matrix([[1, 1], [1, 1]], RATIONAL))
        # the rank rule decides: sigma_min = 5e-8 is below its cutoff
        # 1e-9 * 1 * 95 = 9.5e-8, though above 1e-9 * max(sigma_max, 1)
        m = Matrix.diag([1.0] * 95 + [5e-8], FLOAT)
        assert rank(m) == 95
        assert not is_invertible(m)
        assert is_invertible(Matrix.diag([1.0] * 95 + [1e-7], FLOAT))


def matmul_fraction_sum(a, b):
    """Per-entry Fraction sum: the reference for the integer-scaled product."""
    if a.rows == 0 or a.cols == 0:
        return Matrix.zeros(a.rows, b.cols, RATIONAL)
    bt = list(zip(*b.data))
    return Matrix(
        [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.data],
        RATIONAL,
    )


def rref_fraction_loop(m):
    """Plain Fraction Gauss-Jordan: the reference for the integer _rref_exact.

    The reduced row echelon form is unique, so any pivot order must give
    exactly the same nonzero rows and pivot columns.
    """
    rows = [list(r) for r in m.data]
    piv_cols = []
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    return rows[:r], piv_cols


# Small integers make zero entries and dependent rows likely; the wide
# fractions reach numerators and denominators of 2**100.
rational_entries = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**100), 2**100), st.integers(1, 2**100)),
)


@st.composite
def rational_matrices(draw, rows=st.integers(0, 5), cols=st.integers(0, 5)):
    """Rational matrices, a third of them built with rank below full."""
    n, m = draw(rows), draw(cols)
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(0, min(n, m)))
        if r == 0:
            return Matrix.zeros(n, m, RATIONAL)
        left = draw(rational_matrices(st.just(n), st.just(r)))
        return matmul_fraction_sum(left, draw(rational_matrices(st.just(r), st.just(m))))
    grid = st.lists(rational_entries, min_size=m, max_size=m)
    return Matrix(draw(st.lists(grid, min_size=n, max_size=n)), RATIONAL)


@st.composite
def multipliable_pairs(draw):
    a = draw(rational_matrices())
    return a, draw(rational_matrices(rows=st.just(a.cols)))


@st.composite
def operand_triples(draw):
    """(a, b, c): b has the shape of a, c has as many rows as a has columns."""
    a = draw(rational_matrices())
    b = draw(rational_matrices(rows=st.just(a.rows), cols=st.just(a.cols)))
    if b.shape != a.shape:  # drawn with no rows, so 0 x 0
        b = Matrix.zeros(a.rows, a.cols, RATIONAL)
    return a, b, draw(rational_matrices(rows=st.just(a.cols)))


def assert_canonical(m, want_rows, shape):
    """m is integer rows over one denominator in canonical form, and its
    Fraction view holds want_rows."""
    assert m.field == RATIONAL and m.shape == shape
    assert all(type(x) is int for r in m.num for x in r)
    assert type(m.den) is int and m.den >= 1
    assert math.gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert m.data == tuple(map(tuple, want_rows))
    assert all(type(x) is Fraction for r in m.data for x in r)


def limb_calls():
    """Patch that counts the products that take 16-bit limbs."""
    return mock.patch.object(linalg, "_limb_product", wraps=linalg._limb_product)


def planes_built():
    """Patch that records each matrix whose limb planes are cut."""
    return mock.patch.object(linalg, "_limb_planes", wraps=linalg._limb_planes)


# Entries at the edges of 16-bit two's-complement limbs and of int64.
LIMB_EDGES = (
    0, 1, -1, 2**15 - 1, -(2**15 - 1), 2**15, -(2**15), 2**16, -(2**16), 2**16 - 1, -(2**63), 2**64 - 1
)


def limb_pair(rows, inner, cols, a_values, b_values, den=(1, 1)):
    """(a, b) of shapes rows x inner and inner x cols: numerators that
    cycle through the given values, row by row, over den[0] and den[1]."""

    def operand(n, m, values, den):
        entries = [Fraction(values[k % len(values)], den) for k in range(n * m)]
        return Matrix([entries[i : i + m] for i in range(0, n * m, m)], RATIONAL)

    return operand(rows, inner, a_values, den[0]), operand(inner, cols, b_values, den[1])


@st.composite
def limb_pairs(draw, square=False):
    """Operands at or above the size rule, rectangular too (square ones of
    12 to 16 rows with square), each all zero or with entries from the
    limb edges and of a drawn width up to 600 bits: random ones and those
    next to a power of two, where the top limb and the carry are tight."""
    if square:
        rows = inner = cols = draw(st.integers(12, 16))
    else:
        rows, inner, cols = draw(st.integers(12, 24)), draw(st.integers(12, 40)), draw(st.integers(12, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def values(count):
        if draw(st.integers(0, 5)) == 0:
            return [0]
        bits = draw(st.one_of(st.sampled_from((1, 15, 16, 17, 31, 63, 64, 65, 127)), st.integers(1, 600)))
        tight = [2**bits - 1, -(2**bits), -(2**bits) + 1]
        pool = list(LIMB_EDGES) + tight * 4 + [rng.randint(-(2**bits), 2**bits) for _ in range(12)]
        return [rng.choice(pool) for _ in range(count)]

    den = (draw(st.sampled_from((1, 6))), draw(st.sampled_from((1, 10, 2**70))))
    return limb_pair(rows, inner, cols, values(rows * inner), values(inner * cols), den)


NEGATIVE_PIVOTS = Matrix([[-2, 4, 1], [6, -3, 0], [-4, 8, 2]], RATIONAL)
RANK_ONE = Matrix([[2, -4, 6], [-1, 2, -3], [0, 0, 0]], RATIONAL)
WIDE = Matrix(
    [[Fraction(3, 2**100), Fraction(-(2**100) + 1, 7)], [Fraction(1, 2**99 + 1), 5]],
    RATIONAL,
)


def _rank_nine_with_a_zero_column():
    """An 11 x 11 product of 40-bit factors, 11 x 9 by 9 x 11, whose
    column 4 is zero: rank 9, below the size rule."""
    rng = random.Random(34)
    a = [[rng.randint(-(2**40), 2**40) for _ in range(9)] for _ in range(11)]
    b = [[0 if j == 4 else rng.randint(-(2**40), 2**40) for j in range(11)] for _ in range(9)]
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a], RATIONAL)


RANK_NINE = _rank_nine_with_a_zero_column()
# the last common pivot of its fraction-free elimination is -3
NEGATIVE_LAST_PIVOT = Matrix([[2, 1, 3], [1, -1, 0]], RATIONAL)
# [A | I]: the elimination behind an inverse
A_AND_IDENTITY = Matrix(
    [[random.Random(6 * i + j).randint(-9, 9) for j in range(6)] for i in range(6)], RATIONAL
).hstack(Matrix.identity(6, RATIONAL))


class TestExactKernels:
    """The integer-scaled product and RREF against plain Fraction loops."""

    @pytest.mark.parametrize("rule", [MODULAR_MIN_DIM, 1], ids=["own_rule", "rule_1"])
    @given(multipliable_pairs())
    @example((Matrix([[Fraction(-7, 3)]], RATIONAL), Matrix([[Fraction(3, -7)]], RATIONAL)))
    @example((Matrix([[], []], RATIONAL), Matrix([], RATIONAL)))
    @example((Matrix([[1, 2], [3, 4]], RATIONAL), Matrix([[], []], RATIONAL)))
    @example((Matrix([], RATIONAL), Matrix([], RATIONAL)))
    @example((WIDE, WIDE))
    @example((NEGATIVE_PIVOTS, RANK_ONE))
    @settings(max_examples=150, deadline=None)
    def test_product_matches_fraction_sum(self, rule, pair):
        """Under the size rule as it is, and lowered to 1, where every
        product with rows, inner dimension and columns takes limbs."""
        a, b = pair
        with mock.patch.object(linalg, "MODULAR_MIN_DIM", rule), limb_calls() as limbs:
            got = a * b
        assert limbs.called == (min(a.rows, a.cols, b.cols) >= rule)
        want = matmul_fraction_sum(a, b)
        assert got.shape == want.shape
        assert got == want
        assert all(type(x) is Fraction for r in got.data for x in r)

    @given(limb_pairs())
    @example(limb_pair(12, 12, 12, [2**15 - 1], [2**15 - 1]))
    @example(limb_pair(12, 40, 24, [-(2**15)], [-(2**15)]))
    @example(limb_pair(24, 40, 12, [-(2**63)], [-(2**63)]))
    @example(limb_pair(13, 17, 19, [2**64 - 1], [-(2**63), 2**64 - 1]))
    @example(limb_pair(12, 20, 15, [0], [2**600 - 1, -(2**600)]))
    @example(limb_pair(15, 12, 12, [1, -1], [2**599 + 1, -(2**600) + 1]))
    @settings(max_examples=60, deadline=None)
    def test_limb_product_at_the_size_rule(self, pair):
        """Products at natural sizes, square and rectangular, with entries
        at the edges of 16-bit limbs and of up to 600 bits, go through
        limbs and equal the per-entry Fraction sum, in canonical form."""
        a, b = pair
        with limb_calls() as limbs:
            got = a * b
        assert limbs.call_count == 1
        want = matmul_fraction_sum(a, b)
        assert_canonical(got, want.data, want.shape)

    @given(limb_pairs(square=True), st.integers(2, 6))
    @example(limb_pair(12, 12, 12, [2**15 - 1, -(2**15)], [1, -1]), 5)
    @example(limb_pair(13, 13, 13, [0], [2**64 - 1, -(2**63)]), 2)
    @settings(max_examples=25, deadline=None)
    def test_products_that_reuse_an_operand(self, pair, power):
        """A matrix keeps its limb planes after its first product at the
        size rule; products that take it again (A A, binary powers, A B
        then B A), and those of its transpose, negation and scalar
        multiples, each of which cuts its own, equal the per-entry
        Fraction sum in canonical form.  B's Fraction view is built
        before its planes."""
        a, b = pair
        b.data

        def check(got, x, y):
            want = matmul_fraction_sum(x, y)
            assert_canonical(got, want.data, want.shape)

        with limb_calls() as limbs, planes_built() as built:
            check(a * a, a, a)
            want = a
            for _ in range(power - 1):
                want = matmul_fraction_sum(want, a)
            assert_canonical(a**power, want.data, want.shape)
            check(a * b, a, b)
            check(b * a, b, a)
            for derived in (a.transpose(), -a, a * Fraction(-3, 7), Fraction(5, 2) * a, b.transpose()):
                check(derived * b, derived, b)
                check(a * derived, a, derived)
        assert limbs.call_count >= 3 + 2 * 5
        operands = [call.args[0] for call in built.call_args_list]
        assert len({id(m) for m in operands}) == len(operands)

    @given(limb_pairs(square=True))
    @settings(max_examples=10, deadline=None)
    def test_planes_change_no_comparison(self, pair):
        """The planes are read-only, rebuild the numerators, and leave ==
        and hash as they were."""
        a, _ = pair
        twin = Matrix(a.data, RATIONAL)
        assert twin == a and hash(twin) == hash(a)
        planes = a.planes
        assert a.planes is planes and not planes.flags.writeable
        with pytest.raises(ValueError):
            planes[0, 0, 0] = 1.0
        width = planes.shape[0]
        assert planes.shape == (width, a.rows, a.cols)
        rebuilt = [
            [sum(int(planes[t, i, j]) << (16 * t) for t in range(width)) for j in range(a.cols)]
            for i in range(a.rows)
        ]
        assert tuple(map(tuple, rebuilt)) == a.num
        assert twin == a and hash(twin) == hash(a)
        with pytest.raises(AttributeError):
            a.to_float().planes

    @given(rational_matrices())
    @example(Matrix([[Fraction(-7, 3)]], RATIONAL))
    @example(Matrix([[0]], RATIONAL))
    @example(Matrix([[], []], RATIONAL))
    @example(Matrix([], RATIONAL))
    @example(NEGATIVE_PIVOTS)
    @example(RANK_ONE)
    @example(WIDE)
    @example(RANK_NINE)
    @example(NEGATIVE_LAST_PIVOT)
    @example(A_AND_IDENTITY)
    @settings(max_examples=150, deadline=None)
    def test_rref_matches_fraction_gauss_jordan(self, m):
        rref, piv_cols = _rref_exact(m)
        frows = [list(r) for r in rref.data]
        assert (frows, piv_cols) == rref_fraction_loop(m)
        assert all(type(x) is Fraction for r in frows for x in r)

    @given(operand_triples(), rational_entries)
    @example((WIDE, WIDE, WIDE), Fraction(-3, 2**100))
    @example((NEGATIVE_PIVOTS, RANK_ONE, RANK_ONE), Fraction(-2, 3))
    @example((Matrix([[], []], RATIONAL),) * 2 + (Matrix([], RATIONAL),), Fraction(0))
    @example(
        (Matrix.zeros(0, 2, RATIONAL),) * 2 + (Matrix([[1, 2, 3], [4, 5, 6]], RATIONAL),),
        Fraction(5),
    )
    @settings(max_examples=150, deadline=None)
    def test_canonical_form(self, triple, s):
        """Every rational operation returns the canonical num / den whose
        Fraction view is the per-entry Fraction result."""
        a, b, c = triple
        n, m = a.shape
        rows_a, rows_b = [list(r) for r in a.data], [list(r) for r in b.data]
        assert a.data is a.data  # the view is built once
        results = [
            # rows alone cannot carry the width of a matrix with none
            (Matrix(rows_a, RATIONAL), rows_a, (n, m if n else 0)),
            (a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(rows_a, rows_b)], (n, m)),
            (a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(rows_a, rows_b)], (n, m)),
            (-a, [[-x for x in r] for r in rows_a], (n, m)),
            (a * s, [[x * s for x in r] for r in rows_a], (n, m)),
            (s * a, [[s * x for x in r] for r in rows_a], (n, m)),
            (a * c, matmul_fraction_sum(a, c).data, (n, c.cols)),
            (a.transpose(), [[rows_a[i][j] for i in range(n)] for j in range(m)], (m, n)),
            (a.hstack(b), [p + q for p, q in zip(rows_a, rows_b)], (n, 2 * m)),
        ]
        results += [(a.column(j), [[r[j]] for r in rows_a], (n, 1)) for j in range(m)]

        rref, piv_cols = _rref_exact(a)
        want_rref, want_piv = rref_fraction_loop(a)
        assert piv_cols == want_piv
        results.append((rref, want_rref, (len(want_piv), m)))
        if m:
            free = [f for f in range(m) if f not in want_piv]
            want_kernel = [
                [
                    -want_rref[want_piv.index(r)][f] if r in want_piv else Fraction(int(r == f))
                    for f in free
                ]
                for r in range(m)
            ]
            results.append((kernel_basis(a).basis, want_kernel, (m, len(free))))
            rhs = a * c
            aug_rows, aug_piv = rref_fraction_loop(a.hstack(rhs))
            want_x = [[Fraction(0)] * c.cols for _ in range(m)]
            for row, col in zip(aug_rows, aug_piv):
                want_x[col] = row[m:]
            results.append((solve_exact(a, rhs), want_x, (m, c.cols)))
        if n:
            t_rows, _ = rref_fraction_loop(a.transpose())
            want_span = [[r[i] for r in t_rows] for i in range(n)]
            results.append((Subspace(a).basis, want_span, (n, len(t_rows))))
        for got, want, shape in results:
            assert_canonical(got, want, shape)

        assert a.max_norm() == max((abs(x) for r in rows_a for x in r), default=0)
        assert a.is_zero() == all(x == 0 for r in rows_a for x in r)
        scalars = [a.max_norm()]
        if n == m:
            assert a.trace() == sum((rows_a[i][i] for i in range(n)), Fraction(0))
            scalars.append(a.trace())
        assert all(type(x) is Fraction for x in scalars)

        columns = [[rows_a[i][j] for i in range(n)] for j in range(m)]
        routes = (
            Matrix(rows_a, RATIONAL) if n else Matrix.zeros(0, m, RATIONAL),
            a * Matrix.identity(m, RATIONAL),
            Matrix.identity(n, RATIONAL) * a,
            Matrix(columns, RATIONAL).transpose() if m else Matrix.zeros(n, 0, RATIONAL),
            a.transpose().transpose(),
            (a + a) * Fraction(1, 2),
        )
        for other in routes:
            assert other == a
            assert hash(other) == hash(a)
            assert (other.num, other.den) == (a.num, a.den)


class TestIsInvertible:
    """is_invertible is full exact rank, whatever prime divides a pivot."""

    @given(rational_matrices())
    @example(Matrix.zeros(0, 3, RATIONAL))
    @example(Matrix.zeros(3, 0, RATIONAL))
    @example(WIDE)
    @example(NEGATIVE_PIVOTS)
    @example(RANK_ONE)
    @settings(max_examples=150, deadline=None)
    def test_matches_rank(self, m):
        assert is_invertible(m) == (m.is_square and rank(m) == m.rows)

    def test_prime_on_the_diagonal(self):
        # at the size rule the first modulus of the elimination divides a pivot
        p = linalg._prime(0)
        ones = [1] * (MODULAR_MIN_DIM - 1)
        m = Matrix.diag(ones + [p], RATIONAL)
        assert rank(m) == MODULAR_MIN_DIM
        assert is_invertible(m)
        # the same numerator over the denominator p
        scaled = Matrix.diag([Fraction(1, p)] * len(ones) + [1], RATIONAL)
        assert scaled.num == m.num and rank(scaled) == MODULAR_MIN_DIM
        assert is_invertible(scaled)
        # below the rule
        small = Matrix.diag([1, p], RATIONAL)
        assert rank(small) == 2 and is_invertible(small)


# The first primes: with these moduli many pivots vanish and short
# moduli stop rational reconstruction, so the certificate must reject
# candidates before the default primes take over.
TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@contextlib.contextmanager
def bareiss_only():
    """Every exact elimination by Bareiss: the oracle of the modular path."""
    with mock.patch.object(linalg, "MODULAR_MIN_DIM", 10**9):
        yield


def primes_after(tiny, supply=linalg._prime):
    """A stand-in for linalg._prime that hands out tiny first and then
    the default supply."""
    return lambda i: tiny[i] if i < len(tiny) else supply(i - len(tiny))


@contextlib.contextmanager
def tiny_primes():
    with mock.patch.object(linalg, "_prime", primes_after(TINY_PRIMES)):
        yield


@contextlib.contextmanager
def no_bareiss_at_the_rule():
    """Fail if Bareiss eliminates a matrix at the size rule."""
    real = linalg._rref_bareiss

    def guarded(m):
        assert not linalg._uses_primes(m), f"Bareiss eliminated a {m.rows}x{m.cols} matrix"
        return real(m)

    with mock.patch.object(linalg, "_rref_bareiss", guarded):
        yield


def exact_outcome(m):
    """Everything the exact path derives from eliminations of m."""
    rref, piv_cols = _rref_exact(m)
    _, k, free_cols = row_and_kernel(m)
    x = Matrix([[(i * 7 + j) % 5 - 2 for j in range(2)] for i in range(m.cols)], RATIONAL)
    e0 = Matrix([[int(i == 0)] for i in range(m.rows)], RATIONAL)
    span = Subspace(m)
    out = [
        (rref, piv_cols),
        rank(m),
        (k, free_cols),
        (span.basis, span.pivots),
        solve_exact(m, m * x),
        solve_exact(m, e0),
    ]
    if m.is_square:
        out.append(m.inverse() if is_invertible(m) else None)
    return out


@st.composite
def rule_matrices(draw):
    """Rational matrices on both sides of the size rule: square, wide and
    tall; zero, of low rank or generic; sparse or dense; with integer
    entries of up to 120 bits and small denominators."""
    sizes = st.sampled_from((MODULAR_MIN_DIM - 2, MODULAR_MIN_DIM, MODULAR_MIN_DIM + 3, 2 * MODULAR_MIN_DIM))
    n, m = draw(sizes), draw(sizes)
    kind = draw(st.sampled_from(("zero", "low_rank", "generic")))
    bits = draw(st.sampled_from((2, 30, 120)))
    density = draw(st.sampled_from((0.3, 1.0)))
    den = draw(st.sampled_from((1, 6)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entries(rows, cols):
        return Matrix(
            [
                [
                    Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, den))
                    if rng.random() < density
                    else 0
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ],
            RATIONAL,
        )

    if kind == "zero":
        return Matrix.zeros(n, m, RATIONAL)
    if kind == "low_rank":
        r = draw(st.integers(1, min(n, m) - 1))
        return entries(n, r) * entries(r, m)
    return entries(n, m)


class TestMultiModular:
    """The certified multi-modular elimination against the Bareiss oracle,
    under the default primes and under tiny ones."""

    @given(rule_matrices())
    @settings(max_examples=40, deadline=None)
    def test_matches_bareiss(self, m):
        got = exact_outcome(m)
        with bareiss_only():
            want = exact_outcome(m)
        assert got == want
        with tiny_primes():
            assert exact_outcome(m) == want

    @staticmethod
    def unlucky(modulus, rule=MODULAR_MIN_DIM, bound=3):
        """[[modulus, 0], [0, B]] with B of rank 6, the product of factors
        with entries in [-bound, bound]: the first pivot vanishes modulo
        every prime that divides modulus."""
        rng = random.Random(1202)
        left = rand_int_matrix(rng, rule, 6, bound=bound)
        b = left * rand_int_matrix(rng, 6, rule + 1, bound=bound)
        rows = [[modulus] + [0] * (rule + 1)]
        rows += [[0] + list(r) for r in b.num]
        return Matrix(rows, RATIONAL)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_first_pivot_divisible_by_leading_primes(self, batch):
        """The first listed prime (and in the second case its partner in
        the first pair) loses the first pivot; the primes with the earliest
        pivots win, and the modular answer is the Bareiss one."""
        m = self.unlucky(math.prod(map(linalg._prime, range(batch))))
        assert m.num[0][0] % linalg._prime(0) == 0
        with bareiss_only():
            want = exact_outcome(m)
        assert linalg._rref_modular(m) == want[0]
        assert exact_outcome(m) == want

    def test_pair_that_disagrees_on_a_pivot_is_skipped(self):
        """The first column of unlucky(p0) is nonzero modulo p1 alone, so
        the first pair has no row to share as its pivot and is skipped;
        the next pair gives the Bareiss RREF."""
        m = self.unlucky(linalg._prime(0))
        p0, p1 = linalg._prime(0), linalg._prime(1)
        assert linalg._rref_layers(linalg._residues(m, (p0, p1)), (p0, p1)) is None
        assert linalg._rref_modular(m) == linalg._rref_bareiss(m)

    def test_pair_with_a_worse_pivot_set_is_skipped(self, monkeypatch):
        """unlucky(p2 p3) with 40-bit factors: pair 0 finds all 7 pivots but
        too few primes to reconstruct B's RREF, pair 1 loses the first
        pivot and is skipped, and the pairs after it give the Bareiss RREF.
        Were pair 1 combined with pair 0, no candidate would ever certify,
        so the prime supply ends the test instead of an endless loop."""
        m = self.unlucky(linalg._prime(2) * linalg._prime(3), bound=2**40)
        real_layers, real_prime, found = linalg._rref_layers, linalg._prime, []

        def counted(a, primes):
            layers = real_layers(a, primes)
            found.append(len(layers[1]))
            return layers

        def supply(i):
            if i >= 400:
                raise AssertionError("prime supply exhausted")
            return real_prime(i)

        monkeypatch.setattr(linalg, "_rref_layers", counted)
        monkeypatch.setattr(linalg, "_prime", supply)
        assert linalg._rref_modular(m) == linalg._rref_bareiss(m)
        assert found[:4] == [7, 6, 7, 7]

    def test_both_primes_take_the_same_pivot_row(self):
        """A first column p0, p1, 1: its first nonzero row is row 1 modulo
        p0 and row 0 modulo p1, so the pair takes row 2, the first row
        nonzero modulo both, and still gives the Bareiss RREF."""
        p0, p1 = linalg._prime(0), linalg._prime(1)
        rng = random.Random(1204)
        rest = rand_int_matrix(rng, MODULAR_MIN_DIM + 1, MODULAR_MIN_DIM, bound=5)
        rows = [[head] + list(r) for head, r in zip([p0, p1, 1] + [0] * MODULAR_MIN_DIM, rest.num)]
        m = Matrix(rows, RATIONAL)
        want = linalg._rref_bareiss(m)
        reduced, piv_cols = linalg._rref_layers(linalg._residues(m, (p0, p1)), (p0, p1))
        assert piv_cols == want[1]
        for layer, p in zip(reduced, (p0, p1)):
            inv = pow(want[0].den, -1, p)
            assert layer.tolist() == [[x * inv % p for x in r] for r in want[0].num]
        assert linalg._rref_modular(m) == want

    def test_primes_do_not_run_out(self, monkeypatch):
        """120-bit factors of rank 11: RREF entries far beyond the product
        of 32 primes (86 of the default ones), so the modular path climbs
        through the supply, from its start or after the tiny primes, until
        the certificate holds; Bareiss never runs at the rule, and agrees."""
        rng = random.Random(1203)
        m = rand_int_matrix(rng, 12, 11, bound=2**120) * rand_int_matrix(rng, 11, 13, bound=2**120)
        want = linalg._rref_bareiss(m)
        with bareiss_only():
            want_outcome = exact_outcome(m)
        for tiny in ((), TINY_PRIMES):
            taken = []
            supply = primes_after(tiny)
            monkeypatch.setattr(linalg, "_prime", lambda i: taken.append(i) or supply(i))
            with no_bareiss_at_the_rule():
                assert linalg._rref_modular(m) == want
                assert max(taken) + 1 - len(tiny) > 32
                assert exact_outcome(m) == want_outcome

    def test_prime_supply(self):
        """The moduli are the consecutive primes below 2**31 - 1, counting
        down, by trial division; the first 32 are the moduli the
        elimination has always taken, from 2147483629 to 2147482877."""
        primes = [linalg._prime(i) for i in range(64)]
        assert primes[0] == 2147483629 and primes[31] == 2147482877

        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert all(map(is_prime, primes))
        for above, below in zip([2**31 - 1] + primes, primes):
            assert not any(map(is_prime, range(below + 2, above, 2)))

    def test_certificate_rejects_forgeries(self):
        m = self.unlucky(5)
        rref, piv_cols = linalg._rref_bareiss(m)
        free_cols = [c for c in range(m.cols) if c not in piv_cols]
        rows = [[r[c] for c in free_cols] for r in rref.num]
        den = rref.den

        def certified(piv, free, rows):
            return linalg._certified(m.num, piv, free, rows, den)

        assert certified(piv_cols, free_cols, rows)
        # a perturbed entry of R
        forged = [list(r) for r in rows]
        forged[2][-1] += 1
        assert not certified(piv_cols, free_cols, forged)
        # a lost pivot: the other rows of R are too few for the row space of m
        free_lost = sorted(free_cols + piv_cols[-1:])
        assert not certified(piv_cols[:-1], free_lost, [[r[c] for c in free_lost] for r in rref.num[:-1]])
        # the same row space with the identity on a later pivot set: the
        # product holds, but the last row is not zero left of its pivot
        later = next(f for f in free_cols if f > piv_cols[-1] and rref.num[-1][f])
        shifted = piv_cols[:-1] + [later]
        moved = Matrix([[r[c] for c in shifted] for r in rref.data], RATIONAL).inverse() * rref
        free_moved = [c for c in range(m.cols) if c not in shifted]
        rows_moved = [[r[c] for c in free_moved] for r in moved.num]
        assert linalg._certified(m.num, shifted, free_moved, rows_moved, moved.den) is False
        product_only = [
            r[c] * moved.den == sum(r[p] * x for p, x in zip(shifted, col))
            for r in m.num
            for c, col in zip(free_moved, zip(*rows_moved))
        ]
        assert all(product_only)

    def test_forged_candidate_is_rejected_and_replaced(self, monkeypatch):
        """A wrong reconstruction fails the certificate, and the next primes
        still give the true RREF."""
        m = self.unlucky(1)
        real = linalg._reconstruct
        forged = []

        def forge(residues, modulus):
            found = real(residues, modulus)
            if found is not None and not forged:
                values, den = found
                forged.append(values)
                return [values[0] + 1] + values[1:], den
            return found

        monkeypatch.setattr(linalg, "_reconstruct", forge)
        got = linalg._rref_modular(m)
        assert forged, "no candidate was forged"
        with bareiss_only():
            assert got == _rref_exact(m)


@st.composite
def rank_products(draw):
    """Factors A (rows x inner) and B (inner x cols) with inner 11, 12 or
    13, one below the size rule and two at it, whose product has full
    rank min(rows, inner, cols), one less, or a lower rank r, made by
    A = X Y with r columns of X; integer entries of up to 120 bits and
    small denominators."""
    inner = draw(st.sampled_from((MODULAR_MIN_DIM - 1, MODULAR_MIN_DIM, MODULAR_MIN_DIM + 1)))
    rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    full = min(rows, inner, cols)
    kind = draw(st.sampled_from(("full", "one_short", "low")))
    r = {"full": full, "one_short": full - 1, "low": draw(st.integers(0, full))}[kind]
    bits = draw(st.sampled_from((2, 30, 120)))
    den = draw(st.sampled_from((1, 6)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entries(n, m):
        return Matrix(
            [
                [Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, den)) for _ in range(m)]
                for _ in range(n)
            ],
            RATIONAL,
        )

    a = entries(rows, r) * entries(r, inner) if r else Matrix.zeros(rows, inner, RATIONAL)
    return a, entries(inner, cols)


class TestRankOfProduct:
    """rank(a, b) is rank(ab); over Q a full rank at the size rule is
    proved modulo one prime, with no product formed, and every other rank
    comes from the exact product."""

    @given(rank_products())
    @example((Matrix.zeros(MODULAR_MIN_DIM, 15, RATIONAL), Matrix.identity(15, RATIONAL)))
    @settings(max_examples=60, deadline=None)
    def test_matches_rank_of_the_product(self, factors):
        a, b = factors
        with bareiss_only():
            want = rank(a * b)
        assert rank(a, b) == rank(a * b) == want
        af, bf = a.to_float(), b.to_float()
        assert rank(af, bf) == rank(af * bf)

    def test_full_rank_forms_no_product(self):
        """R_P K_Q of a d = 20 oblique pair: full rank, proved with no
        product and no elimination over Q."""
        pair = gen_pair_oblique_rational(20, 9, 11, seed=1)
        (row_p, _), _ = linalg.idempotent_bases(pair.P)
        _, (ker_q, _) = linalg.idempotent_bases(pair.Q)
        full = min(row_p.rows, ker_q.cols)
        with mock.patch.object(Matrix, "__mul__") as product:
            with mock.patch.object(linalg, "_rref_exact") as rref:
                assert rank(row_p, ker_q) == full
        assert not product.called and not rref.called

    def test_invertible_but_singular_modulo_the_proof_prime(self):
        """L diag(1, .., 1, p) U with unit triangular L and U: invertible
        over Q, but its last pivot is a multiple of the proof prime p, so
        its rank modulo p is one short and the certified RREF answers,
        for the matrix and for the product of (L diag) and U."""
        p, n = linalg._PROOF_PRIME, MODULAR_MIN_DIM
        rng = random.Random(3201)

        def unit_lower():
            rows = [[int(i == j) or (rng.randint(-5, 5) if j < i else 0) for j in range(n)] for i in range(n)]
            return Matrix(rows, RATIONAL)

        left = unit_lower() * Matrix.diag([1] * (n - 1) + [p], RATIONAL)
        right = unit_lower().transpose()
        m = left * right
        assert linalg._residue_rank(m) == linalg._residue_rank(left, right) == n - 1
        with mock.patch.object(linalg, "_rref_exact", wraps=linalg._rref_exact) as rref:
            assert rank(m) == rank(left, right) == n
            assert is_invertible(m)
        assert rref.call_count == 3

    def test_every_residue_at_the_largest_inner_dimension(self):
        """Entries -1 and 2p - 1, every residue p - 1, at the largest inner
        dimension whose GEMM sums stay exact: each sum is inner (p - 1)^2,
        just below 2**53.  One more column would pass it, so there rank
        forms the product instead, and the GEMM refuses."""
        p, inner = linalg._PROOF_PRIME, linalg._PROOF_MAX_INNER
        assert inner * (p - 1) ** 2 < 2**53 <= (inner + 1) * (p - 1) ** 2

        def factors(width):
            return Matrix([[-1] * width], RATIONAL), Matrix([[2 * p - 1, 2 * p - 1]] * width, RATIONAL)

        a, b = factors(inner)
        ra, rb = linalg._residues(a, (p,))[0], linalg._residues(b, (p,))[0]
        assert ra.max() == rb.min() == p - 1
        assert (ra @ rb).tolist() == [[inner * (p - 1) ** 2] * 2]
        assert linalg._residue_product(ra, rb).tolist() == [[(a * b).num[0][0] % p] * 2]
        wide_a, wide_b = factors(inner + 1)
        for x, y, proved in ((a, b, True), (wide_a, wide_b, False)):
            with mock.patch.object(linalg, "_residue_product", wraps=linalg._residue_product) as gemm:
                assert rank(x, y) == 1
            assert gemm.called == proved
        with pytest.raises(AssertionError):
            linalg._residue_product(linalg._residues(wide_a, (p,))[0], linalg._residues(wide_b, (p,))[0])


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, m):
    entries = [sympy.Rational(x.numerator, x.denominator) for r in m.data for x in r]
    return sympy.Matrix(m.rows, m.cols, entries)


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


class TestSympyOracle:
    """rank, RREF and kernel dimension against an independent CAS."""

    @given(rational_matrices())
    @example(NEGATIVE_PIVOTS)
    @example(RANK_ONE)
    @settings(max_examples=60, deadline=None)
    def test_rank_and_kernel_dim(self, sympy, m):
        s = to_sympy(sympy, m)
        assert rank(m) == s.rank()
        if m.cols:
            assert kernel_basis(m).dim == len(s.nullspace())

    @given(rational_matrices(rows=st.integers(1, 5), cols=st.integers(1, 5)))
    @example(NEGATIVE_PIVOTS)
    @example(RANK_ONE)
    @settings(max_examples=60, deadline=None)
    def test_rref(self, sympy, m):
        reduced, pivots = to_sympy(sympy, m).rref()
        want = [[from_sympy(reduced[i, j]) for j in range(m.cols)] for i in range(len(pivots))]
        rref, piv_cols = _rref_exact(m)
        assert ([list(r) for r in rref.data], piv_cols) == (want, list(pivots))


class TestRankKernelSolve:
    def test_rank_of_outer_product_construction(self):
        rng = random.Random(404)
        for _ in range(25):
            n = rng.randint(2, 6)
            r = rng.randint(0, n)
            if r == 0:
                m = Matrix.zeros(n, n, RATIONAL)
            else:
                a = rand_int_matrix(rng, n, r)
                b = rand_int_matrix(rng, r, n)
                m = a * b
            got = rank(m)
            # numpy on the exact integer entries is an independent oracle
            expected = np.linalg.matrix_rank(m.to_numpy().astype(float))
            assert got == expected

    def test_kernel_is_a_kernel(self):
        rng = random.Random(505)
        for _ in range(25):
            n, m_ = rng.randint(1, 6), rng.randint(1, 6)
            mat = rand_int_matrix(rng, n, m_)
            ker = kernel_basis(mat)
            assert ker.dim == m_ - rank(mat)
            if ker.dim:
                assert (mat * ker.basis).is_zero()
                assert rank(ker.basis) == ker.dim

    def test_solve_exact_roundtrip(self):
        rng = random.Random(606)
        for _ in range(25):
            n, m_, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
            a = rand_int_matrix(rng, n, m_)
            x_true = rand_int_matrix(rng, m_, k)
            b = a * x_true
            x = solve_exact(a, b)
            assert x is not None
            assert a * x == b

    def test_solve_exact_inconsistent(self):
        a = Matrix([[1, 0], [1, 0]], RATIONAL)
        b = Matrix([[1], [2]], RATIONAL)
        assert solve_exact(a, b) is None

    def test_inverse_roundtrip(self):
        rng = random.Random(707)
        done = 0
        while done < 15:
            n = rng.randint(1, 5)
            a = rand_int_matrix(rng, n, n)
            if not is_invertible(a):
                continue
            assert a * a.inverse() == Matrix.identity(n, RATIONAL)
            assert a.inverse() * a == Matrix.identity(n, RATIONAL)
            done += 1

    def test_inverse_singular(self):
        with pytest.raises(ProjpairError):
            Matrix([[1, 1], [1, 1]], RATIONAL).inverse()

    def test_float_rank_and_kernel(self):
        proj = Matrix([[1.0, 0.0], [0.0, 0.0]], FLOAT)
        assert rank(proj) == 1
        ker = kernel_basis(proj)
        assert ker.dim == 1
        assert abs(ker.basis.entry(0, 0)) < 1e-12

    def test_float_rank_floor_kills_noise(self):
        noise = Matrix((1e-14 * np.random.default_rng(3).standard_normal((4, 4))).tolist(), FLOAT)
        # anchored at ambient scale one it is the zero matrix
        assert rank(noise) == 0
        assert kernel_basis(noise).dim == 4

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, n, m, seed):
        rng = random.Random(seed)
        mat = rand_int_matrix(rng, n, m, bound=4)
        assert rank(mat) + kernel_basis(mat).dim == m

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rank_transpose_invariant(self, n, seed):
        rng = random.Random(seed)
        mat = rand_int_matrix(rng, n, rng.randint(1, 4), bound=4)
        assert rank(mat) == rank(mat.transpose())


class TestSubspace:
    def test_canonical_equality_under_basis_change(self):
        rng = random.Random(808)
        for _ in range(20):
            n = rng.randint(2, 6)
            d = rng.randint(1, n)
            basis = rand_int_matrix(rng, n, d)
            w = Subspace(basis)
            # mix the columns by a random invertible matrix: same span
            while True:
                c = rand_int_matrix(rng, d, d, bound=3)
                if is_invertible(c):
                    break
            assert Subspace(basis * c) == w

    def test_float_equality_under_basis_change(self):
        rng = np.random.default_rng(809)
        for n, d in ((2, 1), (4, 2), (6, 3), (9, 9)):
            basis = Matrix(rng.standard_normal((n, d)), FLOAT)
            mix = Matrix(rng.standard_normal((d, d)), FLOAT)
            w = Subspace(basis)
            assert w.dim == d
            assert Subspace(basis * mix) == w
            assert hash(Subspace(basis * mix)) == hash(w)

    def test_float_dependent_columns(self):
        # a bare float basis is cut to the rank of its span, as over Q
        for cols in ([[1, 1], [0, 0], [0, 0]], [[1, 2, 0], [1, 2, 1], [0, 0, 0]]):
            span = Matrix([[float(x) for x in r] for r in cols], FLOAT)
            w = Subspace(span)
            assert w.dim == Subspace(Matrix(cols, RATIONAL)).dim == len(cols[0]) - 1
            assert w == Subspace(span)
            b = w.basis.to_numpy()
            assert np.max(np.abs(b.T @ b - np.eye(w.dim))) <= 1e-12

    def test_same_dimension_different_spaces_unequal(self):
        for field, one in ((RATIONAL, 1), (FLOAT, 1.0)):
            a = Subspace(Matrix([[one, 0], [0, one], [0, 0]], field))
            b = Subspace(Matrix([[one, 0], [0, 0], [0, one]], field))
            assert a.dim == b.dim == 2
            assert a != b and b != a

    def test_zero_and_full(self):
        z = Subspace.zero(4, RATIONAL)
        f = Subspace.full(4, RATIONAL)
        assert z.dim == 0 and f.dim == 4
        assert z != f
        assert f.contains(z)

    def test_contains_vector(self):
        w = Subspace(Matrix([[1, 0], [0, 1], [0, 0]], RATIONAL))
        assert w.contains(Subspace(Matrix([[2], [3], [0]], RATIONAL)))
        assert not w.contains(Subspace(Matrix([[0], [0], [1]], RATIONAL)))
        assert w.contains(Subspace(Matrix([[0], [0], [0]], RATIONAL)))

    def test_sum_intersection_dimension_formula(self):
        rng = random.Random(909)
        for _ in range(25):
            n = rng.randint(2, 6)
            a = Subspace(rand_int_matrix(rng, n, rng.randint(0, n)))
            b = Subspace(rand_int_matrix(rng, n, rng.randint(0, n)))
            s = subspace_sum(a, b)
            i = subspace_intersection(a, b)
            assert s.dim + i.dim == a.dim + b.dim
            assert s.contains(a) and s.contains(b)
            assert a.contains(i) and b.contains(i)

    def test_intersection_members_in_both(self):
        rng = random.Random(111)
        a = Subspace(rand_int_matrix(rng, 5, 3))
        b = Subspace(rand_int_matrix(rng, 5, 3))
        i = subspace_intersection(a, b)
        for j in range(i.dim):
            v = i.basis.column(j)
            assert a.contains(Subspace(v)) and b.contains(Subspace(v))

    def test_ambient_mismatch(self):
        a = Subspace(Matrix([[1], [0]], RATIONAL))
        b = Subspace(Matrix([[1], [0], [0]], RATIONAL))
        with pytest.raises(DimensionMismatch):
            subspace_sum(a, b)

    def test_float_subspace_equality(self):
        a = Subspace(Matrix([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], FLOAT))
        b = Subspace(Matrix([[2.0, 1e-12], [1e-12, 3.0], [0.0, 1e-12]], FLOAT))
        assert a == b


class TestRestrictOperator:
    def test_invariant_restriction(self):
        # block upper-triangular: the first two coordinates are invariant
        t = Matrix([[1, 2, 5], [3, 4, 6], [0, 0, 7]], RATIONAL)
        w = Subspace(Matrix([[1, 0], [0, 1], [0, 0]], RATIONAL))
        r = restrict_operator(t, w)
        assert w.basis * r == t * w.basis
        assert r.to_lists() == [[1, 2], [3, 4]]

    def test_non_invariant_raises(self):
        t = Matrix([[0, 0], [1, 0]], RATIONAL)
        w = Subspace(Matrix([[1], [0]], RATIONAL))
        with pytest.raises(NotInvariant):
            restrict_operator(t, w)

    def test_zero_dim_restriction(self):
        t = Matrix.identity(3, RATIONAL)
        w = Subspace.zero(3, RATIONAL)
        assert restrict_operator(t, w).shape == (0, 0)
        with pytest.raises(FieldMismatch):  # even an empty part over another field has no block
            restrict_operator(t, Subspace.zero(3, FLOAT))

    def test_trace_similarity_invariance(self):
        rng = random.Random(123)
        for _ in range(10):
            n = rng.randint(2, 5)
            t = rand_int_matrix(rng, n, n)
            w = Subspace(rand_int_matrix(rng, n, n))  # full space, random basis
            if w.dim != n:
                continue
            assert restrict_operator(t, w).trace() == t.trace()


def assert_pivot_form(w):
    """An exact subspace's basis is the identity on its pivot rows."""
    assert w.field == RATIONAL
    assert len(w.pivots) == len(set(w.pivots)) == w.dim
    eye = Matrix.identity(w.dim, RATIONAL).data
    assert tuple(w.basis.data[i] for i in w.pivots) == eye


def restrict_by_solving(t, w):
    """Reference restriction: solve basis * X = t * basis exactly."""
    return solve_exact(w.basis, t * w.basis)


@st.composite
def operators_and_subspaces(draw):
    """(t, w): a square t and a subspace w of its domain.

    Half the time w is a cyclic subspace of t, span(v, t v, ..., t^n v),
    which t preserves; otherwise it is the span of random columns.  The
    leading rows of v may be zero, which moves the pivot rows of w off
    the first ones.
    """
    n = draw(st.integers(1, 5))
    t = draw(rational_matrices(rows=st.just(n), cols=st.just(n)))
    v = draw(rational_matrices(rows=st.just(n), cols=st.integers(0, 2)))
    lead = draw(st.integers(0, n - 1))
    v = Matrix([[0] * v.cols if i < lead else row for i, row in enumerate(v.to_lists())], RATIONAL)
    if draw(st.booleans()):
        krylov = v
        for _ in range(n):
            v = t * v
            krylov = krylov.hstack(v)
        v = krylov
    return t, Subspace(v)


def assert_restriction_matches_solving(t, w):
    want = restrict_by_solving(t, w)
    if want is None:
        with pytest.raises(NotInvariant):
            restrict_operator(t, w)
        assert not w.contains(Subspace(t * w.basis))
    else:
        assert restrict_operator(t, w) == want
        assert w.contains(Subspace(t * w.basis))


class TestPivotForm:
    """Exact bases are the identity on their pivot rows, so restriction
    and containment read coordinates instead of solving."""

    @given(operand_triples())
    @example((NEGATIVE_PIVOTS, RANK_ONE, RANK_ONE))
    @example((WIDE, WIDE, WIDE))
    @settings(max_examples=100, deadline=None)
    def test_every_exact_subspace_has_pivot_form(self, triple):
        a, b, _ = triple
        n, m = a.shape
        spaces = []
        if m:
            spaces.append(kernel_basis(a))
        if n:
            wa, wb = Subspace(a), Subspace(b)
            spaces += [wa, wb, subspace_intersection(wa, wb), subspace_sum(wa, wb)]
            spaces += [Subspace(a) if rank(a) == m else wa]
            spaces += [Subspace.zero(n, RATIONAL), Subspace.full(n, RATIONAL)]
        for w in spaces:
            assert_pivot_form(w)

    @given(operators_and_subspaces())
    @example((NEGATIVE_PIVOTS, Subspace(Matrix([[1], [0], [2]], RATIONAL))))
    @example((NEGATIVE_PIVOTS, kernel_basis(NEGATIVE_PIVOTS)))
    # pivot rows that are not the leading rows
    @example((Matrix.diag([1, 2, 3], RATIONAL), Subspace(Matrix([[0], [1], [0]], RATIONAL))))
    @example((Matrix.diag([1, 2, 3], RATIONAL), kernel_basis(Matrix([[1, 0, 0]], RATIONAL))))
    @settings(max_examples=150, deadline=None)
    def test_restriction_matches_solving(self, case):
        assert_restriction_matches_solving(*case)

    def test_restriction_matches_solving_at_the_size_rule(self):
        """P of a d = 26 pair of rank 12, with im P, which P preserves, and
        the span of 12 random columns, which it does not: their 14 rows off
        the pivots run the check product of restriction at the size rule.
        Built here, not when the module is imported, so a fault in the
        modular elimination fails this test instead of the collection."""
        p = gen_pair_oblique_rational(26, 12, 14, seed=7).P
        columns = Matrix(
            [[random.Random(26 * i + j).randint(-9, 9) for j in range(12)] for i in range(26)], RATIONAL
        )
        assert_restriction_matches_solving(p, Subspace(p))
        assert_restriction_matches_solving(p, Subspace(columns))

    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_float_restriction_matches_lstsq(self, n, d, seed):
        d = min(d, n)
        rng = np.random.default_rng(seed)
        frame, _ = np.linalg.qr(rng.standard_normal((n, n)))
        block = rng.standard_normal((n, n))
        block[d:, :d] = 0.0  # the first d frame columns span an invariant subspace
        t = Matrix(frame @ block @ frame.T, FLOAT)
        # a bare basis of the invariant subspace, mixed so it is not orthonormal
        mix = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        w = Subspace(Matrix(frame[:, :d] @ mix, FLOAT))
        assert w.dim == d
        b = w.basis.to_numpy()
        assert np.max(np.abs(b.T @ b - np.eye(d)), initial=0.0) <= 1e-12
        got = restrict_operator(t, w)
        if d:
            want, *_ = np.linalg.lstsq(b, t.to_numpy() @ b, rcond=None)
            assert np.max(np.abs(got.to_numpy() - want)) <= 1e-12
        if 0 < d < n:
            # a generic subspace of the same dimension is not invariant
            other = Subspace(Matrix(rng.standard_normal((n, d)), FLOAT))
            with pytest.raises(NotInvariant):
                restrict_operator(t, other)


class TestTolerancePolicy:
    def test_defaults(self):
        assert RANK_REL_TOL == 1e-9
        assert DEFAULT_POLICY.compare_abs_tol == 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TolerancePolicy(compare_abs_tol=0.0)
        with pytest.raises(ValueError):
            TolerancePolicy(compare_abs_tol=-1e-9)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["compare_abs_tol"])
    def test_rejects_non_finite(self, name, bad):
        # an infinite tolerance passes every float comparison vacuously
        with pytest.raises(ValueError, match="finite"):
            TolerancePolicy(**{name: bad})
