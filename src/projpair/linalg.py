"""Dense matrices and subspaces over exact rationals or binary64 floats.

The rational backend is the oracle of the whole package.  A rational
matrix is one integer numerator matrix over one common denominator, kept
canonical, so sums, products, transposes and comparisons run on
integers; Fractions appear only where a single entry, a trace or the
``data`` view leaves the module.  One size rule on
the shape, at least :data:`MODULAR_MIN_DIM` rows and columns, chooses
the exact kernels.  A product whose rows, inner dimension and columns
all reach it multiplies the operands' 16-bit two's-complement limb
planes, which each matrix cuts once, on first use, and keeps in its
read-only ``planes`` slot (:func:`_limb_planes`): one float64 GEMM per
limb plane of B adds into one buffer of digit sums, exact while
inner * min(limbs of A, limbs of B) < 2**21 (:func:`_limb_product`);
a smaller product is a schoolbook sum over Python integers.

Every residue of a matrix's numerators modulo a prime comes from one
intake, :func:`_residues`.  A rank modulo a prime never exceeds the rank
over Q.  So a matrix at the rule, or a product whose inner dimension
reaches it, that has full rank modulo the one prime :data:`_PROOF_PRIME`
has full rank, and :func:`rank` returns that count with no product
formed: the residues of a product come from one float64 GEMM of its
factors' residues; :func:`basis_product_ranks` reads the eigenspace
ranks of two idempotents at the rule off their residues alone.  Every
other exact rank, and every kernel, column space, solve and inverse,
comes from one reduced row echelon form.  A matrix at the rule
(:func:`_uses_primes`) is eliminated modulo the consecutive 31-bit
primes below 2**31 - 1 (:func:`_prime`) in int64 arrays, primes in
pairs; a pair that disagrees on a pivot is skipped.  The RREF is
rebuilt by CRT and rational reconstruction, and accepted once an exact
product certifies it.  A smaller one goes through one fraction-free
Gauss-Jordan pass.  So results are exact and no answer rests on a
prime.

A float matrix holds one read-only float64 ndarray, so its arithmetic
runs in numpy and BLAS; it mirrors the same API through SVD
thresholding.  Every float rank decision, float subspace bases included,
comes from the one rule :func:`numeric_rank`, the fixed cutoff
:data:`RANK_REL_TOL` anchored at unit scale, and every float comparison
from the ``compare_abs_tol`` of a :class:`TolerancePolicy`.

A subspace is a basis in a form that makes coordinates a read: over Q
the basis is the identity on recorded pivot rows, over floats it is
orthonormal (the leading left singular vectors of its spanning
columns).  Coordinates are read off (the pivot rows, or B^T times the
columns), never solved for.  Containment and :func:`restrict_operator`
check the read with one product, exactly over Q, where only the rows off
the pivots are multiplied, and by a residual over floats.  Its
dimension is the number of basis columns, and two subspaces are equal
when they have the same dimension and one contains the other.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NegativePower,
    NotInvariant,
    ProjpairError,
)
from .scalars import (
    FLOAT,
    RATIONAL,
    DEFAULT_POLICY,
    Scalar,
    TolerancePolicy,
    check_same_field,
    coerce_scalar,
)


def _numpy_on_first_use():
    """numpy, executed when code first reads one of its attributes.

    Exact matrices under the size rule never read one, so a process that
    checks only small rational pairs never pays for the import.  Once
    loaded, this is the plain numpy module.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy_on_first_use()

__all__ = [
    "Matrix",
    "Subspace",
    "rank",
    "kernel_basis",
    "row_and_kernel",
    "idempotent_bases",
    "basis_product_ranks",
    "subspace_sum",
    "subspace_intersection",
    "restrict_operator",
    "trace_product",
    "solve_exact",
    "numeric_rank",
    "is_invertible",
    "MODULAR_MIN_DIM",
    "RANK_REL_TOL",
]

# The size rule of the exact path: a rational matrix with at least this
# many rows and columns is eliminated modulo the primes and certified,
# a smaller one by Bareiss; a product whose rows, inner dimension and
# columns all reach it runs on 16-bit limb planes in float64 GEMMs.
MODULAR_MIN_DIM = 12

# The prime of the full-rank proof of rank, 2**20 - 3: a product of its
# residues sums exactly in float64 over an inner dimension of up to
# _PROOF_MAX_INNER (8192).
_PROOF_PRIME = 1048573
_PROOF_MAX_INNER = (2**53 - 1) // (_PROOF_PRIME - 1) ** 2

# The relative singular-value cutoff of numeric_rank.
RANK_REL_TOL = 1e-9


class Matrix:
    """Immutable dense matrix with a scalar-field tag.

    A rational matrix is ``num / den``: integer rows ``num`` (a tuple of
    tuples of int) over one denominator ``den``, kept canonical (``den >=
    1`` and ``gcd(den, *entries) == 1``, so the zero matrix has ``den ==
    1``) and therefore equal exactly when ``num`` and ``den`` are.  Its
    ``data`` is a view as rows of Fractions, and its ``planes`` the
    read-only float64 array of ``num``'s 16-bit limbs that products at
    the size rule multiply (:func:`_limb_planes`); each is built on
    first use and kept, and neither takes part in ``==`` or ``hash``.
    A float matrix holds one read-only float64 ndarray in ``data``.  All
    operations return new matrices; mixing fields raises FieldMismatch.
    The constructor validates outside input (ragged rows, each entry, the
    field) and returns what :func:`_wrap` or :func:`_make` builds.
    """

    __slots__ = ("rows", "cols", "field", "num", "den", "data", "planes")

    def __new__(cls, data: Iterable[Iterable], field: str):
        if field == FLOAT and isinstance(data, np.ndarray) and data.ndim == 2 and data.dtype == np.float64:
            return _wrap(data.copy())
        rows = tuple(tuple(r) for r in data)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged row lengths")
        if field == FLOAT:
            floats = [[coerce_scalar(x, FLOAT) for x in r] for r in rows]
            return _wrap(np.array(floats, dtype=np.float64).reshape(len(rows), ncols))
        if field != RATIONAL:
            raise ValueError(f"unknown field {field!r}")
        fracs = [[coerce_scalar(x, field) for x in r] for r in rows]
        # the lcm of reduced denominators is already canonical
        den = math.lcm(*(x.denominator for r in fracs for x in r))
        return _make(tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in fracs), ncols, den)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Matrix is immutable")

    def __getattr__(self, name):
        # Python calls this only for a slot that was never set: the
        # rational ``data`` view or limb ``planes`` before their first
        # use, which are built here and kept, or ``num``/``den``/
        # ``planes`` of a float matrix.
        if self.field == FLOAT or name not in ("data", "planes"):
            raise AttributeError(name)
        if name == "planes":
            value = _limb_planes(self)
        else:
            den = self.den
            value = tuple(tuple(Fraction(x, den) for x in r) for r in self.num)
        object.__setattr__(self, name, value)
        return value

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, field: str) -> "Matrix":
        if field == FLOAT:
            return _wrap(np.zeros((rows, cols)))
        return _make(((0,) * cols,) * rows, cols)

    @staticmethod
    @functools.lru_cache(maxsize=128)  # immutable, so one shared matrix per (n, field)
    def identity(n: int, field: str) -> "Matrix":
        if field == FLOAT:
            return _wrap(np.eye(n))
        return _make(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def diag(cls, values: Sequence, field: str) -> "Matrix":
        vals = [coerce_scalar(v, field) for v in values]
        if field == FLOAT:
            return _wrap(np.diag(np.array(vals, dtype=np.float64)))
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)], field)

    # -- basic queries --------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Scalar:
        if self.field == FLOAT:
            return float(self.data[i, j])
        return Fraction(self.num[i][j], self.den)

    def column(self, j: int) -> "Matrix":
        if self.field == FLOAT:
            return _wrap(self.data[:, j : j + 1])
        return _exact([(r[j],) for r in self.num], 1, self.den)

    def to_lists(self) -> list[list[Scalar]]:
        if self.field == FLOAT:
            return self.data.tolist()
        return [list(r) for r in self.data]

    def to_numpy(self) -> np.ndarray:
        """Float64 array of the entries; for float matrices the stored,
        read-only array itself."""
        if self.field == FLOAT:
            return self.data
        # int / int rounds correctly, exactly as float(Fraction) does
        den = self.den
        return np.array([[x / den for x in r] for r in self.num], dtype=float).reshape(
            self.rows, self.cols
        )

    def to_float(self) -> "Matrix":
        if self.field == FLOAT:
            return self
        return _wrap(self.to_numpy())

    def max_norm(self) -> Scalar:
        """Largest absolute entry (0 for empty matrices)."""
        if self.rows == 0 or self.cols == 0:
            return Fraction(0) if self.field == RATIONAL else 0.0
        if self.field == FLOAT:
            return float(np.max(np.abs(self.data)))
        return Fraction(max(map(abs, itertools.chain.from_iterable(self.num))), self.den)

    def is_zero(self) -> bool:
        if self.field == FLOAT:
            return not self.data.any()
        return not any(map(any, self.num))

    # -- algebra --------------------------------------------------------

    def _check_compatible(self, other: "Matrix") -> None:
        check_same_field(self.field, other.field)
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch: {self.shape} vs {other.shape}")

    def _common_num(self, other: "Matrix"):
        """Both numerators over lcm(den, other.den): (num, other_num, lcm)."""
        den = math.lcm(self.den, other.den)
        return _scaled_num(self.num, den // self.den), _scaled_num(other.num, den // other.den), den

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_compatible(other)
        if self.field == FLOAT:
            return _wrap(self.data + other.data)
        a, b, den = self._common_num(other)
        return _exact([list(map(operator.add, ra, rb)) for ra, rb in zip(a, b)], self.cols, den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_compatible(other)
        if self.field == FLOAT:
            return _wrap(self.data - other.data)
        a, b, den = self._common_num(other)
        return _exact([list(map(operator.sub, ra, rb)) for ra, rb in zip(a, b)], self.cols, den)

    def __neg__(self) -> "Matrix":
        if self.field == FLOAT:
            return _wrap(-self.data)
        return _make(tuple(tuple(-x for x in r) for r in self.num), self.cols, self.den)

    def __mul__(self, other):
        """The matrix product, or a scalar multiple when other is not a
        Matrix.

        Over Q the product is num_a num_b over den_a den_b, canonicalized.
        The integer product is a schoolbook sum of Python-integer products
        unless all of rows, inner dimension and columns reach the size
        rule (:data:`MODULAR_MIN_DIM`); then :func:`_limb_product`
        multiplies the two operands' 16-bit limb ``planes``, each cut
        once per matrix, in float64 GEMMs, which are exact while inner *
        min(limbs of A, limbs of B) < 2**21.  Over floats it is one
        ndarray product.
        """
        if isinstance(other, Matrix):
            check_same_field(self.field, other.field)
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.shape} by {other.shape}"
                )
            if self.field == FLOAT:
                return _wrap(self.data @ other.data)
            if min(self.rows, self.cols, other.cols) >= MODULAR_MIN_DIM:
                num = _limb_product(self.planes, other.planes)
            else:
                b_cols = list(zip(*other.num)) if other.rows else ((),) * other.cols
                num = [[sum(map(operator.mul, a_row, b_col)) for b_col in b_cols] for a_row in self.num]
            return _exact(num, other.cols, self.den * other.den)
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, other) -> "Matrix":
        scalar = coerce_scalar(other, self.field)
        if self.field == FLOAT:
            return _wrap(scalar * self.data)
        return _exact(
            _scaled_num(self.num, scalar.numerator), self.cols, self.den * scalar.denominator
        )

    def __pow__(self, n: int) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("power of a non-square matrix")
        if not isinstance(n, int) or n < 0:
            raise NegativePower("exponent must be a nonnegative integer")
        if n == 0:
            return Matrix.identity(self.rows, self.field)
        # binary powering that starts from the first factor, not from I
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def transpose(self) -> "Matrix":
        if self.field == FLOAT:
            return _wrap(self.data.T)
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return _make(num, self.rows, self.den)

    def hstack(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ in hstack")
        if self.field == FLOAT:
            return _wrap(np.hstack((self.data, other.data)))
        # over the lcm of two canonical denominators the result is canonical
        a, b, den = self._common_num(other)
        return _make(tuple(ra + rb for ra, rb in zip(a, b)), self.cols + other.cols, den)

    def trace(self) -> Scalar:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        if self.field == FLOAT:
            return float(np.trace(self.data))
        return Fraction(sum(self.num[i][i] for i in range(self.rows)), self.den)

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatch("inverse of a non-square matrix")
        if self.field == FLOAT:
            try:
                return _wrap(np.linalg.inv(self.data))
            except np.linalg.LinAlgError as exc:
                raise ProjpairError("matrix is not invertible") from exc
        # for singular A the system A X = I is inconsistent, so None suffices
        result = solve_exact(self, Matrix.identity(self.rows, self.field))
        if result is None:
            raise ProjpairError("matrix is not invertible")
        return result

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
        ):
            return False
        if self.field == FLOAT:
            return bool(np.array_equal(self.data, other.data))
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        if self.field == FLOAT:
            # + 0.0 turns -0.0 into 0.0, which compares equal to it
            return hash((self.field, self.shape, (self.data + 0.0).tobytes()))
        return hash((self.field, self.cols, self.den, self.num))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.field})"


def _wrap(arr: np.ndarray) -> Matrix:
    """Float matrix owning ``arr``, a 2-D float64 array no one else writes to."""
    arr.setflags(write=False)
    m = object.__new__(Matrix)
    object.__setattr__(m, "rows", arr.shape[0])
    object.__setattr__(m, "cols", arr.shape[1])
    object.__setattr__(m, "field", FLOAT)
    object.__setattr__(m, "data", arr)
    return m


def _make(num: tuple, cols: int, den: int = 1) -> Matrix:
    """Rational matrix num / den, taken as it is: num must be a tuple of
    int tuples and the pair already canonical.

    cols is the width, which the rows alone cannot give when there are
    none: a 0 x 3 matrix stays 0 x 3.
    """
    m = object.__new__(Matrix)
    object.__setattr__(m, "rows", len(num))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "field", RATIONAL)
    object.__setattr__(m, "num", num)
    object.__setattr__(m, "den", den)
    return m


def _exact(num, cols: int, den: int = 1) -> Matrix:
    """Rational matrix num / den over any integer rows and a positive
    den, brought to canonical form by dividing out their common gcd."""
    num = tuple(map(tuple, num))
    if den != 1:
        g = math.gcd(den, *itertools.chain.from_iterable(num))
        if g != 1:
            den //= g
            num = tuple(tuple(x // g for x in r) for r in num)
    return _make(num, cols, den)


def _scaled_num(num: tuple, k: int):
    return num if k == 1 else tuple(tuple(x * k for x in r) for r in num)


def _limb_planes(m: Matrix) -> np.ndarray:
    """The (L, rows, cols) read-only float64 planes of the 16-bit
    two's-complement limbs of m.num, little end first: each entry is x =
    sum_s planes[s] 2**(16 s), every limb unsigned but the top one, which
    carries the sign.  L is the fewest limbs that hold the widest entry
    and a sign bit; the entries are cut by int.to_bytes and read by one
    np.frombuffer, as <u2 and the top limb as <i2.
    """
    width = (max(map(int.bit_length, itertools.chain.from_iterable(m.num)), default=0) + 16) // 16
    buf = b"".join([x.to_bytes(2 * width, "little", signed=True) for r in m.num for x in r])
    limbs = np.frombuffer(buf, "<u2").astype(np.float64).reshape(-1, width)
    limbs[:, -1] = np.frombuffer(buf, "<i2")[width - 1 :: width]
    planes = np.ascontiguousarray(limbs.T).reshape(width, m.rows, m.cols)
    planes.setflags(write=False)
    return planes


def _limb_product(a: np.ndarray, b: np.ndarray) -> list[list[int]]:
    """The integer product of A (rows x inner) and B (inner x cols), given
    as their limb planes (:func:`_limb_planes`) of L_A and L_B limbs, as
    rows of Python integers.

    For each limb plane b_t of B one float64 GEMM of A's planes stacked
    as an (L_A rows) x inner matrix by b_t gives every sum_k a_s[i, k]
    b_t[k, j], and adds it to digit s + t of one (digits, rows, cols)
    buffer, so no more than L_A rows cols products are held at once.
    Each such sum is an integer below inner * 2**32 in absolute value,
    and a digit's total below inner * min(L_A, L_B) * 2**32; while that
    is below 2**53, that is inner * min(L_A, L_B) < 2**21, every partial
    sum is exact in float64, in any order BLAS takes.  The digits are
    carried into 16 bits each in int64.  An entry is below inner *
    2**(16 (L_A + L_B) - 2) in absolute value, so L_A + L_B digits and
    one more per 16 bits of inner hold it as a signed little-endian
    integer, read back by int.from_bytes.
    """
    la, rows, inner = a.shape
    lb, _, cols = b.shape
    assert inner * min(la, lb) < 2**21, "limb product sums would leave float64's exact range"
    ndigits = la + lb + (inner.bit_length() + 15) // 16
    sums = np.zeros((ndigits, rows, cols))
    stacked = a.reshape(la * rows, inner)
    prod = np.empty((la * rows, cols))
    for t in range(lb):
        np.matmul(stacked, b[t], out=prod)
        sums[t : t + la] += prod.reshape(la, rows, cols)
    digits = sums.astype(np.int64)
    carry = 0
    for v in digits:
        v += carry
        carry = v >> 16
        v &= 0xFFFF
    buf = digits.transpose(1, 2, 0).astype("<u2").tobytes()
    width = 2 * ndigits
    from_bytes = int.from_bytes
    flat = [from_bytes(buf[o : o + width], "little", signed=True) for o in range(0, len(buf), width)]
    return [flat[i : i + cols] for i in range(0, rows * cols, cols)]


# ---------------------------------------------------------------------------
# Exact elimination (fraction-free Bareiss core)
# ---------------------------------------------------------------------------


def _bareiss_echelon(
    rows: list[list[int]], ncols: int, *, jordan: bool = False
) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free row echelon; returns (rows, pivot_cols).

    One-step Bareiss: every interior division is exact, which keeps the
    intermediate entries at the size of minors instead of exploding.
    With ``jordan`` each pivot step clears its column in the rows above
    too, by the same exact update (fraction-free Gauss-Jordan), so every
    pivot ends equal to the last one, d, and the nonzero rows are d
    times the RREF.
    """
    nrows = len(rows)
    prev = 1
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        row_r = rows[r]
        others = itertools.chain(range(r), range(r + 1, nrows)) if jordan else range(r + 1, nrows)
        for i in others:
            row_i = rows[i]
            factor = row_i[c]
            if factor == 0 and pivot == prev:
                continue
            for j in range(0 if jordan else c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
    return rows, piv_cols


def _rref_exact(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over Q: (its nonzero rows, pivot columns).

    At or above the size rule (:data:`MODULAR_MIN_DIM` rows and columns)
    it is the certified multi-modular RREF of :func:`_rref_modular`,
    below it that of :func:`_rref_bareiss`.  Either way the answer is
    exact and the same.
    """
    return _rref_modular(m) if _uses_primes(m) else _rref_bareiss(m)


def _uses_primes(m: Matrix) -> bool:
    """The size rule: whether an exact elimination of m runs modulo the
    primes of :func:`_prime`, that is, whether m has at least
    :data:`MODULAR_MIN_DIM` rows and columns."""
    return min(m.rows, m.cols) >= MODULAR_MIN_DIM


_PRIMES: list[int] = []  # the moduli of _prime found so far


def _prime(i: int) -> int:
    """The i-th modulus (from 0) of the multi-modular elimination, the
    primes below 2**31 - 1 counting down, so that two reduced entries, or
    two of the primes, multiply within an int64.  Each is the next odd
    number down that passes Miller-Rabin to bases 2, 3, 5 and 7, which no
    composite below 3.2e9 does (Pomerance, Selfridge & Wagstaff 1980).
    """
    while len(_PRIMES) <= i:
        below = _PRIMES[-1] if _PRIMES else 2**31 - 1
        _PRIMES.append(next(n for n in range(below - 2, 7, -2) if _strong_probable_prime(n)))
    return _PRIMES[i]


def _strong_probable_prime(n: int) -> bool:
    """Whether the odd n > 7 is a strong probable prime to bases 2, 3, 5 and 7."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2**s d with d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def _rref_bareiss(m: Matrix) -> tuple[Matrix, list[int]]:
    """The RREF of :func:`_rref_exact` by one fraction-free Gauss-Jordan
    pass (:func:`_bareiss_echelon` with ``jordan``): its nonzero rows
    over their common pivot d, the sign of d moved into the rows."""
    rows, piv_cols = _bareiss_echelon([list(r) for r in m.num], m.cols, jordan=True)
    d = rows[0][piv_cols[0]] if piv_cols else 1
    sign = -1 if d < 0 else 1
    return _exact([[sign * x for x in row] for row in rows[: len(piv_cols)]], m.cols, sign * d), piv_cols


def _rref_layers(a, primes):
    """Gauss-Jordan RREF of the int64 residue layers a, layer i modulo
    primes[i], eliminated together in place.

    Every layer takes the same row swaps: the pivot row of a column is
    the first row at or below the current one that is nonzero modulo
    every prime.  An RREF modulo a prime does not depend on the pivot
    rows, so each layer is the RREF modulo its prime, and the layers
    share their pivot columns.  Returns the layers' nonzero rows, as a
    (layers, rank, cols) array, and the pivot columns; or None when the
    primes disagree on a pivot: a column is nonzero modulo one prime
    below the current row, but no row there is nonzero modulo all.
    """
    mods = np.array(primes, dtype=np.int64)[:, None]
    nrows, ncols = a.shape[1:]
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        heads = a[:, r, c].tolist()
        if not all(heads):
            nonzero = a[:, r:, c] != 0
            every = nonzero.all(axis=0)
            if not every.any():
                if nonzero.any():
                    return None
                continue
            i = r + int(every.argmax())
            a[:, [r, i]] = a[:, [i, r]]
            heads = a[:, r, c].tolist()
        inv = np.array([pow(h, -1, p) for h, p in zip(heads, primes)], dtype=np.int64)
        row = a[:, r, c:] * inv[:, None] % mods
        # every row, r included, loses its column c; row r is then set
        rest = a[:, :, c:]
        rest -= rest[:, :, :1] * row[:, None, :]
        rest %= mods[:, :, None]
        a[:, r, c:] = row
        piv_cols.append(c)
        r += 1
    return a[:, :r], piv_cols


def _rref_modular(m: Matrix) -> tuple[Matrix, list[int]]:
    """Certified RREF of a rational m from its RREFs modulo the primes of
    :func:`_prime`, taken until one candidate is certified.

    The primes go in pairs, whose product still fits an int64, and each
    pair's residues (:func:`_residues`) are eliminated as one unit
    (:func:`_rref_layers`); a pair that disagrees on a pivot is skipped.
    Of the pairs seen, those whose RREF has the largest rank, and among
    those the earliest pivot columns c, are combined by CRT entry by
    entry; a better pivot set restarts the combination from zeros modulo
    1, and a pair whose pivot set is worse than the best is skipped.
    After each pair the non-pivot columns are rebuilt by rational
    reconstruction (:func:`_reconstruct`), the pivot columns being the
    identity, and the candidate R stands only if :func:`_certified` proves
    it the RREF of m: it checks the echelon form and m[:, c] R = m
    exactly, and the rank |c| of m modulo the kept primes supplies the
    lower bound.  So no answer rests on a prime.
    """
    num = m.num
    best = None  # (-rank, pivot columns) of the kept pairs
    for i in itertools.count(0, 2):
        p, q = _prime(i), _prime(i + 1)
        layers = _rref_layers(_residues(m, (p, q)), (p, q))
        if layers is None:
            continue
        reduced, piv_cols = layers
        key = (-len(piv_cols), piv_cols)
        if best is None or key < best:
            best, residues, modulus = key, [0] * (len(piv_cols) * (m.cols - len(piv_cols))), 1
        elif key > best:
            continue
        pivots = set(piv_cols)
        free_cols = [c for c in range(m.cols) if c not in pivots]
        block = reduced[:, :, free_cols]
        lift = (block[1] - block[0]) % q * pow(p, -1, q) % q
        values = (block[0] + p * lift).ravel().tolist()  # CRT of the pair, below 2^62
        pq = p * q
        inv = pow(modulus, -1, pq)
        residues = [u + modulus * ((v - u) * inv % pq) for u, v in zip(residues, values)]
        modulus *= pq
        found = _reconstruct(residues, modulus)
        if found is None:
            continue
        values, den = found
        width = len(free_cols)
        rows = [values[k * width : (k + 1) * width] for k in range(len(piv_cols))]
        if not _certified(num, piv_cols, free_cols, rows, den):
            continue
        out = []
        for pivot, row in zip(piv_cols, rows):
            full = [0] * m.cols
            full[pivot] = den
            for c, v in zip(free_cols, row):
                full[c] = v
            out.append(full)
        return _exact(out, m.cols, den), piv_cols


def _reconstruct(residues: list[int], modulus: int) -> tuple[list[int], int] | None:
    """Numerators over one denominator D whose ratios are the residues
    modulo modulus, each numerator and D at most sqrt(modulus / 2); None
    if there are none.

    D runs along the entries: an entry u with u D reduced (symmetric)
    already within the bound needs nothing more, and otherwise the
    rational reconstruction n / d of u D (Wang, Guy & Davenport 1982)
    multiplies D by d.  Fractions within the bound are unique, so once
    the modulus passes 2 N D of the true RREF the result is that RREF.
    """
    bound = math.isqrt((modulus - 1) // 2)
    half = modulus // 2
    den = 1
    values: list[int] = []
    for u in residues:
        x = u * den % modulus
        if x > half:
            x -= modulus
        if abs(x) > bound:
            found = _rational(x % modulus, modulus, bound)
            if found is None:
                return None
            x, d = found
            den *= d
            if den > bound:
                return None
            values = [v * d for v in values]
        values.append(x)
    return values, den


def _rational(u: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """n, d with n = u d modulo modulus, |n| <= bound and 0 < d <= bound,
    or None: the half-extended Euclidean algorithm on (modulus, u)."""
    r0, r1 = modulus, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(t1, modulus) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certified(num, piv_cols, free_cols, rows, den) -> bool:
    """Whether R, the identity on the pivot columns and rows / den on the
    free ones, is the RREF of num, given that num has rank len(piv_cols)
    modulo some prime.

    R must be in reduced echelon form with those pivots (each row zero
    left of its pivot), and num[:, free] * den == num[:, piv] * rows must
    hold exactly, which is num == num[:, piv] R.  Then the rows of num lie
    in the row space of R, so rank num <= |piv|; the modular rank gives
    rank num >= |piv|, so both row spaces are equal, and the RREF of a
    row space is unique.
    """
    for c, row in zip(piv_cols, rows):
        if any(v for f, v in zip(free_cols, row) if f < c):
            return False
    cols = list(zip(*rows)) if rows else [()] * len(free_cols)
    for r in num:
        left = [r[c] for c in piv_cols]
        for c, col in zip(free_cols, cols):
            if r[c] * den != sum(map(operator.mul, left, col)):
                return False
    return True


def solve_exact(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b exactly over Q; None when the system is inconsistent.

    Free variables, if any, are set to zero.
    """
    check_same_field(a.field, b.field)
    if a.field != RATIONAL:
        raise FieldMismatch("solve_exact requires the rational field")
    if a.rows != b.rows:
        raise DimensionMismatch("row counts differ in solve")
    if a.cols == 0:
        return Matrix.zeros(0, b.cols, a.field) if b.is_zero() else None
    rref, piv_cols = _rref_exact(a.hstack(b))
    if piv_cols and piv_cols[-1] >= a.cols:
        return None
    sol = [(0,) * b.cols] * a.cols
    for row, c in zip(rref.num, piv_cols):
        sol[c] = row[a.cols :]
    return _exact(sol, b.cols, rref.den)


# ---------------------------------------------------------------------------
# Float backend
# ---------------------------------------------------------------------------


def numeric_rank(sv: np.ndarray, shape: tuple[int, int]) -> tuple[int, float]:
    """The float rank rule: rank and margin from descending singular values.

    A singular value counts when it exceeds RANK_REL_TOL * max(sigma_max,
    1) * max(shape), a fixed cutoff that no policy or comparison
    tolerance moves.  The scale is anchored at one because every matrix
    the package ranks is built from unit-scale idempotents or has
    orthonormal columns: a matrix that should be zero but holds 1e-16
    noise is rank zero, not full rank.  The margin is the smallest kept
    singular value over that threshold (inf at rank zero, and for an
    empty sv), so callers can distrust borderline decisions.
    """
    if sv.size == 0:
        return 0, float("inf")
    threshold = RANK_REL_TOL * max(float(sv[0]), 1.0) * max(shape)
    r = int(np.sum(sv > threshold))
    margin = float(sv[r - 1]) / threshold if r > 0 else float("inf")
    return r, margin


def is_invertible(m: Matrix) -> bool:
    """Whether m is square of full rank (the empty matrix is), by the
    exact :func:`rank` over Q and by :func:`numeric_rank` over floats, so
    a numerically-zero float matrix is singular whatever its noise
    spectrum."""
    return m.is_square and rank(m) == m.rows


def _bareiss_rank(m: Matrix) -> int:
    return len(_bareiss_echelon([list(r) for r in m.num], m.cols)[1])


def _residues(m: Matrix, primes: Sequence[int]) -> np.ndarray:
    """m.num modulo each of the primes, as a (len(primes), rows, cols)
    int64 array: one Python pass modulo their product, which must fit an
    int64, then one int64 remainder per prime."""
    modulus = math.prod(primes)
    assert modulus < 2**63, "the product of the primes would leave int64"
    flat = [x % modulus for x in itertools.chain.from_iterable(m.num)]
    a = np.array(flat, dtype=np.int64).reshape(1, m.rows, m.cols)
    return a % np.array(primes, dtype=np.int64)[:, None, None]


def _residue_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB modulo :data:`_PROOF_PRIME` from the int64 residue layers of A
    and B, as int64, in one float64 GEMM.  Each sum of the GEMM is an
    integer below inner * (p - 1)**2; while that is below 2**53, every
    partial sum is exact in float64, in any order BLAS takes."""
    p = _PROOF_PRIME
    assert a.shape[-1] * (p - 1) ** 2 < 2**53, "residue sums would leave float64's exact range"
    return np.fmod(a.astype(np.float64) @ b.astype(np.float64), p).astype(np.int64)


def _residue_rank(a: Matrix, b: Matrix | None = None) -> int:
    """The rank of a, or of the product ab, modulo :data:`_PROOF_PRIME`,
    which is at most its rank over Q.  ab is not formed: its residues
    are those of a times those of b (:func:`_residue_product`)."""
    primes = (_PROOF_PRIME,)
    res = _residues(a, primes)
    if b is not None:
        res = _residue_product(res, _residues(b, primes))
    return len(_rref_layers(res, primes)[1])


def _residue_bases(x: Matrix) -> tuple[tuple, tuple]:
    """The bases ((R_X, R_{X-I}), (K_X, K_{X-I})) of :func:`idempotent_bases`
    for an idempotent x modulo :data:`_PROOF_PRIME` (the last two times the
    unit x.den), as (1, rows, cols) int64 layers, from one elimination."""
    p, eye = _PROOF_PRIME, np.eye(x.cols, dtype=np.int64)
    num = _residues(x, (p,))
    rows, piv_cols = _rref_layers(num.copy(), (p,))
    free = [c for c in range(x.cols) if c not in piv_cols]
    r_xi = (x.den % p * eye[free] - num[:, free]) % p
    eye[piv_cols] -= rows[0]  # K_X = (I - R_X on the pivot rows)[:, free]
    return (rows, r_xi), (eye[None, :, free] % p, num[:, :, piv_cols])


# ---------------------------------------------------------------------------
# Field-dispatching operations
# ---------------------------------------------------------------------------


def rank(a: Matrix, b: Matrix | None = None) -> int:
    """The rank of a, or with b that of the product ab.

    Over Q, a matrix at the size rule, or a product whose inner
    dimension reaches it (and is at most :data:`_PROOF_MAX_INNER`), is
    first ranked modulo :data:`_PROOF_PRIME` by :func:`_residue_rank`,
    which forms no product.  No rank modulo a prime exceeds the rank over
    Q, so a full one, min(rows, inner, cols), is the answer.  Every other
    rank over Q is the pivot count of the certified RREF of a or ab at or
    above the size rule and its Bareiss rank below it.  Over floats it is
    the :func:`numeric_rank` of the singular values of a or ab.
    """
    if b is None:
        proof, full = a.field == RATIONAL and _uses_primes(a), min(a.shape)
    else:
        proof = (
            a.field == b.field == RATIONAL
            and a.cols == b.rows
            and MODULAR_MIN_DIM <= a.cols <= _PROOF_MAX_INNER
        )
        full = min(a.rows, a.cols, b.cols)
    if proof and _residue_rank(a, b) == full:
        return full
    m = a if b is None else a * b
    if m.field == RATIONAL:
        return len(_rref_exact(m)[1]) if _uses_primes(m) else _bareiss_rank(m)
    if m.rows == 0 or m.cols == 0:
        return 0
    return numeric_rank(np.linalg.svd(m.data, compute_uv=False), m.shape)[0]


def row_and_kernel(m: Matrix) -> tuple[Matrix, Matrix, list[int] | None]:
    """Row-space basis R, kernel basis K and the free columns of m, all
    from one elimination; R has rank m rows.

    Over Q, R is the nonzero rows of the reduced row echelon form, and K
    has one column per free column f: 1 at f and minus column f of R at
    the pivots, over R's denominator, so K is the identity on the rows of
    the free columns.  Over floats one full SVD gives both, R = Vh[:r]
    with orthonormal rows and K = Vh[r:]^T with orthonormal columns, r
    its :func:`numeric_rank`; there are no free columns (None).
    """
    if m.field == RATIONAL:
        rref, piv_cols = _rref_exact(m)
        free_cols = [c for c in range(m.cols) if c not in piv_cols]
        den = rref.den
        pivot_rows = dict(zip(piv_cols, rref.num))
        num = [
            [-pivot_rows[r][f] for f in free_cols]
            if r in pivot_rows
            else [den if f == r else 0 for f in free_cols]
            for r in range(m.cols)
        ]
        return rref, _exact(num, len(free_cols), den), free_cols
    if m.rows == 0:
        return Matrix.zeros(0, m.cols, FLOAT), Matrix.identity(m.cols, FLOAT), None
    _, s, vh = np.linalg.svd(m.data, full_matrices=True)
    r, _ = numeric_rank(s, m.shape)
    return _wrap(vh[:r]), _wrap(vh[r:].T), None


def idempotent_bases(x: Matrix) -> tuple[tuple[Matrix, Matrix], tuple[Matrix, Matrix]]:
    """Row-space and kernel bases of an idempotent X and of X - I, from
    one elimination of X: ((R_X, R_{X-I}), (K_X, K_{X-I})), so that
    index a holds the bases of X - aI.

    R_X and K_X are those of :func:`row_and_kernel`.  Over Q, with f its
    free and c its pivot columns, ker X = im(I - X) and K_X is the
    identity on rows f, so I - X = K_X (I - X)[f, :]: the n - rank X rows
    (I - X)[f, :] span the row space of X - I.  The rows of X lie in the
    row space of R_X, which is the identity on columns c, so X = X[:, c]
    R_X: the rank X columns X[:, c] span im X = ker(X - I).  Over floats
    one full SVD X = U diag(s) Vh gives R_X = Vh[:r], K_X = Vh[r:]^T,
    R_{X-I} = U[:, r:]^T (ker X^T, the row space of I - X) and K_{X-I} =
    U[:, :r] (im X), r its :func:`numeric_rank`.  x must be square and
    idempotent; nothing here checks it.
    """
    if x.field == RATIONAL:
        r_x, k_x, free_cols = row_and_kernel(x)
        free = set(free_cols)
        piv_cols = [c for c in range(x.cols) if c not in free]
        den = x.den
        r_xi = [[(den if j == f else 0) - v for j, v in enumerate(x.num[f])] for f in free_cols]
        k_xi = [[row[c] for c in piv_cols] for row in x.num]
        return (r_x, _exact(r_xi, x.cols, den)), (k_x, _exact(k_xi, len(piv_cols), den))
    u, s, vh = np.linalg.svd(x.data, full_matrices=True)
    r, _ = numeric_rank(s, x.shape)
    return (_wrap(vh[:r]), _wrap(u[:, r:].T)), (_wrap(vh[r:].T), _wrap(u[:, :r]))


def basis_product_ranks(x: Matrix, y: Matrix) -> tuple[tuple, dict[tuple[int, int, int], int]]:
    """For idempotents X and Y of one size: ((rank X, rank(X - I)), (rank
    Y, rank(Y - I))) and the ranks of the products R_{U-aI} K_{V-bI} of
    the bases of :func:`idempotent_bases`, keyed (i, a, b), with (U, V) =
    (X, Y) if i = 0 else (Y, X).

    Over Q at the size rule, where p = :data:`_PROOF_PRIME` divides
    neither denominator, they are read modulo p (:func:`_residue_bases`),
    with no elimination of X or Y over Q.  X modulo p is idempotent, so
    its rank is tr X modulo p, which is rank X as rank X <= d < p.  So the
    row space and kernel of X - aI modulo p are the reductions of the
    saturated rational ones, any bases of them differ from reduced
    Z_(p)-bases by invertible matrices, and the rank of a reduced
    p-integral product never exceeds its rank over Q: the ranks of X - aI
    are exact, and so is each product of full rank min(rows, cols) modulo
    p.  Every other product is rank(R, K) of the exact bases.
    """
    pair, ranks, p = (x, y), {}, _PROOF_PRIME
    exact = functools.cache(lambda i: idempotent_bases(pair[i]))
    if x.field == RATIONAL and MODULAR_MIN_DIM <= x.rows <= _PROOF_MAX_INNER and x.den % p and y.den % p:
        mod = [_residue_bases(z) for z in pair]
        sizes = tuple(tuple(r.shape[1] for r in rows) for rows, _ in mod)
        for i, a, b in itertools.product((0, 1), repeat=3):
            prod = _residue_product(mod[i][0][a], mod[1 - i][1][b])
            if len(_rref_layers(prod, (p,))[1]) == min(prod.shape[1:]):
                ranks[i, a, b] = min(prod.shape[1:])
    else:
        sizes = tuple(tuple(r.rows for r in exact(i)[0]) for i in (0, 1))
    for i, a, b in itertools.product((0, 1), repeat=3):
        if (i, a, b) not in ranks:
            ranks[i, a, b] = rank(exact(i)[0][a], exact(1 - i)[1][b])
    return sizes, ranks


def kernel_basis(m: Matrix) -> "Subspace":
    """Basis of the null space of m, as a Subspace of dimension cols - rank:
    the K of :func:`row_and_kernel`.

    Over floats it is the trailing right singular vectors past the
    :func:`numeric_rank` of m, so a numerically-zero matrix has the full
    kernel.
    """
    if m.cols == 0:
        raise DimensionMismatch("kernel needs at least one column")
    _, basis, free_cols = row_and_kernel(m)
    return Subspace(basis, _raw=True, _pivots=free_cols)


def _column_echelon(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced column echelon form over Q with zero columns dropped, and
    its pivot rows, on which it is the identity.

    Computed as the transpose of the reduced row echelon form of the
    transpose.
    """
    rref, piv_rows = _rref_exact(m.transpose())
    return rref.transpose(), piv_rows


class Subspace:
    """A linear subspace of Q^n or R^n, held as a basis: the columns of
    ``basis`` are independent and span it.

    Over Q the basis is the identity on the rows listed in ``pivots``;
    over floats it is orthonormal and ``pivots`` is unused.  Either way
    the coordinates of a vector of the subspace are a read, not a solve
    (see :meth:`_coordinates`).  The constructor takes any spanning
    columns, dependencies allowed, and brings them to that form: their
    reduced column echelon form over Q, and over floats the leading left
    singular vectors, as many as the :func:`numeric_rank` of the columns.
    With _raw the basis is taken as it is, and must already be in that
    form with pivot rows _pivots.  Equality is mutual containment: the
    same dimension, and one subspace contains the other, over floats
    within the default ``compare_abs_tol``.
    """

    __slots__ = ("ambient_dim", "basis", "field", "pivots")

    def __init__(self, basis: Matrix, *, _raw=False, _pivots=None):
        if basis.rows < 1:
            raise DimensionMismatch("ambient dimension must be at least 1")
        if not _raw and basis.field == RATIONAL:
            basis, _pivots = _column_echelon(basis)
        elif not _raw and basis.cols:
            u, s, _ = np.linalg.svd(basis.data, full_matrices=False)
            r, _ = numeric_rank(s, basis.shape)
            basis = _wrap(u[:, :r])
        object.__setattr__(self, "ambient_dim", basis.rows)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "field", basis.field)
        object.__setattr__(self, "pivots", _pivots)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int, field: str) -> "Subspace":
        return cls(Matrix.zeros(ambient_dim, 0, field), _raw=True, _pivots=[])

    @classmethod
    def full(cls, ambient_dim: int, field: str) -> "Subspace":
        eye = Matrix.identity(ambient_dim, field)
        return cls(eye, _raw=True, _pivots=list(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def _coordinates(self, m: Matrix, pol: TolerancePolicy, *scale_by: Matrix) -> Matrix | None:
        """X with basis * X = m, or None when a column of m is not in self.

        Over Q, X is the pivot rows of m.  The basis is the identity on
        them, so basis * X equals m there by construction, and X is
        accepted when the rows off the pivots reproduce m's exactly:
        basis[rest] * X == m[rest].  Over floats, X = basis^T m, accepted
        when no entry of basis * X - m exceeds compare_abs_tol * prod(1 +
        |x|) over the x of scale_by.
        """
        check_same_field(self.field, m.field)
        if m.rows != self.ambient_dim:
            raise DimensionMismatch("row count does not match the ambient dimension")
        if self.field == RATIONAL:
            rest = sorted(set(range(self.ambient_dim)).difference(self.pivots))
            x = _rows(m, self.pivots)
            return x if _rows(self.basis, rest) * x == _rows(m, rest) else None
        b = self.basis.data
        x = b.T @ m.data
        residual = float(np.max(np.abs(b @ x - m.data))) if m.data.size else 0.0
        tol = pol.compare_abs_tol * math.prod(1.0 + float(s.max_norm()) for s in scale_by)
        return _wrap(x) if residual <= tol else None

    def contains(self, other: "Subspace") -> bool:
        """Whether other is a subset of self."""
        self._check_ambient(other)
        if other.dim == 0:
            return True
        return self._coordinates(other.basis, DEFAULT_POLICY, other.basis) is not None

    def _check_ambient(self, other: "Subspace") -> None:
        check_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.contains(other)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.dim))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union: column space of the concatenated bases."""
    a._check_ambient(b)
    return Subspace(a.basis.hstack(b.basis))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked system [A | -B]."""
    a._check_ambient(b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim, a.field)
    stacked = a.basis.hstack(-b.basis)
    coeffs = kernel_basis(stacked)
    if coeffs.dim == 0:
        return Subspace.zero(a.ambient_dim, a.field)
    top = _rows(coeffs.basis, range(a.dim))
    return Subspace(a.basis * top)


def _rows(m: Matrix, rows: Sequence[int]) -> Matrix:
    """The matrix of the listed rows of m, in that order."""
    if m.field == FLOAT:
        return _wrap(m.data[list(rows)])
    return _exact([m.num[i] for i in rows], m.cols, m.den)


def restrict_operator(t: Matrix, w: Subspace, pol: TolerancePolicy = DEFAULT_POLICY) -> Matrix:
    """Matrix of t acting on w, in the basis of w, checked: the
    coordinates of t * basis, read off its pivot rows over Q and as
    basis^T (t * basis) over floats.  Raises :class:`NotInvariant` unless
    basis * result reproduces t * basis (exactly over Q, within
    compare_abs_tol * (1 + |t|) * (1 + |basis|) over floats).
    """
    if not t.is_square:
        raise DimensionMismatch("operator must be square")
    if w.ambient_dim != t.rows:
        raise DimensionMismatch("subspace ambient dimension does not match operator")
    check_same_field(t.field, w.field)
    if w.dim == 0:
        return Matrix.zeros(0, 0, t.field)
    result = w._coordinates(t * w.basis, pol, t, w.basis)
    if result is None:
        raise NotInvariant("operator does not preserve the subspace")
    return result


def trace_product(a: Matrix, b: Matrix) -> Scalar:
    """tr(AB) = sum_ij A_ij B_ji without forming AB: one integer dot
    product over den_a * den_b over Q, one elementwise sum over floats."""
    check_same_field(a.field, b.field)
    if a.shape != (b.cols, b.rows):
        raise DimensionMismatch(f"tr(AB) needs AB square: {a.shape} by {b.shape}")
    if a.field == FLOAT:
        return float(np.sum(a.data * b.data.T))
    b_t = itertools.chain.from_iterable(zip(*b.num))
    return Fraction(sum(map(operator.mul, itertools.chain.from_iterable(a.num), b_t)), a.den * b.den)
