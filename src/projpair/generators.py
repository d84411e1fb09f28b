"""Seeded construction of projection pairs for tests and ensembles.

Three families: symmetric float pairs from random orthonormal frames,
exact rational oblique pairs of the form A (BA)^-1 B, and block-diagonal
pairs assembled so that every eigenspace dimension, and hence the index,
is known before any computation runs.

Batch runs derive per-instance seeds with :func:`mix_seed`, a fixed
64-bit mixing function (the splitmix64 finalizer applied to
base + i * golden-gamma).  Instance i of a batch always sees the same
seed no matter how the batch is ordered or parallelized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GenerationExhausted, ProjpairError
from .linalg import Matrix, np
from .pairs import ProjectionPair, make_pair
from .scalars import FLOAT, RATIONAL

__all__ = [
    "PythagoreanBlock",
    "ShearBlock",
    "PrescribedSpec",
    "gen_pair_oblique_rational",
    "gen_pair_orthogonal",
    "gen_prescribed",
    "expected_dimensions",
    "mix_seed",
    "random_unimodular",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(base_seed: int, index: int) -> int:
    """Derive the seed for batch instance ``index`` from ``base_seed``.

    splitmix64: advance the state by index steps of the golden-ratio
    increment, then scramble through the standard finalizer.  Good
    avalanche behavior, so consecutive indices give unrelated streams.
    """
    z = (base_seed + index * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _check_ranks(dim: int, rank_p: int, rank_q: int) -> None:
    if dim < 1:
        raise ProjpairError(f"dimension must be >= 1, got {dim}")
    for name, r in (("rank_p", rank_p), ("rank_q", rank_q)):
        if not 0 <= r <= dim:
            raise ProjpairError(f"{name} must lie in [0, {dim}], got {r}")


def gen_pair_orthogonal(dim: int, rank_p: int, rank_q: int, seed: int) -> ProjectionPair:
    """Symmetric float pair from seeded random orthonormal frames.

    Each projection is F F^T for a frame F whose columns come out of a QR
    factorization of a Gaussian draw, so it is symmetric idempotent of
    the requested rank up to roundoff.
    """
    _check_ranks(dim, rank_p, rank_q)
    rng = np.random.default_rng(seed)

    def proj(r: int) -> Matrix:
        if r == 0:
            return Matrix.zeros(dim, dim, FLOAT)
        g = rng.standard_normal((dim, r))
        q, _ = np.linalg.qr(g)
        return Matrix(q @ q.T, FLOAT)

    return make_pair(proj(rank_p), proj(rank_q))


_OBLIQUE_RETRY_BUDGET = 200


def gen_pair_oblique_rational(
    dim: int,
    rank_p: int,
    rank_q: int,
    seed: int,
    entry_bound: int = 3,
) -> ProjectionPair:
    """Exact rational pair of oblique projections A (BA)^-1 B.

    A is dim x r and B is r x dim with integer entries drawn uniformly
    from [-entry_bound, entry_bound]; draws repeat until BA is
    invertible, which makes the product idempotent of rank exactly r.
    P and Q use independent sub-seeds so changing one rank never
    perturbs the other projection.
    """
    _check_ranks(dim, rank_p, rank_q)
    if entry_bound < 1:
        raise ProjpairError(f"entry_bound must be >= 1, got {entry_bound}")

    def proj(r: int, sub: int) -> Matrix:
        if r == 0:
            return Matrix.zeros(dim, dim, RATIONAL)
        rng = random.Random(mix_seed(seed, sub))
        for _ in range(_OBLIQUE_RETRY_BUDGET):
            a = Matrix(
                [[rng.randint(-entry_bound, entry_bound) for _ in range(r)] for _ in range(dim)],
                RATIONAL,
            )
            b = Matrix(
                [[rng.randint(-entry_bound, entry_bound) for _ in range(dim)] for _ in range(r)],
                RATIONAL,
            )
            try:
                core = (b * a).inverse()
            except ProjpairError:  # BA is singular: draw again
                continue
            return a * core * b
        raise GenerationExhausted(
            f"no invertible {r}x{r} core after {_OBLIQUE_RETRY_BUDGET} draws "
            f"(dim={dim}, entry_bound={entry_bound}, seed={seed})"
        )

    return make_pair(proj(rank_p, 0), proj(rank_q, 1))


@dataclass(frozen=True)
class PythagoreanBlock:
    """2x2 block: P = diag(1, 0), Q the rational rotation of P by the
    (m, k) Pythagorean angle.  cos = (m^2-k^2)/(m^2+k^2) and
    sin = 2mk/(m^2+k^2) satisfy cos^2 + sin^2 = 1 exactly, no radicals
    involved.  M^2 = sin^2 I, so the block meets every eigenspace
    trivially and adds nothing to any trace."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.k, int)):
            raise ProjpairError("Pythagorean parameters must be integers")
        if not self.m > self.k >= 1:
            raise ProjpairError(f"need m > k >= 1, got m={self.m}, k={self.k}")

    def q_block(self) -> list[list[Fraction]]:
        den = self.m**2 + self.k**2
        c = Fraction(self.m**2 - self.k**2, den)
        s = Fraction(2 * self.m * self.k, den)
        return [[c * c, c * s], [c * s, s * s]]


@dataclass(frozen=True)
class ShearBlock:
    """2x2 block: P = diag(1, 0), Q = [[1, t], [0, 0]] with t != 0.

    M = P - Q is nilpotent (M^2 = 0), so every odd trace vanishes.  The
    block is not fully eigenspace-neutral though: both projections fix
    e1 (one extra dimension in E11) and both transposes annihilate the
    second coordinate functional (one extra dimension in Et00).  The
    four spaces the index counts stay empty."""

    t: Fraction

    def __post_init__(self) -> None:
        t = self.t
        if isinstance(t, bool) or not isinstance(t, (int, str, Fraction)):
            raise ProjpairError(f"shear parameter must be rational, got {t!r}")
        object.__setattr__(self, "t", Fraction(t))
        if self.t == 0:
            raise ProjpairError("shear parameter must be nonzero")

    def q_block(self) -> list[list[Fraction]]:
        return [[Fraction(1), self.t], [Fraction(0), Fraction(0)]]


Block = PythagoreanBlock | ShearBlock


@dataclass(frozen=True)
class PrescribedSpec:
    """Recipe for a pair whose eigenspace dimensions are known up front.

    d10/d01/d11/d00 count 1x1 blocks with (P, Q) diagonal entries
    (1,0), (0,1), (1,1), (0,0); each generic block adds a 2x2 piece that
    contributes zero to every odd trace, so the index is d10 - d01
    regardless of the blocks.  With conjugate set, the assembled pair is
    run through a seeded unimodular similarity, which changes no
    dimension and no trace.
    """

    d10: int = 0
    d01: int = 0
    d11: int = 0
    d00: int = 0
    generic_blocks: tuple[Block, ...] = field(default_factory=tuple)
    conjugate: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("d10", "d01", "d11", "d00"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ProjpairError(f"{name} must be a nonnegative integer, got {value!r}")
        object.__setattr__(self, "generic_blocks", tuple(self.generic_blocks))
        for block in self.generic_blocks:
            if not isinstance(block, (PythagoreanBlock, ShearBlock)):
                raise ProjpairError(f"unknown block type: {block!r}")
        if self.total_dim < 1:
            raise ProjpairError("prescribed pair needs total dimension >= 1")

    @property
    def total_dim(self) -> int:
        return self.d10 + self.d01 + self.d11 + self.d00 + 2 * len(self.generic_blocks)


def expected_dimensions(spec: PrescribedSpec) -> dict[str, int]:
    """Eigenspace dimensions the prescribed pair will have.

    Pythagorean blocks miss all eight spaces.  A shear block has P and Q
    agreeing on e1 (both fix it), so it feeds one dimension into E11;
    on the transposed side the shared fixed vector sits in neither range,
    landing in Et00 instead.  The four index-carrying spaces (10 and
    01, both sides) never see a generic block.
    """
    shears = sum(1 for b in spec.generic_blocks if isinstance(b, ShearBlock))
    return {
        "e10": spec.d10,
        "e01": spec.d01,
        "e11": spec.d11 + shears,
        "e00": spec.d00,
        "et10": spec.d10,
        "et01": spec.d01,
        "et11": spec.d11,
        "et00": spec.d00 + shears,
    }


def random_unimodular(n: int, seed: int) -> Matrix:
    """Integer matrix with determinant +-1 from 2n seeded elementary moves.

    Row additions use coefficients +-1 to keep the entries (and the
    entries of the inverse) from blowing up; determinant stays in
    {-1, +1} by construction, so the matrix conjugates exactly over
    the rationals.
    """
    if n < 1:
        raise ProjpairError(f"size must be >= 1, got {n}")
    rng = random.Random(seed)
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n == 1:
        return Matrix([[Fraction(rng.choice((-1, 1)))]], RATIONAL)
    for _ in range(2 * n):
        move = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if move == 0:
            c = rng.choice((-1, 1))
            rows[j] = [rows[j][col] + c * rows[i][col] for col in range(n)]
        elif move == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return Matrix(rows, RATIONAL)


def gen_prescribed(spec: PrescribedSpec) -> tuple[ProjectionPair, int]:
    """Assemble the block-diagonal pair and report its index.

    Blocks are laid down in a fixed order (the 1x1 families, then the
    generic blocks as listed) so identical specs give bit-identical
    pairs.  The returned index d10 - d01 is exact ground truth for the
    trace of every odd power.
    """
    n = spec.total_dim
    zero = Fraction(0)
    p_rows = [[zero] * n for _ in range(n)]
    q_rows = [[zero] * n for _ in range(n)]
    pos = 0
    for count, p_val, q_val in (
        (spec.d10, 1, 0),
        (spec.d01, 0, 1),
        (spec.d11, 1, 1),
        (spec.d00, 0, 0),
    ):
        for _ in range(count):
            p_rows[pos][pos] = Fraction(p_val)
            q_rows[pos][pos] = Fraction(q_val)
            pos += 1
    for block in spec.generic_blocks:
        p_rows[pos][pos] = Fraction(1)
        qb = block.q_block()
        for r in range(2):
            for c in range(2):
                q_rows[pos + r][pos + c] = qb[r][c]
        pos += 2

    p = Matrix(p_rows, RATIONAL)
    q = Matrix(q_rows, RATIONAL)
    if spec.conjugate:
        r = random_unimodular(n, mix_seed(spec.seed, 0xC0))
        r_inv = r.inverse()
        p = r * p * r_inv
        q = r * q * r_inv
    return make_pair(p, q), spec.d10 - spec.d01
