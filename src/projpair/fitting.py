"""Splitting of the space under S = I - M^2 into nilpotent and invertible
parts.

F collects the eventual kernel of S (the union of ker S^k) and Y the
eventual image (the intersection of im S^k).  In finite dimensions the
ranks of successive powers stabilize after at most dim steps, the space
splits as F + Y, S restricted to F is nilpotent and S restricted to Y is
invertible.  Because S commutes with P and Q, both parts are invariant
under the whole pair: a split holds only the two parts, and each block
of P or Q on a part is the checked :func:`restrict_operator`, read once.

The split proposes and the verifier decides.  For k = 1, 2, ... while
ker S^k still grows (k = 0 alone when ker S = 0), one elimination of S^k
(one SVD over floats) gives its rank and F = ker S^k, Y = im S^k is its
column space; the first proposal that :func:`verify_fitting` passes is
the split.  No rank of S^(k+1) is taken and no power past S^k is formed.
The verifier alone proves it, with no rank or product of a power of S:
(a) the F blocks give S B_F = B_F S_F, so S_F^k = 0 puts F inside ker
S^k; (b) the Y blocks give S B_Y = B_Y S_Y with S_Y = N_Y^2, N_Y = P_Y +
Q_Y - I, so with N_Y invertible Y = S^k Y lies in im S^k; (c) F + Y is
the whole space.  Then dim F <= n - r and dim Y <= r for r = rank S^k
add up to n, so F = ker S^k, Y = im S^k and rank S^(k+1) = rank S^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ProjpairError, RestrictionFailure
from .linalg import (
    Matrix,
    Subspace,
    kernel_basis,
    np,
    numeric_rank,
    rank,
    restrict_operator,
    subspace_sum,
)
from .pairs import ProjectionPair, derived_ops
from .scalars import FLOAT, RATIONAL

__all__ = ["FittingDecomposition", "FittingReport", "fitting_decomposition", "verify_fitting"]


@dataclass(frozen=True)
class FittingDecomposition:
    """Stabilization exponent, the two parts, and the pair they split.

    A block P_W or Q_W is :func:`restrict_operator` of P or Q on W, and
    M_W = P_W - Q_W, S_W = I - M_W^2; each is computed on first access
    and kept.  A block raises :class:`NotInvariant` when its operator
    does not preserve W, or another :class:`ProjpairError` when W lies
    in another space or over another field.

    rank_sequence holds rank(S^0) .. rank(S^k), strictly decreasing.
    rank_margins (float field only) reports, for each power the split
    eliminated, S^1 .. S^max(k, 1), the ratio of the smallest kept
    singular value to the rank threshold, so callers can distrust
    borderline splits.
    """

    k: int
    F: Subspace
    Y: Subspace
    pair: ProjectionPair
    rank_sequence: tuple[int, ...]
    rank_margins: tuple[float, ...] | None = None

    @cached_property
    def P_F(self) -> Matrix:
        return restrict_operator(self.pair.P, self.F, self.pair.pol)

    @cached_property
    def Q_F(self) -> Matrix:
        return restrict_operator(self.pair.Q, self.F, self.pair.pol)

    @cached_property
    def P_Y(self) -> Matrix:
        return restrict_operator(self.pair.P, self.Y, self.pair.pol)

    @cached_property
    def Q_Y(self) -> Matrix:
        return restrict_operator(self.pair.Q, self.Y, self.pair.pol)

    @cached_property
    def M_F(self) -> Matrix:
        return self.P_F - self.Q_F

    @cached_property
    def S_F(self) -> Matrix:
        return Matrix.identity(self.F.dim, self.pair.field) - self.M_F * self.M_F

    @cached_property
    def M_Y(self) -> Matrix:
        return self.P_Y - self.Q_Y

    @cached_property
    def S_Y(self) -> Matrix:
        return Matrix.identity(self.Y.dim, self.pair.field) - self.M_Y * self.M_Y


def _parts_of(power: Matrix) -> tuple[int, float | None, Subspace, Subspace | None]:
    """Rank, margin, kernel and column space of a power of S: over Q one
    elimination's kernel and no column space yet, over floats one full SVD."""
    if power.field == RATIONAL:
        f = kernel_basis(power)
        return power.rows - f.dim, None, f, None
    u, sv, vh = np.linalg.svd(power.to_numpy(), full_matrices=True)
    r, margin = numeric_rank(sv, power.shape)
    f = Subspace(Matrix(vh[r:].T, FLOAT), _raw=True)
    return r, margin, f, Subspace(Matrix(u[:, :r], FLOAT), _raw=True)


def fitting_decomposition(pair: ProjectionPair) -> FittingDecomposition:
    """Split the space under S and restrict P and Q to both parts.

    k is the least exponent with rank S^k = rank S^(k+1); k = 0 means S
    is invertible and F is trivial.  Each k at which ker S^k grew (k = 0
    when ker S = 0) proposes F = ker S^k and Y = im S^k, and the first
    proposal that :func:`verify_fitting` passes is returned.  When the
    kernel stops growing first, :class:`RestrictionFailure` names the
    checks the last proposal failed; over Q that cannot happen.
    """
    ops, n = derived_ops(pair), pair.dim
    power = ops.S  # S^max(k, 1)
    r, margin, f, y = _parts_of(power)
    ranks, margins = [n, r], [margin]
    if r == n:
        ranks, f, y = [n], Subspace.zero(n, pair.field), Subspace.full(n, pair.field)
    while True:
        if y is None:
            y = Subspace(power)
        fd = FittingDecomposition(
            len(ranks) - 1, f, y, pair,
            rank_sequence=tuple(ranks), rank_margins=tuple(margins) if pair.field == FLOAT else None,
        )
        report = verify_fitting(fd)
        if report.all_passed:
            return fd
        if fd.k:  # at k = 0, r = n already says that ker S did not grow
            power = power * ops.S
            r, margin, f, y = _parts_of(power)
        if r >= ranks[-1]:
            raise RestrictionFailure(f"decomposition invariants failed: {', '.join(report.failures())}")
        ranks.append(r)
        margins.append(margin)


@dataclass(frozen=True)
class FittingReport:
    checks: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]


def _zero_within(m: Matrix, pair: ProjectionPair, scale: float) -> bool:
    if pair.field == RATIONAL:
        return m.is_zero()
    return float(m.max_norm()) <= pair.pol.compare_abs_tol * (1.0 + scale)


def _readable(fd: FittingDecomposition, block: str) -> bool:
    """Whether the block can be read: its operator preserves its part,
    which lies in the pair's space over the pair's field."""
    try:
        return getattr(fd, block) is not None
    except ProjpairError:
        return False


def verify_fitting(fd: FittingDecomposition) -> FittingReport:
    """Re-check every decomposition invariant from its defining property.

    Only P, Q and the split are read, and no part is rebuilt.
    ``p_invariant_on_W`` and ``q_invariant_on_W`` hold when the block P_W
    or Q_W can be read.  Facts (a)-(c) of the module docstring are
    ``f_is_eventual_kernel`` (the same fact as ``s_f_nilpotent``, which
    needs F's invariance), ``y_is_eventual_image`` (the same fact as
    ``s_y_invertible``, which needs Y's invariance and ranks N_Y, not S_Y
    = N_Y^2) and ``parts_independent``; together they are
    ``rank_stabilized``.  ``k_is_least`` asks for k = 0 or S_F^(k-1)
    != 0.  Other checks read a part's blocks only once both invariance
    checks of that part pass, so a malformed split fails, rather than
    raises; each verdict lands in the report so tests can corrupt a
    decomposition and watch the right check fail.
    """
    pair, n = fd.pair, fd.pair.dim
    f, y, k = fd.F, fd.Y, fd.k
    try:
        independent = subspace_sum(f, y).dim == n
    except ProjpairError:
        independent = False
    p_on_f, q_on_f, p_on_y, q_on_y = (_readable(fd, b) for b in ("P_F", "Q_F", "P_Y", "Q_Y"))
    # (b): S B_Y = B_Y S_Y with S_Y = N_Y^2 invertible
    s_y_invertible = p_on_y and q_on_y and rank(fd.P_Y + fd.Q_Y - Matrix.identity(y.dim, pair.field)) == y.dim
    s_f_ok = p_on_f and q_on_f and k >= 0
    s_f_norm = float(fd.S_F.max_norm()) if s_f_ok and pair.field == FLOAT else 0.0
    # (a): S^k B_F = B_F S_F^k = 0
    s_f_nilpotent = s_f_ok and _zero_within(fd.S_F**k, pair, s_f_norm ** max(k, 1))
    checks = {
        "direct_sum_dims": f.dim + y.dim == n,
        "parts_independent": independent,
        "f_is_eventual_kernel": s_f_nilpotent,
        "y_is_eventual_image": s_y_invertible,
        "rank_stabilized": s_f_nilpotent and s_y_invertible and independent,
        "k_at_most_dim": k <= n,
        "p_invariant_on_f": p_on_f,
        "q_invariant_on_f": q_on_f,
        "p_invariant_on_y": p_on_y,
        "q_invariant_on_y": q_on_y,
        "s_y_invertible": s_y_invertible,
        "s_f_nilpotent": s_f_nilpotent,
        "k_is_least": k == 0
        or (s_f_ok and not _zero_within(fd.S_F ** (k - 1), pair, s_f_norm ** max(k - 1, 1))),
    }
    return FittingReport(checks=checks)
