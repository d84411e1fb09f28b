"""Splitting of the space under S = I - M^2 into nilpotent and invertible
parts.

F collects the eventual kernel of S (the union of ker S^k) and Y the
eventual image (the intersection of im S^k).  In finite dimensions the
ranks of successive powers stabilize after at most dim steps, the space
splits as F + Y, S restricted to F is nilpotent and S restricted to Y is
invertible.  Because S commutes with P and Q, both parts are invariant
under the whole pair, so every operator restricts cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvariant, ProjpairError, RestrictionFailure
from .linalg import (
    Matrix,
    Subspace,
    is_invertible,
    kernel_basis,
    numeric_rank,
    rank,
    restrict_operator,
    solve_exact,
    subspace_sum,
)
from .pairs import ProjectionPair, derived_ops
from .scalars import FLOAT, RATIONAL

__all__ = ["FittingDecomposition", "FittingReport", "fitting_decomposition", "verify_fitting"]


@dataclass(frozen=True)
class FittingDecomposition:
    """Stabilization exponent, the two parts, and all eight restrictions.

    rank_sequence holds rank(S^0) .. rank(S^k); over the rationals it is
    strictly decreasing until it stabilizes.  rank_margins (float field
    only) reports, for each power, the ratio of the smallest kept
    singular value to the rank threshold, so callers can distrust
    borderline splits.
    """

    k: int
    F: Subspace
    Y: Subspace
    P_F: Matrix
    Q_F: Matrix
    M_F: Matrix
    S_F: Matrix
    P_Y: Matrix
    Q_Y: Matrix
    M_Y: Matrix
    S_Y: Matrix
    rank_sequence: tuple[int, ...]
    rank_margins: tuple[float, ...] | None = None


def _float_split(s_power: Matrix, pair: ProjectionPair) -> tuple[Subspace, Subspace]:
    """Kernel and column space of S^k from one SVD.

    A single factorization guarantees the two dimensions add up to n;
    mixing the SVD rank with an elimination-based column space could
    disagree by one on borderline matrices.  Floored at scale one, like
    the rank sequence.
    """
    u, s, vh = np.linalg.svd(s_power.to_numpy(), full_matrices=True)
    r, _ = numeric_rank(s, s_power.shape, pair.pol, floor=1.0)
    return (
        Subspace(Matrix(vh[r:].T, FLOAT), pair.pol),
        Subspace(Matrix(u[:, :r], FLOAT), pair.pol),
    )


def fitting_decomposition(pair: ProjectionPair) -> FittingDecomposition:
    """Split the space under S and restrict P, Q, M, S to both parts.

    k is the least exponent with rank S^k = rank S^(k+1); k = 0 means S
    is invertible and F is trivial.  Over floats the invariance of F and
    Y can fail past tolerance, which surfaces as
    :class:`RestrictionFailure`; over the rationals the commutation of S
    with P and Q makes the restrictions exact.
    """
    ops = derived_ops(pair)
    s = ops.S
    n = pair.dim
    pol = pair.pol
    ranks = [n]
    margins: list[float] = []
    s_power = pair.identity()
    k = 0
    while True:
        next_power = s_power * s
        if pair.field == RATIONAL:
            r = rank(next_power, pol)
            margin = None
        else:
            # floor at scale one: a power of S that collapses to
            # numerical zero is rank zero, whatever its noise spectrum
            sv = np.linalg.svd(next_power.to_numpy(), compute_uv=False)
            r, margin = numeric_rank(sv, next_power.shape, pol, floor=1.0)
        if margin is not None:
            margins.append(margin)
        if r == ranks[-1]:
            break
        ranks.append(r)
        s_power = next_power
        k += 1
        if k > n:  # cannot happen: ranks strictly decrease in [0, n]
            raise ProjpairError("rank sequence failed to stabilize")

    if k == 0:
        f = Subspace.zero(n, pair.field, pol)
        y = Subspace.full(n, pair.field, pol)
    elif pair.field == RATIONAL:
        f = kernel_basis(s_power, pol)
        y = Subspace.from_span(s_power, pol)
    else:
        f, y = _float_split(s_power, pair)

    def restrict_all(w: Subspace) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        try:
            return (
                restrict_operator(pair.P, w, pol),
                restrict_operator(pair.Q, w, pol),
                restrict_operator(ops.M, w, pol),
                restrict_operator(s, w, pol),
            )
        except NotInvariant as exc:
            raise RestrictionFailure(str(exc)) from exc

    p_f, q_f, m_f, s_f = restrict_all(f)
    p_y, q_y, m_y, s_y = restrict_all(y)

    fd = FittingDecomposition(
        k=k,
        F=f,
        Y=y,
        P_F=p_f,
        Q_F=q_f,
        M_F=m_f,
        S_F=s_f,
        P_Y=p_y,
        Q_Y=q_y,
        M_Y=m_y,
        S_Y=s_y,
        rank_sequence=tuple(ranks),
        rank_margins=tuple(margins) if pair.field == FLOAT else None,
    )
    report = verify_fitting(fd, pair)
    if not report.all_passed:
        failed = ", ".join(name for name, ok in report.checks.items() if not ok)
        raise RestrictionFailure(f"decomposition invariants failed: {failed}")
    return fd


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


def _restriction_roundtrip(
    t: Matrix, w: Subspace, restricted: Matrix, pair: ProjectionPair
) -> bool:
    """basis * restricted must reproduce t * basis (t preserves w)."""
    if restricted.rows != w.dim or restricted.cols != w.dim:
        return False
    if w.dim == 0:
        return True
    lhs = w.basis * restricted
    rhs = t * w.basis
    scale = float(t.max_norm()) * (1.0 + float(w.basis.max_norm()))
    return _zero_within(lhs - rhs, pair, scale)


def _columns_in(w: Subspace, m: Matrix, pair: ProjectionPair) -> bool:
    """Whether every column of m lies in w: an exact solve over Q, a
    least-squares residual within tolerance over floats."""
    if pair.field == RATIONAL:
        return solve_exact(w.basis, m) is not None
    b = w.basis.to_numpy()
    target = m.to_numpy()
    coeffs, *_ = np.linalg.lstsq(b, target, rcond=None)
    residual = float(np.max(np.abs(b @ coeffs - target)))
    return residual <= pair.pol.compare_abs_tol * (1.0 + float(m.max_norm()))


def verify_fitting(fd: FittingDecomposition, pair: ProjectionPair) -> FittingReport:
    """Re-check every decomposition invariant from its defining property.

    F must be killed by S^k and Y must hold the columns of S^k, with
    dimensions n - r and r for r = rank S^k; no part is rebuilt by the
    routine that made it.  Never raises; each verdict lands in the report
    so tests can corrupt a decomposition and watch the right check fail.
    """
    ops = derived_ops(pair)
    n = pair.dim
    pol = pair.pol
    s_power = ops.S**fd.k
    # floor at scale one, as in the rank sequence; ignored over Q
    r = rank(s_power, pol, floor=1.0)
    checks: dict[str, bool] = {}
    checks["direct_sum_dims"] = fd.F.dim + fd.Y.dim == n
    try:
        checks["parts_independent"] = subspace_sum(fd.F, fd.Y).dim == n
    except ProjpairError:
        checks["parts_independent"] = False
    checks["f_is_eventual_kernel"] = fd.F.dim == n - r and _zero_within(
        s_power * fd.F.basis, pair, float(fd.F.basis.max_norm())
    )
    checks["y_is_eventual_image"] = fd.Y.dim == r and (
        fd.Y.dim == 0 or _columns_in(fd.Y, s_power, pair)
    )
    checks["rank_stabilized"] = r == rank(s_power * ops.S, pol, floor=1.0)
    checks["k_at_most_dim"] = fd.k <= n
    checks["p_invariant_on_f"] = _restriction_roundtrip(pair.P, fd.F, fd.P_F, pair)
    checks["q_invariant_on_f"] = _restriction_roundtrip(pair.Q, fd.F, fd.Q_F, pair)
    checks["p_invariant_on_y"] = _restriction_roundtrip(pair.P, fd.Y, fd.P_Y, pair)
    checks["q_invariant_on_y"] = _restriction_roundtrip(pair.Q, fd.Y, fd.Q_Y, pair)
    checks["m_restriction_consistent"] = (
        fd.M_F.shape == (fd.F.dim, fd.F.dim)
        and fd.M_Y.shape == (fd.Y.dim, fd.Y.dim)
        and _zero_within(fd.M_F - (fd.P_F - fd.Q_F), pair, 1.0)
        and _zero_within(fd.M_Y - (fd.P_Y - fd.Q_Y), pair, 1.0)
    )
    checks["s_restriction_consistent"] = (
        fd.S_F.shape == (fd.F.dim, fd.F.dim)
        and fd.S_Y.shape == (fd.Y.dim, fd.Y.dim)
        and _zero_within(
            fd.S_F - (Matrix.identity(fd.F.dim, pair.field) - fd.M_F * fd.M_F),
            pair,
            1.0,
        )
        and _zero_within(
            fd.S_Y - (Matrix.identity(fd.Y.dim, pair.field) - fd.M_Y * fd.M_Y),
            pair,
            1.0,
        )
    )
    checks["s_y_invertible"] = is_invertible(fd.S_Y, pol)
    nilpotent_scale = float(fd.S_F.max_norm()) ** max(fd.k, 1) if fd.S_F.rows else 0.0
    checks["s_f_nilpotent"] = fd.S_F.is_square and _zero_within(
        fd.S_F**fd.k, pair, nilpotent_scale
    )
    return FittingReport(checks=checks)
