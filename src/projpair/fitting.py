"""Splitting of the space under S = I - M^2 into nilpotent and invertible
parts.

F collects the eventual kernel of S (the union of ker S^k) and Y the
eventual image (the intersection of im S^k).  In finite dimensions the
ranks of successive powers stabilize after at most dim steps, the space
splits as F + Y, S restricted to F is nilpotent and S restricted to Y is
invertible.  Because S commutes with P and Q, both parts are invariant
under the whole pair, so every operator restricts cleanly: only P and Q
are restricted, and M and S on each part follow from those two blocks.

The verifier proves the split without a rank of any power of S:
(a) S^k F = 0 puts F inside ker S^k; (b) the P and Q round trips on Y
and the consistency of M_Y and S_Y give S B_Y = B_Y S_Y, and with S_Y
invertible Y = S^k Y lies inside im S^k; (c) F + Y is the whole space.
Then dim F <= n - r and dim Y <= r for r = rank S^k add up to n, so
F = ker S^k, Y = im S^k and rank S^(k+1) = rank S^k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInvariant, ProjpairError, RestrictionFailure
from .linalg import (
    Matrix,
    Subspace,
    is_invertible,
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


def fitting_decomposition(pair: ProjectionPair) -> FittingDecomposition:
    """Split the space under S, restrict P and Q to both parts and derive
    M and S there.

    k is the least exponent with rank S^k = rank S^(k+1); k = 0 means S
    is invertible and F is trivial.  Over Q every entry of rank_sequence
    is an exact rank.  Over floats the invariance of F and Y can fail
    past tolerance, which surfaces as :class:`RestrictionFailure`; over
    the rationals the commutation of S with P and Q makes the
    restrictions exact.
    """
    ops = derived_ops(pair)
    n = pair.dim
    ranks = [n]
    margins: list[float] = []
    s_power = pair.identity()  # S^k
    next_power = ops.S  # S^(k+1)
    k = 0
    while True:
        if pair.field == RATIONAL:
            r = rank(next_power)
        else:
            sv = np.linalg.svd(next_power.to_numpy(), compute_uv=False)
            r, margin = numeric_rank(sv, next_power.shape)
            margins.append(margin)
        if r == ranks[-1]:
            break
        ranks.append(r)
        s_power = next_power
        k += 1
        if k > n:  # cannot happen: ranks strictly decrease in [0, n]
            raise ProjpairError("rank sequence failed to stabilize")
        next_power = s_power * ops.S

    if k == 0:
        f = Subspace.zero(n, pair.field)
        y = Subspace.full(n, pair.field)
    elif pair.field == RATIONAL:
        f = kernel_basis(s_power)
        y = Subspace(s_power)
    else:
        # kernel and column space from one SVD, so that their dimensions
        # add up to n; both bases are already orthonormal
        u, sv, vh = np.linalg.svd(s_power.to_numpy(), full_matrices=True)
        r, _ = numeric_rank(sv, s_power.shape)
        f = Subspace(Matrix(vh[r:].T, FLOAT), _raw=True)
        y = Subspace(Matrix(u[:, :r], FLOAT), _raw=True)

    def restrict_all(w: Subspace) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        """P_W and Q_W by restriction; M_W = P_W - Q_W and S_W = I - M_W^2."""
        try:
            p_w = restrict_operator(pair.P, w, pair.pol)
            q_w = restrict_operator(pair.Q, w, pair.pol)
        except NotInvariant as exc:
            raise RestrictionFailure(str(exc)) from exc
        m_w = p_w - q_w
        return p_w, q_w, m_w, Matrix.identity(w.dim, pair.field) - m_w * m_w

    fd = FittingDecomposition(
        k,
        f,
        y,
        *restrict_all(f),  # P_F, Q_F, M_F, S_F
        *restrict_all(y),  # P_Y, Q_Y, M_Y, S_Y
        rank_sequence=tuple(ranks),
        rank_margins=tuple(margins) if pair.field == FLOAT else None,
    )
    report = verify_fitting(fd, pair)
    if not report.all_passed:
        failed = ", ".join(report.failures())
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


def _fits(w: Subspace, pair: ProjectionPair, *blocks: Matrix) -> bool:
    """Whether every block is a dim w square over the pair's field."""
    return all(b.shape == (w.dim, w.dim) and b.field == pair.field for b in blocks)


def _restriction_roundtrip(
    t: Matrix, w: Subspace, restricted: Matrix, pair: ProjectionPair
) -> bool:
    """basis * restricted must reproduce t * basis (t preserves w)."""
    if not _fits(w, pair, restricted) or (w.field, w.ambient_dim) != (pair.field, pair.dim):
        return False
    if w.dim == 0:
        return True
    lhs = w.basis * restricted
    rhs = t * w.basis
    scale = float(t.max_norm()) * (1.0 + float(w.basis.max_norm()))
    return _zero_within(lhs - rhs, pair, scale)


def _m_consistent(
    w: Subspace, p_w: Matrix, q_w: Matrix, m_w: Matrix, pair: ProjectionPair
) -> bool:
    """M_W = P_W - Q_W."""
    return _fits(w, pair, p_w, q_w, m_w) and _zero_within(m_w - (p_w - q_w), pair, 1.0)


def _s_consistent(w: Subspace, m_w: Matrix, s_w: Matrix, pair: ProjectionPair) -> bool:
    """S_W = I - M_W^2."""
    return _fits(w, pair, m_w, s_w) and _zero_within(
        s_w - (Matrix.identity(w.dim, pair.field) - m_w * m_w), pair, 1.0
    )


def verify_fitting(fd: FittingDecomposition, pair: ProjectionPair) -> FittingReport:
    """Re-check every decomposition invariant from its defining property.

    No rank of a power of S is taken and no part is rebuilt.  Facts
    (a)-(c) of the module docstring are ``f_is_eventual_kernel``,
    ``y_is_eventual_image`` and ``parts_independent``; together they are
    ``rank_stabilized``.  ``k_is_least`` asks for k = 0 or S_F^(k-1) !=
    0.  A check fails, rather than raises, when a matrix it touches has
    the wrong shape; each verdict lands in the report so tests can
    corrupt a decomposition and watch the right check fail.
    """
    ops = derived_ops(pair)
    n = pair.dim
    f, y, k = fd.F, fd.Y, fd.k
    try:
        independent = subspace_sum(f, y).dim == n
    except ProjpairError:
        independent = False
    # (a); S^n already kills the eventual kernel, so k > n needs no more
    killed = (f.field, f.ambient_dim) == (pair.field, n) and k >= 0
    if killed:
        image = f.basis
        for _ in range(min(k, n)):
            image = ops.S * image
        killed = _zero_within(image, pair, float(f.basis.max_norm()))
    p_on_y = _restriction_roundtrip(pair.P, y, fd.P_Y, pair)
    q_on_y = _restriction_roundtrip(pair.Q, y, fd.Q_Y, pair)
    m_y_ok = _m_consistent(y, fd.P_Y, fd.Q_Y, fd.M_Y, pair)
    s_y_ok = _s_consistent(y, fd.M_Y, fd.S_Y, pair)
    s_y_invertible = _fits(y, pair, fd.S_Y) and is_invertible(fd.S_Y)
    # (b): S B_Y = B_Y S_Y with S_Y invertible
    y_in_image = p_on_y and q_on_y and m_y_ok and s_y_ok and s_y_invertible
    s_f_ok = _fits(f, pair, fd.S_F) and k >= 0
    s_f_norm = float(fd.S_F.max_norm()) if s_f_ok and f.dim else 0.0
    checks = {
        "direct_sum_dims": f.dim + y.dim == n,
        "parts_independent": independent,
        "f_is_eventual_kernel": killed,
        "y_is_eventual_image": y_in_image,
        "rank_stabilized": killed and y_in_image and independent,
        "k_at_most_dim": k <= n,
        "p_invariant_on_f": _restriction_roundtrip(pair.P, f, fd.P_F, pair),
        "q_invariant_on_f": _restriction_roundtrip(pair.Q, f, fd.Q_F, pair),
        "p_invariant_on_y": p_on_y,
        "q_invariant_on_y": q_on_y,
        "m_restriction_consistent": m_y_ok and _m_consistent(f, fd.P_F, fd.Q_F, fd.M_F, pair),
        "s_restriction_consistent": s_y_ok and _s_consistent(f, fd.M_F, fd.S_F, pair),
        "s_y_invertible": s_y_invertible,
        "s_f_nilpotent": s_f_ok
        and _zero_within(fd.S_F**k, pair, s_f_norm ** max(k, 1)),
        "k_is_least": k == 0
        or (s_f_ok and not _zero_within(fd.S_F ** (k - 1), pair, s_f_norm ** max(k - 1, 1))),
    }
    return FittingReport(checks=checks)
