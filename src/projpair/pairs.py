"""Validated projection pairs and their derived operators.

Given idempotents P and Q on the same space, the derived operators M, S,
U and V are defined once, in :mod:`projpair.symbolic`, and linked by the
structural identities QU = UP, UV = VU = S and I - U = (I-2Q)M.  Those
identities, and the commutator identity

    [(I-2Q) T M, PV] = T M (I - M^2)

for any T commuting with P and Q, hold in the free ring on two
idempotents, so :func:`projpair.symbolic.lemma_suite` proves them for
every dimension at once and ``projpair lemma`` evaluates the same
expressions on concrete pairs.  Instantiating T with partial geometric
sums in M^2 writes M - M^n as an explicit commutator, which forces
tr M^n = tr M for odd n.  The one identity the ring cannot state, the
one with (I - M^2)^-1, is :func:`check_lemma3`.  The report reads only
M = P - Q and S = I - M^2, which :func:`derived_ops` computes with one
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch, FieldMismatch, NotIdempotent, SingularS
from .linalg import Matrix, is_invertible
from .scalars import DEFAULT_POLICY, FLOAT, RATIONAL, Scalar, TolerancePolicy

__all__ = [
    "ProjectionPair",
    "DerivedOps",
    "make_pair",
    "derived_ops",
    "check_lemma3",
    "to_float_pair",
]


@dataclass(frozen=True)
class ProjectionPair:
    """Two validated idempotent matrices of equal dimension and field."""

    dim: int
    P: Matrix
    Q: Matrix
    field: str
    pol: TolerancePolicy

    def identity(self) -> Matrix:
        return Matrix.identity(self.dim, self.field)


@dataclass(frozen=True)
class DerivedOps:
    """M = P - Q and S = I - M^2 of a pair, the two the report reads."""

    M: Matrix
    S: Matrix


def _idempotency_residual(m: Matrix) -> Scalar:
    return (m * m - m).max_norm()


def make_pair(
    P: Matrix, Q: Matrix, pol: TolerancePolicy = DEFAULT_POLICY
) -> ProjectionPair:
    """Validate idempotency and shapes, returning a ProjectionPair.

    Over the rationals idempotency must hold exactly; over floats the
    residual must stay below compare_abs_tol * (1 + max_norm(P)^2).
    """
    if P.field != Q.field:
        raise FieldMismatch(f"P is {P.field}, Q is {Q.field}")
    if not (P.is_square and Q.is_square):
        raise DimensionMismatch("projections must be square")
    if P.rows != Q.rows:
        raise DimensionMismatch(f"dimension mismatch: {P.rows} vs {Q.rows}")
    if P.rows < 1:
        raise DimensionMismatch("dimension must be at least 1")
    for name, m in (("P", P), ("Q", Q)):
        residual = _idempotency_residual(m)
        if m.field == RATIONAL:
            if residual != 0:
                raise NotIdempotent(name, residual)
        else:
            norm = float(m.max_norm())
            # a product that overflowed (an inf or nan residual) certifies nothing
            if not math.isfinite(residual) or residual > pol.compare_abs_tol * (1.0 + norm * norm):
                raise NotIdempotent(name, residual)
    return ProjectionPair(P.rows, P, Q, P.field, pol)


@lru_cache(maxsize=1)
def derived_ops(pair: ProjectionPair) -> DerivedOps:
    """M and S of a pair, with one product.  Only the pair under report
    is kept."""
    M = pair.P - pair.Q
    return DerivedOps(M, pair.identity() - M * M)


def check_lemma3(pair: ProjectionPair, t: Matrix) -> Matrix:
    """Residual of [(I-2Q) T M (I-M^2)^{-1}, P V] = T M for a matrix T
    that commutes with P and Q.

    Requires S = I - M^2 invertible; raises :class:`SingularS` otherwise.
    """
    from .symbolic import atom_values  # here, so ``projpair verify`` never loads it

    eye = pair.identity()
    atoms = atom_values(pair.P, pair.Q, eye)
    M, S = atoms["M"], atoms["S"]
    if not is_invertible(S):
        raise SingularS("I - M^2 is not invertible")
    x = (eye - 2 * pair.Q) * t * M * S.inverse()
    y = pair.P * atoms["V"]
    return x * y - y * x - t * M


def to_float_pair(pair: ProjectionPair) -> ProjectionPair:
    """Convert a rational pair to the float field under its own policy
    (idempotency revalidated)."""
    if pair.field == FLOAT:
        return pair
    return make_pair(pair.P.to_float(), pair.Q.to_float(), pair.pol)
