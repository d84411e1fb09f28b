"""Validated projection pairs and their derived operators.

Given idempotents P and Q on the same space, the derived operators are

    M = P - Q
    S = I - M^2
    U = (I-Q)(I-P) + QP
    V = (I-P)(I-Q) + PQ

linked by the structural identities QU = UP, UV = VU = S and
I - U = (I-2Q)M, which this module verifies when U and V are first
built and exposes as residual checks.  The commutator identity

    [(I-2Q) T M, PV] = T M (I - M^2)

for any T commuting with P and Q is the engine behind the trace results:
instantiating T with partial geometric sums in M^2 writes M - M^n as an
explicit commutator, which forces tr M^n = tr M for odd n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IdentityViolation,
    NotIdempotent,
    SingularS,
)
from .linalg import Matrix, is_invertible
from .scalars import DEFAULT_POLICY, FLOAT, RATIONAL, Scalar, TolerancePolicy

__all__ = [
    "ProjectionPair",
    "DerivedOps",
    "IdentityCertificate",
    "CentralizerElement",
    "commutator",
    "make_pair",
    "derived_ops",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "commutator_witness",
    "to_float_pair",
]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """AB - BA."""
    return a * b - b * a


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
class IdentityCertificate:
    """Max-norm residuals of the structural identities, per identity."""

    qu_up: Scalar
    uv_s: Scalar
    vu_s: Scalar
    one_minus_u: Scalar

    def max_residual(self) -> Scalar:
        """The largest residual, exact over Q: a float conversion would
        turn a residual below the smallest float into zero."""
        return max(self.qu_up, self.uv_s, self.vu_s, self.one_minus_u)


@dataclass(frozen=True)
class DerivedOps:
    """M = P - Q and S = I - M^2 of a pair, with U, V and their identity
    certificate built together on first access and kept.

    Reading U, V or the certificate raises :class:`IdentityViolation`
    when a float pair breaks an identity beyond tolerance; over the
    rationals the identities hold exactly for every valid pair.
    """

    pair: ProjectionPair = field(repr=False)
    M: Matrix
    S: Matrix

    @cached_property
    def _exchange(self) -> tuple[Matrix, Matrix, IdentityCertificate]:
        pair = self.pair
        eye = pair.identity()
        P, Q, M, S = pair.P, pair.Q, self.M, self.S
        U = (eye - Q) * (eye - P) + Q * P
        V = (eye - P) * (eye - Q) + P * Q
        cert = IdentityCertificate(
            qu_up=(Q * U - U * P).max_norm(),
            uv_s=(U * V - S).max_norm(),
            vu_s=(V * U - S).max_norm(),
            one_minus_u=((eye - U) - (eye - 2 * Q) * M).max_norm(),
        )
        _require_identity(pair, "derived-operator identities", cert.max_residual(), P, Q, U, V)
        return U, V, cert

    @property
    def U(self) -> Matrix:
        return self._exchange[0]

    @property
    def V(self) -> Matrix:
        return self._exchange[1]

    @property
    def certificate(self) -> IdentityCertificate:
        return self._exchange[2]


def _idempotency_residual(m: Matrix) -> Scalar:
    return (m * m - m).max_norm()


def _identity_tol(pol: TolerancePolicy, dim: int, *mats: Matrix) -> float:
    """Scaled tolerance for a float identity built from the given matrices."""
    biggest = max([1.0] + [float(m.max_norm()) for m in mats])
    return pol.compare_abs_tol * (1.0 + dim * biggest * biggest)


def _require_identity(pair: ProjectionPair, name: str, residual: Scalar, *mats: Matrix) -> None:
    """Raise :class:`IdentityViolation` unless the named identity holds:
    its max-norm residual is exactly zero over Q, and over floats within
    :func:`_identity_tol` of the matrices it is built from."""
    if pair.field == RATIONAL:
        if residual != 0:
            raise IdentityViolation(f"{name} failed exactly")
        return
    allowed = _identity_tol(pair.pol, pair.dim, *mats)
    if float(residual) > allowed:
        raise IdentityViolation(f"{name} residual {float(residual):.3e} exceeds {allowed:.3e}")


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
            bound = pol.compare_abs_tol * (1.0 + float(m.max_norm()) ** 2)
            if float(residual) > bound:
                raise NotIdempotent(name, residual)
    return ProjectionPair(P.rows, P, Q, P.field, pol)


@lru_cache(maxsize=256)
def derived_ops(pair: ProjectionPair) -> DerivedOps:
    """M and S of a pair, with one product; U, V and the identity
    certificate wait for first access (:class:`DerivedOps`)."""
    M = pair.P - pair.Q
    return DerivedOps(pair, M, pair.identity() - M * M)


@dataclass(frozen=True)
class CentralizerElement:
    """T = sum_j coeffs[j] * (M^2)^j, a polynomial in M^2.

    These are exactly the commuting operators the trace argument needs;
    commutation with P and Q is certified on materialization.
    """

    coeffs: tuple

    @classmethod
    def identity(cls) -> "CentralizerElement":
        return cls((1,))

    @classmethod
    def m_squared(cls) -> "CentralizerElement":
        return cls((0, 1))

    @classmethod
    def geometric_sum(cls, n: int) -> "CentralizerElement":
        """T_n = sum_{j=0}^{(n-3)/2} (M^2)^j for odd n >= 3.

        Satisfies T_n * M * (I - M^2) = M - M^n by telescoping.
        """
        if n % 2 == 0 or n < 3:
            raise ValueError("n must be an odd integer >= 3")
        return cls((1,) * ((n - 3) // 2 + 1))

    def materialize(self, pair: ProjectionPair) -> Matrix:
        """Evaluate the polynomial at M^2 and certify commutation with P, Q."""
        ops = derived_ops(pair)
        m2 = ops.M * ops.M
        eye = pair.identity()
        acc = Matrix.zeros(pair.dim, pair.dim, pair.field)
        power = eye
        for j, c in enumerate(self.coeffs):
            if j > 0:
                power = m2 if j == 1 else power * m2
            if c != 0:
                acc = acc + c * power
        res = max(commutator(acc, pair.P).max_norm(), commutator(acc, pair.Q).max_norm())
        _require_identity(pair, "centralizer commutation", res, acc, pair.P, pair.Q)
        return acc


def check_lemma1(pair: ProjectionPair) -> tuple[Scalar, Scalar]:
    """Residual norms (||[M^2, P]||, ||[M^2, Q]||); zero for valid pairs."""
    ops = derived_ops(pair)
    m2 = ops.M * ops.M
    return (
        commutator(m2, pair.P).max_norm(),
        commutator(m2, pair.Q).max_norm(),
    )


def check_lemma2(pair: ProjectionPair, T: CentralizerElement) -> Matrix:
    """Residual of [(I-2Q) T M, P V] = T M (I - M^2); zero matrix when valid."""
    ops = derived_ops(pair)
    eye = pair.identity()
    t = T.materialize(pair)
    lhs = commutator((eye - 2 * pair.Q) * t * ops.M, pair.P * ops.V)
    rhs = t * ops.M * ops.S
    return lhs - rhs


def check_lemma3(pair: ProjectionPair, T: CentralizerElement) -> Matrix:
    """Residual of [(I-2Q) T M (I-M^2)^{-1}, P V] = T M.

    Requires S = I - M^2 invertible; raises :class:`SingularS` otherwise.
    """
    ops = derived_ops(pair)
    if not is_invertible(ops.S):
        raise SingularS("I - M^2 is not invertible")
    eye = pair.identity()
    t = T.materialize(pair)
    s_inv = ops.S.inverse()
    lhs = commutator((eye - 2 * pair.Q) * t * ops.M * s_inv, pair.P * ops.V)
    rhs = t * ops.M
    return lhs - rhs


def commutator_witness(pair: ProjectionPair, n: int) -> tuple[Matrix, Matrix]:
    """Matrices (A, B) with [A, B] = M - M^n, for odd n >= 3.

    A = (I-2Q) T_n M and B = P V with T_n the geometric sum in M^2.  The
    witness is verified before returning, so trace(M^n) = trace(M) follows
    from tr[A, B] = 0 alone.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("n must be an odd integer >= 3")
    ops = derived_ops(pair)
    eye = pair.identity()
    t = CentralizerElement.geometric_sum(n).materialize(pair)
    a = (eye - 2 * pair.Q) * t * ops.M
    b = pair.P * ops.V
    expected = ops.M - ops.M**n
    residual = (commutator(a, b) - expected).max_norm()
    _require_identity(pair, "commutator witness", residual, a, b, expected)
    return a, b


def to_float_pair(pair: ProjectionPair) -> ProjectionPair:
    """Convert a rational pair to the float field under its own policy
    (idempotency revalidated)."""
    if pair.field == FLOAT:
        return pair
    return make_pair(pair.P.to_float(), pair.Q.to_float(), pair.pol)
