"""Exception types shared across the package."""

from __future__ import annotations


class ProjpairError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ProjpairError):
    """Operands have incompatible shapes or ambient dimensions."""


class FieldMismatch(ProjpairError):
    """Operands live over different scalar fields (rational vs float)."""


class NotIdempotent(ProjpairError):
    """A claimed projection fails P*P == P.

    Attributes:
        which: name of the offending matrix ("P" or "Q").
        residual: max-norm of P*P - P (Fraction over the rational field,
            float otherwise).
    """

    def __init__(self, which: str, residual) -> None:
        self.which = which
        self.residual = residual
        super().__init__(f"matrix {which} is not idempotent (residual {residual})")


class NotInvariant(ProjpairError):
    """An operator does not map the given subspace into itself."""


class SingularS(ProjpairError):
    """I - M^2 is not invertible, so the inverse-based identity does not apply."""


class RestrictionFailure(ProjpairError):
    """No proposed Fitting split passed its verifier before ker S^k stopped growing."""


class GenerationExhausted(ProjpairError):
    """Random generation hit the retry budget without a usable draw."""


class EigensolverFailure(ProjpairError):
    """The numeric eigensolver did not converge."""


class NegativePower(ProjpairError):
    """An expression contains a negative exponent, which is not supported."""


class ExprSyntaxError(ProjpairError):
    """Syntax error in the identity expression language.

    Attributes:
        position: 0-based offset into the input text.
        expected: token kinds that would have been accepted there.
    """

    def __init__(self, position: int, expected, message: str | None = None) -> None:
        self.position = position
        self.expected = frozenset(expected)
        if message is None:
            exp = ", ".join(sorted(self.expected))
            message = f"syntax error at position {position}: expected one of {exp}"
        super().__init__(message)


class PairFileError(ProjpairError):
    """A pair file is malformed or violates the format contract."""
