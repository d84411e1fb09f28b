"""Scalar fields and the tolerance policy.

Two scalar fields are supported: exact rationals (``fractions.Fraction``,
which keeps values gcd-reduced with a positive denominator) and binary64
floats.  Every matrix and subspace carries a field tag; mixed-field
arithmetic is rejected rather than coerced.

Floats never make tolerance decisions on their own: every approximate
comparison goes through the one comparison tolerance of an explicit
:class:`TolerancePolicy` value.  Float rank decisions do not read it;
they use the fixed cutoff :data:`projpair.linalg.RANK_REL_TOL`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import FieldMismatch, PairFileError

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, float]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")


@dataclass(frozen=True)
class TolerancePolicy:
    """The comparison tolerance of float-field decisions.

    compare_abs_tol: absolute cutoff for entrywise comparisons, scaled by
    each check to the size of what it compares.  It must be finite and
    strictly positive.  Rank decisions never read it, and the rational
    field ignores the policy entirely.
    """

    compare_abs_tol: float = 1e-8

    def __post_init__(self) -> None:
        # an infinite tolerance would pass every float comparison
        tol = self.compare_abs_tol
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError("tolerances must be finite and strictly positive")


DEFAULT_POLICY = TolerancePolicy()


def check_same_field(a: str, b: str) -> None:
    if a != b:
        raise FieldMismatch(f"mixed scalar fields: {a} vs {b}")


def coerce_scalar(value, field: str) -> Scalar:
    """Coerce a number into the given field.

    Rational field accepts int, Fraction and exact rational strings;
    float contamination of the rational field is rejected.  A bool is no
    scalar in either field.
    """
    if isinstance(value, bool):
        raise FieldMismatch(f"cannot place bool {value!r} in the {field} field")
    if field == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return parse_rational(value)
        raise FieldMismatch(f"cannot place {value!r} in the rational field")
    if field == FLOAT:
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise FieldMismatch(f"cannot place {value!r} in the float field")
    raise ValueError(f"unknown field {field!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a reduced Fraction.

    Accepts signs on either part when reading; canonical output always
    carries the sign on the numerator (see :func:`format_rational`).
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise PairFileError(f"not a rational literal: {text!r}")
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/")
        den = int(den_s)
        if den == 0:
            raise PairFileError(f"zero denominator in {text!r}")
        return Fraction(int(num_s), den)
    return Fraction(int(text))


def format_rational(num: int, den: int = 1) -> str:
    """Canonical string form of num / den (den > 0): gcd-reduced, "-" on
    the numerator, no "/1"."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def scalar_to_json(value: Scalar, field: str):
    if field == RATIONAL:
        return format_rational(value.numerator, value.denominator)
    return float(value)
