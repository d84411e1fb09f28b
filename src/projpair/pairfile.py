"""Reading and writing pair files.

One JSON object per file carries both projections:

    {"dim": 2, "field": "rational",
     "P": [["1", "0"], ["0", "0"]],
     "Q": [["1", "1/2"], ["0", "0"]]}

Rational entries are canonical strings (gcd-reduced, sign on the
numerator, no "/1" on integers); float entries are plain JSON numbers.
Reading validates shape and field discipline, then hands the matrices to
make_pair, so a file that parses but holds non-idempotent matrices still
fails loudly.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from .errors import PairFileError
from .linalg import Matrix
from .pairs import ProjectionPair, make_pair
from .scalars import (
    DEFAULT_POLICY,
    FLOAT,
    RATIONAL,
    TolerancePolicy,
    format_rational,
    parse_rational,
)

__all__ = ["dumps_pair", "load_pair", "loads_pair", "save_pair"]

_REQUIRED_KEYS = frozenset({"dim", "field", "P", "Q"})


def _entry_rational(value: object, where: str) -> Fraction:
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise PairFileError(f"{where}: rational entries must be strings or integers, got {value!r}")


def _entry_float(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PairFileError(f"{where}: float entries must be JSON numbers, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer too wide for a float
        raise PairFileError(f"{where}: entry beyond the float range") from None
    if not math.isfinite(out):
        raise PairFileError(f"{where}: non-finite entry {value!r}")
    return out


def _parse_matrix(raw: object, dim: int, field_name: str, label: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != dim:
        raise PairFileError(f'"{label}" must be a list of {dim} rows')
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise PairFileError(f'"{label}" row {i} must have {dim} entries')
        out_row = []
        for j, value in enumerate(row):
            where = f"{label}[{i}][{j}]"
            if field_name == RATIONAL:
                out_row.append(_entry_rational(value, where))
            else:
                out_row.append(_entry_float(value, where))
        rows.append(out_row)
    return Matrix(rows, field_name)


def loads_pair(text: str, pol: TolerancePolicy = DEFAULT_POLICY) -> ProjectionPair:
    """Parse a pair from JSON text and validate it end to end."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise PairFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise PairFileError("top level must be a JSON object")
    keys = set(obj)
    if keys != _REQUIRED_KEYS:
        missing = sorted(_REQUIRED_KEYS - keys)
        extra = sorted(keys - _REQUIRED_KEYS)
        parts = []
        if missing:
            parts.append(f"missing keys {missing}")
        if extra:
            parts.append(f"unexpected keys {extra}")
        raise PairFileError("; ".join(parts))
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise PairFileError(f'"dim" must be a positive integer, got {dim!r}')
    field_name = obj["field"]
    if field_name not in (RATIONAL, FLOAT):
        raise PairFileError(f'"field" must be "rational" or "float", got {field_name!r}')
    p = _parse_matrix(obj["P"], dim, field_name, "P")
    q = _parse_matrix(obj["Q"], dim, field_name, "Q")
    return make_pair(p, q, pol)


def load_pair(path: str | os.PathLike, pol: TolerancePolicy = DEFAULT_POLICY) -> ProjectionPair:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PairFileError(f"cannot read {path}: {exc}") from exc
    return loads_pair(text, pol)


def _matrix_to_json(m: Matrix) -> list[list]:
    if m.field == RATIONAL:
        return [[format_rational(x, m.den) for x in row] for row in m.num]
    return m.to_lists()


def dumps_pair(pair: ProjectionPair) -> str:
    """Serialize a pair in the canonical file format.

    Rational output is byte-deterministic: canonical entry strings and
    sorted keys mean the same pair always produces the same file.
    """
    obj = {
        "dim": pair.dim,
        "field": pair.field,
        "P": _matrix_to_json(pair.P),
        "Q": _matrix_to_json(pair.Q),
    }
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_pair(path: str | os.PathLike, pair: ProjectionPair) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_pair(pair))
