"""Dimension-independent identity verification in the free ring on two
idempotents.

Monomials are words over the alphabet {p, q}, kept reduced under the
rewriting rules pp -> p and qq -> q.  Both rules only shorten words and
overlap trivially, so reduction terminates and is confluent; reduced
words alternate letters, which keeps even high-degree computations tiny
(at most two reduced words per length, plus the empty word).

Polynomials carry integer coefficients, the canonical basis is the set
of reduced words ordered length-lexicographically, and an identity holds
in every dimension exactly when its difference reduces to the zero
polynomial.  A small expression language (atoms I, P, Q, M, S, U, V,
integer literals, + - * ^, commutator brackets [x, y]) lets identities be
stated in operator notation.  One recursive-descent evaluator computes
the value of such a text in whatever ring it is given: in the ring of
reduced words or directly on matrices, with no rewriting.  The derived
atoms M, S, U and V are defined once, as texts of the language
(``_DERIVED``), and :func:`atom_values` evaluates those texts in any
ring, so the free ring, the bridge of ``projpair lemma`` and
:func:`projpair.pairs.check_lemma3` all read the same definitions.

Identities involving (I - M^2)^{-1} are out of reach of this ring (no
inverses); the one the trace argument uses is checked numerically by
:func:`projpair.pairs.check_lemma3`, on the invertible-S pairs of
acceptance criterion 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator

from .errors import ExprSyntaxError, NegativePower

__all__ = [
    "NCPoly",
    "expand",
    "evaluate_expr",
    "atom_values",
    "verify_identity",
    "lemma_suite",
    "IdentityResult",
    "SuiteReport",
    "corpus_identities",
]


def _mul_words(a: str, b: str) -> str:
    # both inputs are reduced (alternating), so at most one merge happens
    if a and b and a[-1] == b[0]:
        return a + b[1:]
    return a + b


class NCPoly:
    """Integer-coefficient polynomial over reduced words in p and q."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[str, int] | None = None):
        clean: dict[str, int] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    clean[word] = coeff
        self._terms = clean

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({"": 1})

    @classmethod
    def generator(cls, letter: str) -> "NCPoly":
        if letter not in ("p", "q"):
            raise ValueError("generator must be 'p' or 'q'")
        return cls({letter: 1})

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[str, int]]:
        """Terms in canonical length-lexicographic order."""
        return iter(sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            out[word] = out.get(word, 0) + coeff
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            out[word] = out.get(word, 0) - coeff
        return NCPoly(out)

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return NCPoly({w: c * other for w, c in self._terms.items()})
        out: dict[str, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = _mul_words(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return NCPoly(out)

    def __rmul__(self, other: int) -> "NCPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "NCPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            raise NegativePower("negative powers are not defined in this ring")
        out = NCPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, p_value, q_value, one):
        """Apply the homomorphism p -> p_value, q -> q_value.

        ``one`` is the multiplicative identity of the target (an identity
        matrix, typically); the arguments only need * and + and scalar
        multiplication by int.
        """
        letter = {"p": p_value, "q": q_value}
        result = None
        for word, coeff in self._terms.items():
            acc = one
            for ch in word:
                acc = acc * letter[ch]
            term = coeff * acc
            result = term if result is None else result + term
        if result is None:
            return 0 * one
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for word, coeff in self.terms():
            body = "*".join(word) if word else "1"
            if abs(coeff) == 1 and word:
                text = body
            elif word:
                text = f"{abs(coeff)}*{body}"
            else:
                text = str(abs(coeff))
            pieces.append(("- " if coeff < 0 else "+ ") + text)
        joined = " ".join(pieces)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __repr__(self) -> str:
        return f"NCPoly({self})"


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------

# The derived atoms, each defined once, as a text over the atoms before it.
_DERIVED = (
    ("M", "P - Q"),
    ("S", "I - M^2"),
    ("U", "(I - Q)*(I - P) + Q*P"),
    ("V", "(I - P)*(I - Q) + P*Q"),
)

_ATOM_NAMES = frozenset(("I", "P", "Q", *(name for name, _ in _DERIVED)))
_PRIMARY_EXPECT = frozenset({"atom", "integer", "'('", "'['"})
# ASCII only: str.isdigit also takes superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")


@lru_cache(maxsize=1024)
def _tokens(text: str) -> tuple[tuple[str, str, int], ...]:
    """(kind, value, position) of each token of text, ending with "end".

    Cached, so the bridge of ``projpair lemma`` scans each of its texts
    once however many pairs it evaluates them on.
    """
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            if ch not in _ATOM_NAMES:
                raise ExprSyntaxError(i, {"atom"}, f"unknown atom {ch!r} at position {i}")
            tokens.append(("atom", ch, i))
            i += 1
            continue
        if ch in "+-*^()[],":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(i, _PRIMARY_EXPECT, f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", "", len(text)))
    return tuple(tokens)


class _Evaluator:
    """Recursive descent for: expr := term (('+'|'-') term)*;
    term := unary ('*' unary)*;
    unary := '-' unary | primary ('^' ['-'] int)?;
    primary := atom | int | '(' expr ')' | '[' expr ',' expr ']'.
    Each rule returns the value of what it read.
    """

    def __init__(self, text: str, values: dict, one):
        self.tokens = _tokens(text)
        self.pos = 0
        self.values = values
        self.one = one

    def expect(self, kind: str) -> None:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise ExprSyntaxError(token[2], {f"'{kind}'"})
        self.pos += 1

    def parse(self):
        value = self.expression()
        token = self.tokens[self.pos]
        if token[0] != "end":
            raise ExprSyntaxError(token[2], {"'+'", "'-'", "'*'", "end of input"})
        return value

    def expression(self):
        value = self.term()
        while (op := self.tokens[self.pos][0]) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            value = value * self.unary()
        return value

    def unary(self):
        # reads the primary and the power too, so a factor costs one call
        kind, value, position = self.tokens[self.pos]
        self.pos += 1
        if kind == "-":
            return -self.unary()
        if kind == "atom":
            base = self.values[value]
        elif kind == "int":
            base = int(value) * self.one
        elif kind == "(":
            base = self.expression()
            self.expect(")")
        elif kind == "[":
            a = self.expression()
            self.expect(",")
            b = self.expression()
            self.expect("]")
            base = a * b - b * a
        else:
            raise ExprSyntaxError(position, _PRIMARY_EXPECT)
        if self.tokens[self.pos][0] != "^":
            return base
        self.pos += 1
        negative = self.tokens[self.pos][0] == "-"
        if negative:
            self.pos += 1
        kind, digits, position = self.tokens[self.pos]
        if kind != "int":
            raise ExprSyntaxError(position, {"integer"})
        self.pos += 1
        exponent = -int(digits) if negative else int(digits)
        if exponent < 0:
            raise NegativePower(f"negative power {exponent} cannot be evaluated")
        return base**exponent


def evaluate_expr(text: str, values: dict, one):
    """Evaluate an identity expression in any ring.

    values maps the seven atom names to ring elements and one is the
    ring's multiplicative identity (integer literals become multiples of
    it).  Ring elements need ``+``, ``-``, ``*`` and ``**`` with a
    nonnegative int.  No reduction is involved, so comparing this against
    the evaluation of the expanded polynomial checks that the idempotent
    rewriting is sound in the target ring.

    Raises ExprSyntaxError with the position of the first bad token.  A
    negative exponent raises NegativePower as soon as it is read, so a
    syntax error later in the same text is not reported.
    """
    return _Evaluator(text, values, one).parse()


def atom_values(p, q, one) -> dict:
    """The seven atoms in any ring, given p, q and the ring's one: I, P
    and Q, then M, S, U and V evaluated from their definitions."""
    values = {"I": one, "P": p, "Q": q}
    for name, text in _DERIVED:
        values[name] = evaluate_expr(text, values, one)
    return values


_ONE = NCPoly.one()
ATOM_VALUES = atom_values(NCPoly.generator("p"), NCPoly.generator("q"), _ONE)


def expand(text: str) -> NCPoly:
    """Canonical reduced form of an expression: its value in the ring of
    reduced words."""
    return evaluate_expr(text, ATOM_VALUES, _ONE)


def verify_identity(lhs: str, rhs: str) -> tuple[bool, NCPoly]:
    """Whether lhs == rhs holds identically; the difference is returned."""
    diff = expand(lhs) - expand(rhs)
    return diff.is_zero(), diff


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    name: str
    lhs: str
    rhs: str
    passed: bool
    difference: NCPoly


@dataclass(frozen=True)
class SuiteReport:
    max_n: int
    results: tuple[IdentityResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[IdentityResult]:
        return [r for r in self.results if not r.passed]


def _geometric_sum_text(n: int) -> str:
    """Partial sum I + M^2 + ... + M^(n-3) used by the witness for odd n."""
    terms = ["I"] + [f"M^{2 * j}" for j in range(1, (n - 3) // 2 + 1)]
    return " + ".join(terms)


def lemma_suite(max_n: int = 9) -> SuiteReport:
    """Verify the whole identity family symbolically up to odd power max_n.

    Covers: commutation of M^2 with P and Q, the U/V exchange identities,
    the proof chain writing M(I - M^2) as a commutator, the parametrized
    commutator identity for the geometric-sum family of T, and the
    explicit witness [.,.] = M - M^n for each odd n up to max_n.
    """
    if max_n % 2 == 0 or max_n < 3:
        raise ValueError("max_n must be an odd integer >= 3")
    identities: list[tuple[str, str, str]] = [
        ("m2_commutes_with_p", "[M^2, P]", "0"),
        ("m2_commutes_with_q", "[M^2, Q]", "0"),
        ("qu_equals_up", "Q*U", "U*P"),
        ("uv_equals_s", "U*V", "S"),
        ("vu_equals_s", "V*U", "S"),
        ("one_minus_u_factorization", "I - U", "(I - 2*Q)*M"),
        ("reflection_is_involution", "(I - 2*Q)^2", "I"),
        ("chain_ms_as_uv_difference", "M*(I - M^2)", "P*U*V - Q*U*V"),
        ("chain_reorder", "P*U*V - Q*U*V", "P*V*U - U*P*V"),
        ("chain_as_commutator", "P*V*U - U*P*V", "[I - U, P*V]"),
    ]
    t_family = ["I", "M^2"] + [_geometric_sum_text(n) for n in range(5, max_n + 1, 2)]
    for t_text in t_family:
        identities.append(
            (
                f"commutator_identity[T={t_text}]",
                f"[(I - 2*Q)*({t_text})*M, P*V]",
                f"({t_text})*M*S",
            )
        )
    for n in range(3, max_n + 1, 2):
        t_text = _geometric_sum_text(n)
        identities.append(
            (
                f"witness_m_minus_m{n}",
                f"[(I - 2*Q)*({t_text})*M, P*V]",
                f"M - M^{n}",
            )
        )
    results = []
    for name, lhs, rhs in identities:
        passed, diff = verify_identity(lhs, rhs)
        results.append(IdentityResult(name, lhs, rhs, passed, diff))
    return SuiteReport(max_n=max_n, results=tuple(results))


def corpus_identities() -> list[tuple[str, str]]:
    """Identity corpus shipped with the package ("lhs == rhs" lines)."""
    text = (
        resources.files("projpair").joinpath("data/identities.txt").read_text("utf-8")
    )
    out: list[tuple[str, str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "==" not in line:
            raise ValueError(f"corpus line without '==': {line!r}")
        lhs, rhs = line.split("==", 1)
        out.append((lhs.strip(), rhs.strip()))
    return out
