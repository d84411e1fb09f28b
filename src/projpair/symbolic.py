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
stated in operator notation; the derived atoms are macros expanded to
their definitions in p and q before reduction.

Identities involving (I - M^2)^{-1} are out of reach of this ring (no
inverses); those are verified numerically on concrete pairs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from .errors import ExprSyntaxError, NegativePower

__all__ = [
    "NCPoly",
    "Expr",
    "parse_expr",
    "expand",
    "evaluate_expr",
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

_P = NCPoly.generator("p")
_Q = NCPoly.generator("q")
_ONE = NCPoly.one()
_M = _P - _Q
_S = _ONE - _M * _M
_U = (_ONE - _Q) * (_ONE - _P) + _Q * _P
_V = (_ONE - _P) * (_ONE - _Q) + _P * _Q

ATOM_VALUES = {"I": _ONE, "P": _P, "Q": _Q, "M": _M, "S": _S, "U": _U, "V": _V}


class Expr:
    """Base class of expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Expr):
    name: str


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class SubNode(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Commutator(Expr):
    left: Expr
    right: Expr


_ATOM_NAMES = frozenset(ATOM_VALUES)
_PRIMARY_EXPECT = frozenset({"atom", "integer", "'('", "'['"})


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
        self._scan()

    def _scan(self) -> None:
        i, text = 0, self.text
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                if ch not in _ATOM_NAMES:
                    raise ExprSyntaxError(i, {"atom"}, f"unknown atom {ch!r} at position {i}")
                self.tokens.append(("atom", ch, i))
                i += 1
                continue
            if ch in "+-*^()[],":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ExprSyntaxError(i, _PRIMARY_EXPECT, f"unexpected character {ch!r} at position {i}")
        self.tokens.append(("end", "", len(text)))


class _Parser:
    """Recursive descent for: expr := term (('+'|'-') term)*;
    term := unary ('*' unary)*; unary := '-' unary | power;
    power := primary ('^' ['-'] int)?;
    primary := atom | int | '(' expr ')' | '[' expr ',' expr ']'.
    """

    def __init__(self, text: str):
        self.tokens = _Tokenizer(text).tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], {f"'{kind}'"})
        return self.advance()

    def parse(self) -> Expr:
        node = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(tok[2], {"'+'", "'-'", "'*'", "end of input"})
        return node

    def expression(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else SubNode(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[0] == "*":
            self.advance()
            node = Mul(node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            negative = False
            if self.peek()[0] == "-":
                self.advance()
                negative = True
            tok = self.peek()
            if tok[0] != "int":
                raise ExprSyntaxError(tok[2], {"integer"})
            self.advance()
            exp = int(tok[1])
            node = Pow(node, -exp if negative else exp)
        return node

    def primary(self) -> Expr:
        kind, value, position = self.peek()
        if kind == "atom":
            self.advance()
            return Atom(value)
        if kind == "int":
            self.advance()
            return IntLit(int(value))
        if kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
            return node
        if kind == "[":
            self.advance()
            left = self.expression()
            self.expect(",")
            right = self.expression()
            self.expect("]")
            return Commutator(left, right)
        raise ExprSyntaxError(position, _PRIMARY_EXPECT)


def parse_expr(text: str) -> Expr:
    """Parse an identity expression; raises ExprSyntaxError with position."""
    return _Parser(text).parse()


def expand(e: Expr) -> NCPoly:
    """Expand an expression tree into canonical reduced form: its value
    in the ring of reduced words."""
    return evaluate_expr(e, ATOM_VALUES, NCPoly.one())


def verify_identity(lhs: str, rhs: str) -> tuple[bool, NCPoly]:
    """Whether lhs == rhs holds identically; the difference is returned."""
    diff = expand(parse_expr(lhs)) - expand(parse_expr(rhs))
    return diff.is_zero(), diff


def evaluate_expr(e: Expr, values: dict, one):
    """Evaluate an expression tree in any ring.

    values maps the seven atom names to ring elements and one is the
    ring's multiplicative identity (integer literals become multiples of
    it).  No reduction is involved, so comparing this against the
    evaluation of the expanded polynomial checks that the idempotent
    rewriting is sound in the target ring.
    """
    if isinstance(e, Atom):
        return values[e.name]
    if isinstance(e, IntLit):
        return e.value * one
    if isinstance(e, Add):
        return evaluate_expr(e.left, values, one) + evaluate_expr(e.right, values, one)
    if isinstance(e, SubNode):
        return evaluate_expr(e.left, values, one) - evaluate_expr(e.right, values, one)
    if isinstance(e, Neg):
        return -evaluate_expr(e.operand, values, one)
    if isinstance(e, Mul):
        return evaluate_expr(e.left, values, one) * evaluate_expr(e.right, values, one)
    if isinstance(e, Pow):
        if e.exponent < 0:
            raise NegativePower(f"negative power {e.exponent} cannot be evaluated")
        base = evaluate_expr(e.base, values, one)
        out = one
        for _ in range(e.exponent):
            out = out * base
        return out
    if isinstance(e, Commutator):
        a = evaluate_expr(e.left, values, one)
        b = evaluate_expr(e.right, values, one)
        return a * b - b * a
    raise TypeError(f"not an expression node: {e!r}")


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
