"""Noncommutative polynomial engine and the identity language."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair.errors import ExprSyntaxError, NegativePower
from projpair.linalg import Matrix
from projpair.scalars import RATIONAL
from projpair.symbolic import (
    NCPoly,
    atom_values,
    corpus_identities,
    evaluate_expr,
    expand,
    lemma_suite,
    verify_identity,
)

P = NCPoly.generator("p")
Q = NCPoly.generator("q")
ONE = NCPoly.one()


def reduce_oracle(word):
    """Independent reduction: rewrite pp->p / qq->q until nothing changes."""
    while True:
        shorter = word.replace("pp", "p").replace("qq", "q")
        if shorter == word:
            return word
        word = shorter


def monomial(word):
    out = ONE
    for ch in word:
        out = out * NCPoly.generator(ch)
    return out


words_st = st.text(alphabet="pq", min_size=0, max_size=6)


class TestWords:
    @given(words_st, words_st)
    @settings(max_examples=200)
    def test_product_of_monomials(self, w1, w2):
        # multiplying the monomials must land on the reduced concatenation
        product = monomial(w1) * monomial(w2)
        expected = reduce_oracle(w1 + w2)
        assert product == NCPoly({expected: 1})


def poly_from_seed(seed, size=4):
    rng = random.Random(seed)
    out = NCPoly.zero()
    for _ in range(rng.randint(0, size)):
        word = "".join(rng.choice("pq") for _ in range(rng.randint(0, 4)))
        out = out + rng.randint(-3, 3) * monomial(word)
    return out


polys_st = st.integers(0, 2**32 - 1).map(poly_from_seed)


class TestRingAxioms:
    @given(polys_st, polys_st, polys_st)
    @settings(max_examples=80, deadline=None)
    def test_mul_associative_add_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(polys_st, polys_st)
    @settings(max_examples=80, deadline=None)
    def test_add_commutative_sub_neg(self, a, b):
        assert a + b == b + a
        assert a - b == a + (-b)
        assert (a - a).is_zero()

    @given(polys_st)
    @settings(max_examples=60, deadline=None)
    def test_one_and_zero(self, a):
        assert a * ONE == a and ONE * a == a
        assert (a * NCPoly.zero()).is_zero()
        assert a + NCPoly.zero() == a

    def test_not_commutative(self):
        assert P * Q != Q * P

    def test_idempotent_generators(self):
        assert P * P == P
        assert Q * Q == Q
        assert P**5 == P

    def test_negative_power_rejected(self):
        with pytest.raises(NegativePower):
            P**-1

    def test_terms_ordered_length_lex(self):
        poly = monomial("qp") + monomial("p") + 2 * ONE + monomial("pq")
        assert [w for w, _ in poly.terms()] == ["", "p", "pq", "qp"]

    def test_str_roundtrip_examples(self):
        assert str(P - Q) == "p - q"
        assert str(NCPoly.zero()) == "0"
        assert str(-2 * ONE) == "-2"


class TestEvaluate:
    def setup_method(self):
        self.p = Matrix([[1, 0], [0, 0]], RATIONAL)
        self.q = Matrix([[1, 1], [0, 0]], RATIONAL)
        self.eye = Matrix.identity(2, RATIONAL)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism_on_idempotents(self, s1, s2):
        a, b = poly_from_seed(s1), poly_from_seed(s2)
        ev = lambda x: x.evaluate(self.p, self.q, self.eye)
        assert ev(a * b) == ev(a) * ev(b)
        assert ev(a + b) == ev(a) + ev(b)

    def test_zero_evaluates_to_zero(self):
        assert NCPoly.zero().evaluate(self.p, self.q, self.eye).is_zero()


class TestPowers:
    """X^n is the ring's n-th power of X and X^0 its one, in the free ring
    and on matrices."""

    def test_free_ring(self):
        assert expand("M^0") == expand("I")
        assert expand("2^3") == 8 * ONE

    def test_rational_pair(self):
        p = Matrix([[1, 2], [0, 0]], RATIONAL)
        q = Matrix([[1, 0], [3, 0]], RATIONAL)
        eye = Matrix.identity(2, RATIONAL)
        atoms = atom_values(p, q, eye)
        m = p - q
        assert not (m * m * m).is_zero()
        assert evaluate_expr("M^0", atoms, eye) == eye
        assert evaluate_expr("(P - Q)^3", atoms, eye) == m * m * m
        assert evaluate_expr("2^3", atoms, eye) == 8 * eye


class TestParser:
    def test_atoms_and_arithmetic(self):
        assert expand("P*Q + 2") == P * Q + 2 * ONE
        assert expand("P - Q") == P - Q
        assert expand("-P") == -P
        assert expand("2*P*Q") == 2 * (P * Q)

    def test_macros_expand(self):
        m = P - Q
        assert expand("M") == m
        assert expand("S") == ONE - m * m
        assert expand("U") == (ONE - Q) * (ONE - P) + Q * P
        assert expand("V") == (ONE - P) * (ONE - Q) + P * Q

    def test_commutator_and_power(self):
        assert expand("[P, Q]") == P * Q - Q * P
        assert expand("M^2") == (P - Q) ** 2
        assert expand("[M^2, P]").is_zero()

    def test_precedence(self):
        assert expand("P + Q*P") == P + Q * P
        assert expand("-P*Q") == -(P * Q)
        assert expand("(P + Q)*P") == (P + Q) * P

    def test_negative_exponent_raises_when_reached(self):
        with pytest.raises(NegativePower):
            expand("S^-1")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("(P", 2),
            ("P Q", 2),
            ("P^", 2),
            ("[P Q]", 3),
            ("P + ", 4),
            ("", 0),
            ("P @ Q", 2),
            ("x", 0),
            ("P^\u00b2", 2),  # superscript two: a digit to str.isdigit, not to int
            ("P^\u0661", 2),  # Arabic-Indic one: int() would read it as 1
        ],
    )
    def test_error_positions(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            expand(text)
        assert info.value.position == position
        assert isinstance(info.value.expected, frozenset)

    def test_verify_identity_returns_difference(self):
        ok, diff = verify_identity("P*Q", "Q*P")
        assert not ok
        assert diff == P * Q - Q * P


class TestLemmaSuite:
    def test_all_pass_and_fast(self):
        start = time.perf_counter()
        report = lemma_suite(9)
        elapsed = time.perf_counter() - start
        assert report.all_passed, [r.name for r in report.failures()]
        assert elapsed < 1.0
        names = {r.name for r in report.results}
        assert "m2_commutes_with_p" in names
        assert "qu_equals_up" in names
        assert "witness_m_minus_m9" in names
        assert "commutator_identity[T=I]" in names

    def test_every_difference_polynomial_is_zero(self):
        for r in lemma_suite(7).results:
            assert r.difference.is_zero(), r.name

    def test_max_n_validation(self):
        with pytest.raises(ValueError):
            lemma_suite(4)
        with pytest.raises(ValueError):
            lemma_suite(1)
        assert lemma_suite(3).all_passed

    def test_witness_identities_scale(self):
        names = {r.name for r in lemma_suite(13).results}
        for n in (3, 5, 7, 9, 11, 13):
            assert f"witness_m_minus_m{n}" in names


class TestCorpus:
    def test_loads_and_passes(self):
        corpus = corpus_identities()
        assert len(corpus) >= 15
        for lhs, rhs in corpus:
            ok, diff = verify_identity(lhs, rhs)
            assert ok, f"{lhs} == {rhs} has difference {diff}"

    def test_numeric_bridge_on_idempotents(self):
        # the reduction bakes in p*p = p; evaluating the text directly on
        # actual idempotents must agree with evaluating the reduced form
        p = Matrix([[1, 2], [0, 0]], RATIONAL)
        q = Matrix([[1, 0], [3, 0]], RATIONAL)
        eye = Matrix.identity(2, RATIONAL)
        m = p - q
        atoms = {
            "I": eye,
            "P": p,
            "Q": q,
            "M": m,
            "S": eye - m * m,
            "U": (eye - q) * (eye - p) + q * p,
            "V": (eye - p) * (eye - q) + p * q,
        }
        for lhs, rhs in corpus_identities():
            left = evaluate_expr(lhs, atoms, eye)
            right = evaluate_expr(rhs, atoms, eye)
            assert (left - right).is_zero(), f"{lhs} == {rhs}"
            reduced = expand(lhs).evaluate(p, q, eye)
            assert (left - reduced).is_zero(), lhs
