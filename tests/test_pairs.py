"""Pair validation, derived operators, and the inverse commutator lemma."""

from fractions import Fraction

import numpy as np
import pytest

from projpair.errors import DimensionMismatch, FieldMismatch, NotIdempotent, SingularS
from projpair.generators import gen_pair_oblique_rational, gen_pair_orthogonal, mix_seed
from projpair.linalg import Matrix, is_invertible
from projpair.pairs import check_lemma3, derived_ops, make_pair, to_float_pair
from projpair.scalars import FLOAT, RATIONAL, TolerancePolicy
from projpair.symbolic import ATOM_VALUES, NCPoly, atom_values, evaluate_expr, lemma_suite


def oblique_pair(i, max_dim=6):
    h = mix_seed(0x9A1E5, i)
    dim = 1 + h % max_dim
    rp = (h >> 8) % (dim + 1)
    rq = (h >> 16) % (dim + 1)
    return gen_pair_oblique_rational(dim, rp, rq, seed=mix_seed(0x51AB, i))


def pair_atoms(pair):
    """I, P, Q, M, S, U and V of a pair, from their one definition."""
    return atom_values(pair.P, pair.Q, pair.identity())


class TestMakePair:
    def test_valid_pair(self):
        p = Matrix([[1, 0], [0, 0]], RATIONAL)
        q = Matrix([[0, 0], [0, 1]], RATIONAL)
        pair = make_pair(p, q)
        assert pair.dim == 2 and pair.field == RATIONAL

    def test_non_idempotent_rejected(self):
        p = Matrix([[1, 1], [1, 1]], RATIONAL)
        q = Matrix.zeros(2, 2, RATIONAL)
        with pytest.raises(NotIdempotent) as info:
            make_pair(p, q)
        assert info.value.which == "P"
        assert info.value.residual == Fraction(1)

    def test_q_checked_too(self):
        p = Matrix.identity(2, RATIONAL)
        q = Matrix([[2, 0], [0, 0]], RATIONAL)
        with pytest.raises(NotIdempotent) as info:
            make_pair(p, q)
        assert info.value.which == "Q"

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            make_pair(Matrix.zeros(2, 3, RATIONAL), Matrix.zeros(2, 2, RATIONAL))
        with pytest.raises(DimensionMismatch):
            make_pair(Matrix.zeros(2, 2, RATIONAL), Matrix.zeros(3, 3, RATIONAL))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            make_pair(Matrix.zeros(2, 2, RATIONAL), Matrix.zeros(2, 2, FLOAT))

    def test_float_idempotency_tolerance(self):
        q = Matrix([[1.0 + 5e-10, 0.0], [0.0, 0.0]], FLOAT)
        pair = make_pair(q, Matrix.zeros(2, 2, FLOAT))
        assert pair.field == FLOAT
        bad = Matrix([[1.0 + 1e-4, 0.0], [0.0, 0.0]], FLOAT)
        with pytest.raises(NotIdempotent):
            make_pair(bad, Matrix.zeros(2, 2, FLOAT))

    def test_float_entries_whose_squares_overflow(self):
        # an overflowed P^2 certifies nothing; an exact one passes whatever the entries
        zero = Matrix.zeros(2, 2, FLOAT)
        with np.errstate(over="ignore"), pytest.raises(NotIdempotent):
            make_pair(Matrix([[1e308, 0.0], [0.0, 0.0]], FLOAT), zero)
        assert make_pair(Matrix([[1.0, 1e200], [0.0, 0.0]], FLOAT), zero).dim == 2

    def test_tight_policy_rejects_what_default_allows(self):
        m = Matrix([[1.0 + 5e-10, 0.0], [0.0, 0.0]], FLOAT)
        tight = TolerancePolicy(compare_abs_tol=1e-12)
        with pytest.raises(NotIdempotent):
            make_pair(m, Matrix.zeros(2, 2, FLOAT), tight)


class TestDerivedOps:
    def test_structural_identities_exact(self):
        for i in range(20):
            pair = oblique_pair(i)
            ops = derived_ops(pair)
            eye = pair.identity()
            assert ops.M == pair.P - pair.Q
            assert ops.S == eye - ops.M * ops.M
            # the exchange identities behind the whole argument
            atoms = pair_atoms(pair)
            U, V = atoms["U"], atoms["V"]
            assert pair.Q * U == U * pair.P
            assert U * V == ops.S
            assert V * U == ops.S
            assert eye - U == (eye - 2 * pair.Q) * ops.M

    def test_cached_per_pair(self):
        pair = oblique_pair(3)
        assert derived_ops(pair) is derived_ops(pair)

    def test_float_certificate_small(self):
        pair = gen_pair_orthogonal(6, 2, 3, seed=4)
        ops = derived_ops(pair)
        atoms = pair_atoms(pair)
        eye, U, V = atoms["I"], atoms["U"], atoms["V"]
        for residual in (
            pair.Q * U - U * pair.P,
            U * V - ops.S,
            V * U - ops.S,
            (eye - U) - (eye - 2 * pair.Q) * ops.M,
        ):
            assert residual.max_norm() < 1e-10


class TestOneDefinition:
    """M, S, U and V are defined once, as texts in symbolic; the report's
    own M and S (derived_ops) must be those values exactly."""

    def test_report_ops_are_the_language_atoms(self):
        pairs = [oblique_pair(i) for i in range(10)]
        pairs += [to_float_pair(oblique_pair(i)) for i in range(5)]
        pairs += [gen_pair_orthogonal(6, 2, 3, seed=s) for s in range(5)]
        for pair in pairs:
            atoms, ops = pair_atoms(pair), derived_ops(pair)
            for name in ("M", "S"):
                got, want = atoms[name], getattr(ops, name)
                # bitwise over floats: the same operations in the same order
                assert got.data.tobytes() == want.data.tobytes() if pair.field == FLOAT else got == want

    def test_free_ring_atoms_are_the_formulas(self):
        p, q, one = NCPoly.generator("p"), NCPoly.generator("q"), NCPoly.one()
        m = p - q
        assert ATOM_VALUES == {
            "I": one,
            "P": p,
            "Q": q,
            "M": m,
            "S": one - m * m,
            "U": (one - q) * (one - p) + q * p,
            "V": (one - p) * (one - q) + p * q,
        }


def lemma3_ts(pair):
    """T = I, M^2 and I + M^2: polynomials in M^2, which commute with P and Q."""
    eye = pair.identity()
    m2 = eye - derived_ops(pair).S
    return eye, m2, eye + m2


def suite_holds_on(pair, prefix, max_n=7):
    """Evaluate each lemma_suite identity whose name starts with prefix on
    the pair's own I, P, Q, M, S, U, V, as the bridge of ``projpair lemma``
    does, and return how many vanished (all of them, or an assert fails)."""
    atoms = pair_atoms(pair)
    eye = atoms["I"]
    checked = 0
    for r in lemma_suite(max_n).results:
        if r.name.startswith(prefix):
            lhs = evaluate_expr(r.lhs, atoms, eye)
            assert lhs == evaluate_expr(r.rhs, atoms, eye), r.name
            checked += 1
    return checked


class TestLemmaChecks:
    """Lemmas 1 and 2 are identities of the free ring, proved once by
    lemma_suite; these evaluate the suite's own expressions on pairs.
    Lemma 3 needs (I - M^2)^-1 and has its own numeric check."""

    def test_lemma1_zero_on_valid_pairs(self):
        for i in range(15):
            assert suite_holds_on(oblique_pair(i), "m2_commutes_with_") == 2

    def test_lemma2_zero_for_t_family(self):
        # T = I, M^2, I + M^2 and I + M^2 + M^4
        for i in range(15):
            assert suite_holds_on(oblique_pair(i), "commutator_identity[") == 4

    def test_lemma3_zero_when_s_invertible(self):
        found = 0
        i = 0
        while found < 10:
            pair = oblique_pair(i)
            i += 1
            if not is_invertible(derived_ops(pair).S):
                continue
            for t in lemma3_ts(pair):
                assert check_lemma3(pair, t).is_zero()
            found += 1

    def test_lemma3_requires_invertible_s(self):
        # P = diag(1,0), Q = diag(0,1): M^2 = I so S = 0
        p = Matrix([[1, 0], [0, 0]], RATIONAL)
        q = Matrix([[0, 0], [0, 1]], RATIONAL)
        with pytest.raises(SingularS):
            check_lemma3(make_pair(p, q), Matrix.identity(2, RATIONAL))


class TestCommutatorWitness:
    def test_witness_equals_m_minus_mn(self):
        # [(I-2Q) T_n M, PV] = M - M^n for n = 3, 5, 7
        for i in range(10):
            assert suite_holds_on(oblique_pair(i), "witness_m_minus_m") == 3

    def test_witness_trace_consequence(self):
        # a commutator has trace zero, so tr M = tr M^n for every odd n
        for i in range(10):
            pair = oblique_pair(i)
            m = derived_ops(pair).M
            for n in (3, 5, 9):
                assert (m - m**n).trace() == 0


class TestFloatConversion:
    def test_to_float_pair(self):
        pair = oblique_pair(2)
        fpair = to_float_pair(pair)
        assert fpair.field == FLOAT
        assert fpair.dim == pair.dim
        assert fpair.P.entry(0, 0) == pytest.approx(float(pair.P.entry(0, 0)))

    def test_conversion_keeps_the_policy(self):
        tight = TolerancePolicy(compare_abs_tol=1e-12)
        pair = oblique_pair(2)
        assert to_float_pair(make_pair(pair.P, pair.Q, tight)).pol == tight

    def test_float_to_float_is_identity_conversion(self):
        pair = gen_pair_orthogonal(4, 2, 2, seed=1)
        assert to_float_pair(pair).P == pair.P
