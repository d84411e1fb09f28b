"""Pair validation, derived operators, and the commutator machinery."""

from fractions import Fraction

import pytest

from projpair.errors import (
    DimensionMismatch,
    FieldMismatch,
    IdentityViolation,
    NotIdempotent,
    SingularS,
)
from projpair.generators import gen_pair_oblique_rational, gen_pair_orthogonal, mix_seed
from projpair.linalg import Matrix
from projpair.pairs import (
    CentralizerElement,
    ProjectionPair,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    commutator,
    commutator_witness,
    derived_ops,
    make_pair,
    to_float_pair,
)
from projpair.scalars import DEFAULT_POLICY, FLOAT, RATIONAL, TolerancePolicy


def oblique_pair(i, max_dim=6):
    h = mix_seed(0x9A1E5, i)
    dim = 1 + h % max_dim
    rp = (h >> 8) % (dim + 1)
    rq = (h >> 16) % (dim + 1)
    return gen_pair_oblique_rational(dim, rp, rq, seed=mix_seed(0x51AB, i))


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
            assert ops.certificate.max_residual() == 0.0
            # the exchange identities behind the whole argument
            assert pair.Q * ops.U == ops.U * pair.P
            assert ops.U * ops.V == ops.S
            assert ops.V * ops.U == ops.S
            assert eye - ops.U == (eye - 2 * pair.Q) * ops.M

    def test_cached_per_pair(self):
        pair = oblique_pair(3)
        assert derived_ops(pair) is derived_ops(pair)

    def test_float_certificate_small(self):
        pair = gen_pair_orthogonal(6, 2, 3, seed=4)
        ops = derived_ops(pair)
        assert ops.certificate.max_residual() < 1e-10


def unchecked_pair(field, q22=2, pol=DEFAULT_POLICY):
    """P = [[1, 1], [0, 0]] and Q = diag(0, q22), built past make_pair.

    With q22 = 2, Q is not idempotent, M^2 = [[1, -1], [0, 4]] fails to
    commute with P and Q by 2, and QU - UP is not zero.
    """
    p = Matrix([[1, 1], [0, 0]], RATIONAL)
    q = Matrix.diag([0, q22], RATIONAL)
    if field == FLOAT:
        p, q = p.to_float(), q.to_float()
    return ProjectionPair(2, p, q, field, pol)


class TestIdentityGate:
    """One rule for every identity check: exactly zero over Q, within
    the pair's scaled comparison tolerance over floats."""

    @pytest.mark.parametrize("field", [RATIONAL, FLOAT])
    def test_broken_identities_raise(self, field):
        pair = unchecked_pair(field)
        with pytest.raises(IdentityViolation, match="^derived-operator identities"):
            derived_ops(pair).U
        with pytest.raises(IdentityViolation, match="^centralizer commutation"):
            CentralizerElement.m_squared().materialize(pair)

    def test_messages(self):
        with pytest.raises(IdentityViolation, match="^centralizer commutation failed exactly$"):
            CentralizerElement.m_squared().materialize(unchecked_pair(RATIONAL))
        # the residual 2 against 1e-8 * (1 + dim * |M^2|^2) = 1e-8 * (1 + 2 * 16)
        with pytest.raises(
            IdentityViolation,
            match=r"^centralizer commutation residual 2\.000e\+00 exceeds 3\.300e-07$",
        ):
            CentralizerElement.m_squared().materialize(unchecked_pair(FLOAT))

    def test_float_residual_judged_by_the_pair_policy(self):
        # Q = diag(0, 1e-12) leaves [M^2, P] about 1e-12 from zero: within
        # the default tolerance, far beyond a 1e-20 one
        loose = unchecked_pair(FLOAT, q22=Fraction(1, 10**12))
        CentralizerElement.m_squared().materialize(loose)
        tight = unchecked_pair(FLOAT, q22=Fraction(1, 10**12), pol=TolerancePolicy(1e-20))
        with pytest.raises(IdentityViolation, match="^centralizer commutation residual"):
            CentralizerElement.m_squared().materialize(tight)
        # over Q the same residual is never forgiven, nor one below the
        # smallest float
        with pytest.raises(IdentityViolation, match="^centralizer commutation failed exactly$"):
            CentralizerElement.m_squared().materialize(
                unchecked_pair(RATIONAL, q22=Fraction(1, 10**12))
            )
        with pytest.raises(IdentityViolation, match="^derived-operator identities failed exactly$"):
            derived_ops(unchecked_pair(RATIONAL, q22=Fraction(1, 10**400))).U


class TestCentralizer:
    def test_identity_and_m_squared(self):
        pair = oblique_pair(5)
        ops = derived_ops(pair)
        eye = pair.identity()
        assert CentralizerElement.identity().materialize(pair) == eye
        assert CentralizerElement.m_squared().materialize(pair) == ops.M * ops.M

    def test_geometric_sum_telescopes(self):
        # T_n * M * (I - M^2) = M - M^n is the telescoping behind the witness
        pair = oblique_pair(7)
        ops = derived_ops(pair)
        for n in (3, 5, 7, 9):
            t = CentralizerElement.geometric_sum(n).materialize(pair)
            assert t * ops.M * ops.S == ops.M - ops.M**n

    def test_geometric_sum_validation(self):
        with pytest.raises(ValueError):
            CentralizerElement.geometric_sum(2)
        with pytest.raises(ValueError):
            CentralizerElement.geometric_sum(1)

    def test_materialized_elements_commute(self):
        for i in range(10):
            pair = oblique_pair(i)
            t = CentralizerElement((2, -1, 3)).materialize(pair)
            assert commutator(t, pair.P).is_zero()
            assert commutator(t, pair.Q).is_zero()


class TestLemmaChecks:
    def test_lemma1_zero_on_valid_pairs(self):
        for i in range(15):
            rp, rq = check_lemma1(oblique_pair(i))
            assert rp == 0 and rq == 0

    def test_lemma2_zero_for_t_family(self):
        ts = [
            CentralizerElement.identity(),
            CentralizerElement.m_squared(),
            CentralizerElement((1, 1)),
        ]
        for i in range(15):
            pair = oblique_pair(i)
            for t in ts:
                assert check_lemma2(pair, t).is_zero()

    def test_lemma3_zero_when_s_invertible(self):
        found = 0
        i = 0
        while found < 10:
            pair = oblique_pair(i)
            i += 1
            if derived_ops(pair).S.det() == 0:
                continue
            for t in (CentralizerElement.identity(), CentralizerElement.m_squared()):
                assert check_lemma3(pair, t).is_zero()
            found += 1

    def test_lemma3_requires_invertible_s(self):
        # P = diag(1,0), Q = diag(0,1): M^2 = I so S = 0
        p = Matrix([[1, 0], [0, 0]], RATIONAL)
        q = Matrix([[0, 0], [0, 1]], RATIONAL)
        with pytest.raises(SingularS):
            check_lemma3(make_pair(p, q), CentralizerElement.identity())


class TestCommutatorWitness:
    def test_witness_equals_m_minus_mn(self):
        for i in range(10):
            pair = oblique_pair(i)
            m = derived_ops(pair).M
            for n in (3, 5, 7):
                a, b = commutator_witness(pair, n)
                assert commutator(a, b) == m - m**n

    def test_witness_trace_consequence(self):
        # a commutator has trace zero, so tr M = tr M^n for every odd n
        for i in range(10):
            pair = oblique_pair(i)
            m = derived_ops(pair).M
            for n in (3, 5, 9):
                assert (m - m**n).trace() == 0

    def test_witness_needs_odd_n(self):
        pair = oblique_pair(1)
        with pytest.raises(ValueError):
            commutator_witness(pair, 4)
        with pytest.raises(ValueError):
            commutator_witness(pair, 1)


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
