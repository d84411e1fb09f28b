"""Seeded pair generators: determinism, exactness, prescribed dimensions."""

from fractions import Fraction

import numpy as np
import pytest

import projpair.generators as gens
from projpair.errors import GenerationExhausted, ProjpairError
from projpair.generators import (
    PrescribedSpec,
    PythagoreanBlock,
    ShearBlock,
    expected_dimensions,
    gen_pair_oblique_rational,
    gen_pair_orthogonal,
    gen_prescribed,
    mix_seed,
    random_unimodular,
)
from projpair.index import compute_eigenspaces, trace_power
from projpair.linalg import Matrix, rank
from projpair.scalars import RATIONAL


class TestMixSeed:
    def test_matches_splitmix64_reference_stream(self):
        # first outputs of the splitmix64 generator seeded with 0
        assert mix_seed(0, 1) == 0xE220A8397B1DCDAF
        assert mix_seed(0, 2) == 0x6E789E6AA1B965F4
        assert mix_seed(0, 0) == 0

    def test_stays_in_64_bits(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            for i in (0, 1, 999):
                assert 0 <= mix_seed(base, i) < 2**64

    def test_avalanche(self):
        a = mix_seed(1234, 5)
        b = mix_seed(1234, 6)
        assert bin(a ^ b).count("1") > 16


class TestOrthogonal:
    def test_deterministic(self):
        a = gen_pair_orthogonal(6, 2, 4, seed=31)
        b = gen_pair_orthogonal(6, 2, 4, seed=31)
        assert a.P == b.P and a.Q == b.Q

    def test_seed_changes_output(self):
        a = gen_pair_orthogonal(6, 2, 4, seed=31)
        b = gen_pair_orthogonal(6, 2, 4, seed=32)
        assert a.P != b.P

    def test_symmetric_and_correct_rank(self):
        pair = gen_pair_orthogonal(7, 3, 5, seed=2)
        assert np.allclose(pair.P.to_numpy(), pair.P.to_numpy().T, rtol=0, atol=1e-12)
        assert rank(pair.P) == 3
        assert rank(pair.Q) == 5

    def test_rank_edges(self):
        pair = gen_pair_orthogonal(4, 0, 4, seed=9)
        assert pair.P.is_zero()
        assert np.allclose(pair.Q.to_numpy(), np.eye(4), rtol=0, atol=1e-9)

    def test_rank_validation(self):
        with pytest.raises(ProjpairError):
            gen_pair_orthogonal(3, 4, 0, seed=1)
        with pytest.raises(ProjpairError):
            gen_pair_orthogonal(3, 1, -1, seed=1)
        with pytest.raises(ProjpairError):
            gen_pair_orthogonal(0, 0, 0, seed=1)


class TestObliqueRational:
    def test_deterministic(self):
        a = gen_pair_oblique_rational(5, 2, 3, seed=17)
        b = gen_pair_oblique_rational(5, 2, 3, seed=17)
        assert a.P == b.P and a.Q == b.Q

    def test_projections_seeded_independently(self):
        # changing rank_q must not disturb P
        a = gen_pair_oblique_rational(5, 2, 1, seed=17)
        b = gen_pair_oblique_rational(5, 2, 4, seed=17)
        assert a.P == b.P
        assert a.Q != b.Q

    def test_exact_rank_and_trace(self):
        for i in range(20):
            h = mix_seed(0xB0B, i)
            dim = 1 + h % 6
            rp = (h >> 8) % (dim + 1)
            rq = (h >> 16) % (dim + 1)
            pair = gen_pair_oblique_rational(dim, rp, rq, seed=i)
            assert rank(pair.P) == rp
            assert rank(pair.Q) == rq
            assert pair.P.trace() == rp  # idempotent: trace equals rank

    def test_full_rank_is_identity(self):
        pair = gen_pair_oblique_rational(4, 4, 0, seed=3)
        assert pair.P == Matrix.identity(4, RATIONAL)

    def test_entry_bound_validation(self):
        with pytest.raises(ProjpairError):
            gen_pair_oblique_rational(3, 1, 1, seed=1, entry_bound=0)

    def test_retry_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(gens, "_OBLIQUE_RETRY_BUDGET", 0)
        with pytest.raises(GenerationExhausted):
            gen_pair_oblique_rational(3, 2, 1, seed=1)


class TestBlocks:
    def test_pythagorean_block_is_exact_rotation(self):
        for m, k in ((2, 1), (3, 2), (5, 2), (7, 4)):
            q = Matrix(PythagoreanBlock(m, k).q_block(), RATIONAL)
            assert q * q == q
            assert q == q.transpose()
            assert q.trace() == 1
            p = Matrix([[1, 0], [0, 0]], RATIONAL)
            mm = (p - q) * (p - q)
            s = Fraction(2 * m * k, m * m + k * k)
            assert mm == s * s * Matrix.identity(2, RATIONAL)

    def test_pythagorean_validation(self):
        with pytest.raises(ProjpairError):
            PythagoreanBlock(1, 1)
        with pytest.raises(ProjpairError):
            PythagoreanBlock(2, 0)
        with pytest.raises(ProjpairError):
            PythagoreanBlock(2.0, 1)

    def test_shear_block(self):
        q = Matrix(ShearBlock(Fraction(5, 3)).q_block(), RATIONAL)
        assert q * q == q
        assert ShearBlock("-3/2").t == Fraction(-3, 2)
        assert ShearBlock(2).t == Fraction(2)

    def test_shear_validation(self):
        with pytest.raises(ProjpairError):
            ShearBlock(0)
        with pytest.raises(ProjpairError):
            ShearBlock(Fraction(0, 5))
        with pytest.raises(ProjpairError):
            ShearBlock(1.5)
        with pytest.raises(ProjpairError):
            ShearBlock(True)


class TestPrescribed:
    def test_pure_d11_is_identity_pair(self):
        pair, index = gen_prescribed(PrescribedSpec(d11=3))
        assert index == 0
        assert pair.P == Matrix.identity(3, RATIONAL)
        assert pair.Q == Matrix.identity(3, RATIONAL)

    def test_block_layout_order(self):
        pair, index = gen_prescribed(PrescribedSpec(d10=1, d01=1))
        assert index == 0
        assert pair.P == Matrix.diag([1, 0], RATIONAL)
        assert pair.Q == Matrix.diag([0, 1], RATIONAL)

    def test_deterministic_including_conjugation(self):
        spec = PrescribedSpec(d10=2, d01=1, d00=1, conjugate=True, seed=99,
                              generic_blocks=(PythagoreanBlock(3, 1),))
        a, _ = gen_prescribed(spec)
        b, _ = gen_prescribed(spec)
        assert a.P == b.P and a.Q == b.Q

    def test_conjugation_changes_matrices_not_invariants(self):
        plain = PrescribedSpec(d10=2, d01=1, generic_blocks=(PythagoreanBlock(2, 1),))
        moved = PrescribedSpec(d10=2, d01=1, conjugate=True, seed=5,
                               generic_blocks=(PythagoreanBlock(2, 1),))
        p0, i0 = gen_prescribed(plain)
        p1, i1 = gen_prescribed(moved)
        assert i0 == i1 == 1
        assert p0.P != p1.P
        assert compute_eigenspaces(p0).dims() == compute_eigenspaces(p1).dims()
        assert trace_power(p0, 3) == trace_power(p1, 3) == 1

    def test_expected_dimensions_match_computation(self):
        specs = [
            PrescribedSpec(d10=2, d01=1, seed=3, conjugate=True,
                           generic_blocks=(PythagoreanBlock(2, 1),)),
            PrescribedSpec(d10=1, d11=2, d00=1, seed=8, conjugate=True,
                           generic_blocks=(ShearBlock(Fraction(1, 3)),)),
            PrescribedSpec(d01=3, seed=21, conjugate=True),
            PrescribedSpec(d10=1, d01=1, d11=1, d00=1, seed=34, conjugate=True,
                           generic_blocks=(ShearBlock(2), PythagoreanBlock(5, 3))),
        ]
        for spec in specs:
            pair, index = gen_prescribed(spec)
            assert pair.dim == spec.total_dim
            dims = compute_eigenspaces(pair).dims()
            assert dims == expected_dimensions(spec)
            assert index == dims["e10"] - dims["et01"]

    def test_prescribed_spec_validation(self):
        with pytest.raises(ProjpairError):
            PrescribedSpec(d10=-1)
        with pytest.raises(ProjpairError):
            PrescribedSpec()  # empty: total dimension zero
        with pytest.raises(ProjpairError):
            PrescribedSpec(d10=1, generic_blocks=("pyth:2:1",))

    def test_total_dim(self):
        spec = PrescribedSpec(d10=1, d00=2, generic_blocks=(PythagoreanBlock(2, 1),) * 3)
        assert spec.total_dim == 9


class TestRandomUnimodular:
    def test_determinant_is_unit(self):
        # an integer matrix with an integer inverse has determinant +-1
        for i in range(15):
            g = random_unimodular(1 + i % 6, seed=i)
            assert g.den == 1 and g.inverse().den == 1

    def test_integer_entries_both_ways(self):
        g = random_unimodular(5, seed=8)
        gi = g.inverse()
        for mat in (g, gi):
            for row in mat.to_lists():
                for x in row:
                    assert x.denominator == 1

    def test_deterministic(self):
        assert random_unimodular(4, seed=6) == random_unimodular(4, seed=6)

    def test_size_one(self):
        g = random_unimodular(1, seed=0)
        assert g.den == 1 and g.inverse().den == 1

    def test_size_validation(self):
        with pytest.raises(ProjpairError):
            random_unimodular(0, seed=1)
