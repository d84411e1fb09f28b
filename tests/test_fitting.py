"""Fitting split under S: stabilization exponent, parts, restrictions."""

import dataclasses
from fractions import Fraction

import pytest

from projpair import linalg
from projpair.errors import RestrictionFailure
from projpair.fitting import fitting_decomposition, verify_fitting
from projpair.generators import (
    gen_pair_oblique_rational,
    gen_pair_orthogonal,
    mix_seed,
    random_unimodular,
)
from projpair.linalg import Matrix, Subspace, is_invertible
from projpair.pairs import derived_ops, make_pair, to_float_pair
from projpair.scalars import FLOAT, RATIONAL
from test_linalg import primes_after

F5 = Fraction(1, 25)


def pair_k2():
    """dim-4 pair whose S is nilpotent of index exactly 2.

    With P = [[I, I], [0, 0]] and Q = [[I, 0], [B, 0]] in 2x2 blocks,
    M^2 = diag(-B, -B), so S = diag(I+B, I+B).  B = [[-1,1],[0,-1]]
    makes I+B a nilpotent Jordan cell: S != 0 but S^2 = 0.
    """
    p = Matrix(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], RATIONAL
    )
    q = Matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [-1, 1, 0, 0], [0, -1, 0, 0]], RATIONAL
    )
    return make_pair(p, q)


def pair_k2_mixed():
    """The k=2 pair direct-summed with an invertible-S block (dim 6)."""
    base = pair_k2()
    p = Matrix.zeros(6, 6, RATIONAL).to_lists()
    q = Matrix.zeros(6, 6, RATIONAL).to_lists()
    for i in range(4):
        for j in range(4):
            p[i][j] = base.P.entry(i, j)
            q[i][j] = base.Q.entry(i, j)
    p[4][4] = Fraction(1)
    q[4][4], q[4][5] = 9 * F5, 12 * F5
    q[5][4], q[5][5] = 12 * F5, 16 * F5
    return make_pair(Matrix(p, RATIONAL), Matrix(q, RATIONAL))


def jordan_pair(m):
    """dim-2m pair with Fitting exponent exactly m (checked for m = 1..5).

    P = [[I, I], [0, 0]] and Q = [[I, 0], [B, 0]] in m x m blocks with
    B = -(I + N), N the nilpotent shift: M^2 = diag(-B, -B), so S =
    diag(-N, -N) is nilpotent of index m and F is the whole space.
    """
    eye = Matrix.identity(m, RATIONAL)
    zero = Matrix.zeros(m, m, RATIONAL)
    shift = Matrix([[int(j == i + 1) for j in range(m)] for i in range(m)], RATIONAL)
    b = -(eye + shift)

    def blocks(top_left, top_right, bottom_left, bottom_right):
        return Matrix(
            [l + r for l, r in zip(top_left.to_lists(), top_right.to_lists())]
            + [l + r for l, r in zip(bottom_left.to_lists(), bottom_right.to_lists())],
            RATIONAL,
        )

    return make_pair(blocks(eye, eye, zero, zero), blocks(eye, zero, b, zero))


def direct_sum(a, b):
    """The pair acting as a on the first coordinates and as b on the rest."""

    def stacked(x, y):
        n, m = x.rows, y.rows
        return Matrix(
            [r + [0] * m for r in x.to_lists()] + [[0] * n + r for r in y.to_lists()],
            RATIONAL,
        )

    return make_pair(stacked(a.P, b.P), stacked(a.Q, b.Q))


def conjugated(pair, g):
    gi = g.inverse()
    return make_pair(g * pair.P * gi, g * pair.Q * gi, pair.pol)


class TestKnownExponents:
    def test_invertible_s_gives_k0(self):
        # a shear pair has M^2 = 0, so S = I
        p = Matrix([[1, 0], [0, 0]], RATIONAL)
        q = Matrix([[1, 1], [0, 0]], RATIONAL)
        fd = fitting_decomposition(make_pair(p, q))
        assert fd.k == 0
        assert fd.F.dim == 0 and fd.Y.dim == 2
        assert fd.rank_sequence == (2,)
        assert fd.S_Y == derived_ops(make_pair(p, q)).S

    def test_complementary_diagonals_give_k1(self):
        # P = diag(1,0), Q = diag(0,1): S = 0, everything is nilpotent part
        p = Matrix([[1, 0], [0, 0]], RATIONAL)
        q = Matrix([[0, 0], [0, 1]], RATIONAL)
        fd = fitting_decomposition(make_pair(p, q))
        assert fd.k == 1
        assert fd.F.dim == 2 and fd.Y.dim == 0
        assert fd.rank_sequence == (2, 0)
        assert fd.S_F.is_zero()

    def test_identical_projections(self):
        eye = Matrix.identity(3, RATIONAL)
        fd = fitting_decomposition(make_pair(eye, eye))
        assert fd.k == 0
        assert fd.Y.dim == 3
        assert fd.P_Y.trace() == 3

    def test_jordan_pair_gives_k2(self):
        fd = fitting_decomposition(pair_k2())
        assert fd.k == 2
        assert fd.rank_sequence == (4, 2, 0)
        assert fd.F.dim == 4 and fd.Y.dim == 0
        assert not fd.S_F.is_zero()
        assert (fd.S_F * fd.S_F).is_zero()

    def test_mixed_jordan_pair(self):
        fd = fitting_decomposition(pair_k2_mixed())
        assert fd.k == 2
        assert fd.rank_sequence == (6, 4, 2)
        assert fd.F.dim == 4 and fd.Y.dim == 2
        assert is_invertible(fd.S_Y)
        assert (fd.S_F * fd.S_F).is_zero()


class TestJordanExponents:
    """k > 1, which random oblique pairs never reach."""

    @staticmethod
    def with_invertible_part(m):
        oblique = gen_pair_oblique_rational(4, 2, 2, seed=mix_seed(0xB10C, m))
        assert fitting_decomposition(oblique).Y.dim > 0
        return direct_sum(jordan_pair(m), oblique)

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("mixed", [False, True])
    def test_exponent_is_block_size(self, m, mixed):
        pair = self.with_invertible_part(m) if mixed else jordan_pair(m)
        fd = fitting_decomposition(pair)
        assert fd.k == m
        assert fd.F.dim >= 2 * m
        assert (fd.Y.dim > 0) == mixed
        assert verify_fitting(fd, pair).all_passed

        raised = verify_fitting(dataclasses.replace(fd, k=m + 1), pair)
        assert raised.failures() == ["k_is_least"]

        lowered = verify_fitting(dataclasses.replace(fd, k=m - 1), pair)
        assert not lowered.checks["f_is_eventual_kernel"]
        assert not lowered.checks["rank_stabilized"]


def record_modular(monkeypatch):
    """Record the matrices that the multi-modular elimination certifies
    and those at the size rule that reach Bareiss: (modular, bareiss)."""
    modular, bareiss = [], []
    real_modular, real_bareiss = linalg._rref_modular, linalg._rref_bareiss

    def recorded(m):
        modular.append(m)
        return real_modular(m)

    def bareiss_at_the_rule(m):
        if linalg._uses_primes(m):
            bareiss.append(m)
        return real_bareiss(m)

    monkeypatch.setattr(linalg, "_rref_modular", recorded)
    monkeypatch.setattr(linalg, "_rref_bareiss", bareiss_at_the_rule)
    return modular, bareiss


class TestUnluckyPrime:
    """Moduli that drop ranks change no answer.

    The multi-modular elimination is patched to take the first primes
    from 2 or 3 on before its own: they lose pivots and stop rational
    reconstruction early, so the certificate must reject their candidates
    and the elimination climb on, with no Bareiss at or above the size rule.
    """

    TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

    @staticmethod
    def corpus():
        pairs = [jordan_pair(m) for m in range(1, 6)]
        pairs += [TestJordanExponents.with_invertible_part(m) for m in range(1, 6)]
        for i in range(100):
            h = mix_seed(0x9A1, i)
            dim = 2 + h % 7
            pairs.append(
                gen_pair_oblique_rational(
                    dim, (h >> 8) % (dim + 1), (h >> 16) % (dim + 1), seed=mix_seed(0x9A2, i)
                )
            )
        return pairs + TestUnluckyPrime.at_the_rule()

    @staticmethod
    def at_the_rule():
        """Oblique pairs at or above the size rule, where eliminations run
        modulo the primes."""
        pairs = []
        for i in range(4):
            dim = linalg.MODULAR_MIN_DIM + i
            pairs.append(gen_pair_oblique_rational(dim, dim // 2 - 1, dim // 2 + 1, seed=i))
        return pairs

    @staticmethod
    def outcome(pair):
        fd = fitting_decomposition(pair)
        return (
            fd.k,
            fd.rank_sequence,
            (fd.F.basis, fd.F.pivots),
            (fd.Y.basis, fd.Y.pivots),
            verify_fitting(fd, pair).checks,
        )

    def test_small_moduli_change_no_answer(self, monkeypatch):
        modular, bareiss = record_modular(monkeypatch)
        pairs = self.corpus()
        want = [self.outcome(pair) for pair in pairs]
        assert all(checks and all(checks.values()) for *_, checks in want)
        for prime in (2, 3):
            tiny = self.TINY_PRIMES[self.TINY_PRIMES.index(prime) :]
            monkeypatch.setattr(linalg, "_prime", primes_after(tiny))
            modular.clear()
            assert [self.outcome(pair) for pair in pairs] == want
            # the modular path certified every elimination at the rule
            assert modular and bareiss == []


class TestSizeRule:
    """At or above the size rule the k loop takes certified modular ranks;
    pure Bareiss is their oracle."""

    def test_k_loop_matches_bareiss(self, monkeypatch):
        """k, the rank sequence, F, Y and every verifier check at d = 12-15,
        with k = 4 and 5 among them, are those of pure Bareiss."""
        pairs = [TestJordanExponents.with_invertible_part(m) for m in (4, 5)]
        pairs += TestUnluckyPrime.at_the_rule()
        assert min(pair.dim for pair in pairs) >= linalg.MODULAR_MIN_DIM
        certified, bareiss = record_modular(monkeypatch)
        outcome = TestUnluckyPrime.outcome
        got = [outcome(pair) for pair in pairs]
        assert [k for k, *_ in got[:2]] == [4, 5]
        assert all(all(checks.values()) for *_, checks in got)
        assert certified and bareiss == []
        certified.clear()
        monkeypatch.setattr(linalg, "MODULAR_MIN_DIM", 10**9)
        assert [outcome(pair) for pair in pairs] == got
        assert certified == []


class TestInvariants:
    def oblique(self, i):
        h = mix_seed(0xF17, i)
        dim = 2 + h % 5
        return gen_pair_oblique_rational(
            dim, (h >> 8) % (dim + 1), (h >> 16) % (dim + 1), seed=mix_seed(0xF18, i)
        )

    def test_rank_sequence_strictly_decreasing(self):
        for i in range(20):
            fd = fitting_decomposition(self.oblique(i))
            seq = fd.rank_sequence
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert len(seq) == fd.k + 1

    def test_dims_split_and_trace_adds(self):
        for i in range(20):
            pair = self.oblique(i)
            fd = fitting_decomposition(pair)
            assert fd.F.dim + fd.Y.dim == pair.dim
            ops = derived_ops(pair)
            assert fd.M_F.trace() + fd.M_Y.trace() == ops.M.trace()
            assert fd.P_F.trace() + fd.P_Y.trace() == pair.P.trace()

    def test_verify_passes_on_fresh_decomposition(self):
        for i in range(8):
            pair = self.oblique(i)
            report = verify_fitting(fitting_decomposition(pair), pair)
            assert report.all_passed
            assert report.failures() == []

    def test_eigenspaces_land_in_nilpotent_part(self):
        # ker(M -/+ 1) sits inside ker S^k since S kills eigenvectors at +-1
        from projpair.index import compute_eigenspaces

        for i in range(12):
            pair = self.oblique(i)
            fd = fitting_decomposition(pair)
            spaces = compute_eigenspaces(pair)
            assert fd.F.contains(spaces.E10)
            assert fd.F.contains(spaces.E01)

    def test_similarity_invariance(self):
        pair = pair_k2_mixed()
        fd = fitting_decomposition(pair)
        for i in range(5):
            g = random_unimodular(pair.dim, seed=mix_seed(0xC4A, i))
            fd2 = fitting_decomposition(conjugated(pair, g))
            assert fd2.k == fd.k
            assert fd2.rank_sequence == fd.rank_sequence
            assert (fd2.F.dim, fd2.Y.dim) == (fd.F.dim, fd.Y.dim)
            assert fd2.P_F.trace() == fd.P_F.trace()
            assert fd2.M_Y.trace() == fd.M_Y.trace()


class TestFloat:
    def test_orthogonal_pair_margins_reported(self):
        pair = gen_pair_orthogonal(7, 3, 2, seed=9)
        fd = fitting_decomposition(pair)
        assert fd.rank_margins is not None
        assert all(m > 1.0 for m in fd.rank_margins)
        assert verify_fitting(fd, pair).all_passed

    def test_rational_pair_has_no_margins(self):
        fd = fitting_decomposition(pair_k2())
        assert fd.rank_margins is None

    def test_float_matches_exact_on_jordan_pair(self):
        pair = pair_k2_mixed()
        fd_exact = fitting_decomposition(pair)
        fd_float = fitting_decomposition(to_float_pair(pair))
        assert fd_float.k == fd_exact.k
        assert fd_float.rank_sequence == fd_exact.rank_sequence
        assert (fd_float.F.dim, fd_float.Y.dim) == (fd_exact.F.dim, fd_exact.Y.dim)

    @pytest.mark.parametrize(
        "pair, k",
        [
            (make_pair(Matrix([[1, 0], [0, 0]], FLOAT), Matrix([[1, 1], [0, 0]], FLOAT)), 0),
            (gen_pair_orthogonal(7, 3, 2, seed=9), 1),
            (to_float_pair(pair_k2_mixed()), 2),
            (to_float_pair(jordan_pair(3)), 3),
        ],
    )
    def test_one_margin_per_tested_power(self, pair, k):
        """The k loop ranks S^1 .. S^(k+1), one margin each."""
        fd = fitting_decomposition(pair)
        assert fd.k == k
        assert len(fd.rank_margins) == len(fd.rank_sequence) == k + 1

    def test_float_identity_projections(self):
        eye = Matrix.identity(4, FLOAT)
        fd = fitting_decomposition(make_pair(eye, Matrix.zeros(4, 4, FLOAT)))
        # M = P, M^2 = P, S = I - P = 0: whole space is nilpotent part
        assert fd.k == 1
        assert fd.F.dim == 4


class TestCorruptionDetection:
    def test_truncated_f_fails_dimension_check(self):
        pair = pair_k2()
        fd = fitting_decomposition(pair)
        cut = Subspace(Matrix([row[: fd.F.dim - 1] for row in fd.F.basis.to_lists()], RATIONAL))
        # keep the restriction shapes out of the way: they now disagree too
        bad = dataclasses.replace(fd, F=cut)
        report = verify_fitting(bad, pair)
        assert not report.checks["direct_sum_dims"]
        assert not report.all_passed

    def test_wrong_f_fails_kernel_check(self):
        pair = pair_k2_mixed()
        fd = fitting_decomposition(pair)
        cols = [[0] * pair.dim for _ in range(fd.F.dim)]
        for j in range(fd.F.dim):
            cols[j][pair.dim - 1 - j] = 1
        wrong = Subspace(Matrix(cols, RATIONAL).transpose())
        bad = dataclasses.replace(fd, F=wrong)
        report = verify_fitting(bad, pair)
        assert not report.checks["f_is_eventual_kernel"]

    @staticmethod
    def mixed_in(part, other, pair):
        """A subspace of part's dimension that leads with other's basis.

        F and Y meet only in zero, so it is not part.
        """
        rows = other.basis.hstack(part.basis).to_lists()
        return Subspace(Matrix([r[: part.dim] for r in rows], pair.field))

    def check_wrong_y(self, pair):
        fd = fitting_decomposition(pair)
        assert fd.F.dim > 0 and fd.Y.dim > 0
        wrong = self.mixed_in(fd.Y, fd.F, pair)
        assert wrong.dim == fd.Y.dim
        report = verify_fitting(dataclasses.replace(fd, Y=wrong), pair)
        assert not report.checks["y_is_eventual_image"]

    def test_wrong_y_fails_image_check(self):
        self.check_wrong_y(pair_k2_mixed())

    def test_wrong_float_y_fails_image_check(self):
        self.check_wrong_y(gen_pair_orthogonal(7, 3, 2, seed=9))

    def test_wrong_float_f_fails_kernel_check(self):
        pair = gen_pair_orthogonal(7, 3, 2, seed=9)
        fd = fitting_decomposition(pair)
        wrong = self.mixed_in(fd.F, fd.Y, pair)
        assert wrong.dim == fd.F.dim > 0
        report = verify_fitting(dataclasses.replace(fd, F=wrong), pair)
        assert not report.checks["f_is_eventual_kernel"]

    def test_wrong_k_fails_stabilization(self):
        pair = pair_k2()
        fd = fitting_decomposition(pair)
        bad = dataclasses.replace(fd, k=1)
        report = verify_fitting(bad, pair)
        assert not report.checks["rank_stabilized"]

    def test_corrupt_restriction_fails_roundtrip(self):
        pair = pair_k2()
        fd = fitting_decomposition(pair)
        bad = dataclasses.replace(fd, P_F=Matrix.zeros(fd.F.dim, fd.F.dim, RATIONAL))
        report = verify_fitting(bad, pair)
        assert not report.checks["p_invariant_on_f"]

    def test_corrupt_float_restriction_fails_roundtrip(self):
        pair = gen_pair_orthogonal(7, 3, 2, seed=9)
        fd = fitting_decomposition(pair)
        assert fd.Y.dim > 0
        bad = dataclasses.replace(fd, P_Y=fd.P_Y + Matrix.identity(fd.Y.dim, FLOAT) * 1e-3)
        report = verify_fitting(bad, pair)
        assert report.failures() == ["y_is_eventual_image", "rank_stabilized", "p_invariant_on_y"]

    def test_wrong_shape_m_f_fails_without_raising(self):
        """M_F = P_F - Q_F does not exist for a P_F of the wrong shape; the
        checks that would read it fail, and the verifier does not raise."""
        pair = pair_k2()
        fd = fitting_decomposition(pair)
        bad = dataclasses.replace(fd, P_F=Matrix.zeros(1, 1, RATIONAL))
        report = verify_fitting(bad, pair)
        assert report.failures() == ["p_invariant_on_f", "s_f_nilpotent", "k_is_least"]

    def test_wrong_shape_p_y_fails_without_raising(self):
        pair = pair_k2()
        fd = fitting_decomposition(pair)
        d = fd.Y.dim + 1
        bad = dataclasses.replace(fd, P_Y=Matrix.zeros(d, d, RATIONAL))
        report = verify_fitting(bad, pair)
        assert not report.checks["p_invariant_on_y"]
        assert not report.checks["s_y_invertible"]

    def test_non_nilpotent_sf_detected(self):
        """P_F = Q_F makes M_F = 0, so S_F = I."""
        pair = pair_k2()
        fd = fitting_decomposition(pair)
        bad = dataclasses.replace(fd, P_F=fd.Q_F)
        assert bad.S_F == Matrix.identity(fd.F.dim, RATIONAL)
        report = verify_fitting(bad, pair)
        assert not report.checks["s_f_nilpotent"]
        assert "s_f_nilpotent" in report.failures()

    def test_constructor_rejects_broken_invariants(self, monkeypatch):
        # force the verifier to see a failure during construction
        import projpair.fitting as fitting_mod

        real = fitting_mod.verify_fitting

        def sabotaged(fd, pair):
            report = real(fd, pair)
            report.checks["direct_sum_dims"] = False
            return report

        monkeypatch.setattr(fitting_mod, "verify_fitting", sabotaged)
        with pytest.raises(RestrictionFailure, match="direct_sum_dims"):
            fitting_mod.fitting_decomposition(pair_k2())
