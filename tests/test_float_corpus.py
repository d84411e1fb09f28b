"""A fixed float corpus: oblique rational pairs reported exactly and as
their float conversions, with every pair whose float report is known to
go wrong listed by what goes wrong.

The recipe and its size are fixed up front, so no defect hides in the
choice of data.  A pair off the lists must agree with its exact report on
the dimensions and k, with every verdict true.  A listed pair whose
behaviour changes, in either direction, fails the test: a mend takes it
off its list.
"""

import random

import pytest

from projpair.errors import ProjpairError, RestrictionFailure
from projpair.fitting import fitting_decomposition
from projpair.generators import gen_pair_oblique_rational
from projpair.index import index_report
from projpair.linalg import Matrix
from projpair.pairs import make_pair, to_float_pair
from projpair.scalars import RATIONAL
from test_fitting import direct_sum, jordan_pair

NS = (1, 3, 5, 7)

# The float traces tr M^n carry roundoff that grows like |M|^n, and every
# verdict on them compares within a tolerance scaled by |value| alone.
TRACES = ("trace_split", "index_formula_dual10", "index_formula_e10", "integer_trace")

# (dim, rank P, rank Q, seed) of each corpus pair whose float report
# differs from its exact one: what differs and the verdicts that fail, or
# the exception raised.
KNOWN = {
    (11, 7, 9, 8415503028500634845): TRACES,
    (14, 8, 5, 4114392588548430781): TRACES,
    (13, 11, 10, 14108079865680152625): TRACES,
    (13, 6, 5, 7311518492442538154): TRACES,
    (14, 2, 3, 1194113571326443385): TRACES,
    # s_f_nilpotent scales its tolerance by |S_F| alone, so the split
    # fails at the exact k = 1 and never recovers
    (11, 6, 2, 4653334276071795335): "RestrictionFailure",
}


def corpus():
    """300 (dim, rank P, rank Q, seed), drawn from random.Random(7)."""
    rng = random.Random(7)
    for _ in range(300):
        dim = rng.randint(2, 15)
        rank_p = rng.randint(0, dim)
        rank_q = rng.randint(0, dim)
        yield dim, rank_p, rank_q, rng.getrandbits(64)


def float_behaviour(exact):
    """What the float report of an exact pair gets wrong: () when it
    agrees with the exact report on dims and k and every verdict is true,
    else "dims" and "k" where they differ and the failed verdicts, or the
    name of the exception it raises."""
    want = index_report(exact, NS)
    assert want.all_verdicts_true, want.failed_verdicts()
    try:
        got = index_report(to_float_pair(exact), NS)
    except ProjpairError as exc:
        return type(exc).__name__
    differ = [
        name
        for name, a, b in (("dims", got.dims, want.dims), ("k", got.fitting_k, want.fitting_k))
        if a != b
    ]
    return tuple(differ + got.failed_verdicts())


def test_corpus_fails_only_where_listed():
    found = {}
    for dim, rank_p, rank_q, seed in corpus():
        behaviour = float_behaviour(gen_pair_oblique_rational(dim, rank_p, rank_q, seed=seed))
        if behaviour:
            found[dim, rank_p, rank_q, seed] = behaviour
    assert found == KNOWN


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_jordan_sum_with_wide_s(m):
    """A Jordan pair of exact k = m stacked with a pair whose |S| is 147:
    the float split ranks powers S^j, j >= 2, whose small singular values
    fall below the cutoff of their own power."""
    wide = gen_pair_oblique_rational(10, 6, 8, seed=15901934976275804805)
    assert float_behaviour(direct_sum(jordan_pair(m), wide)) == "RestrictionFailure"


@pytest.mark.parametrize("t", [10**10, 10**40, 10**160], ids=["1e10", "1e40", "1e160"])
def test_badly_scaled_triangular_pair(t):
    """P = [[1, t], [0, 0]] and Q = diag(1, 0): S = I, so k = 0 and Y is
    the whole space, but N = P + Q - I has singular values near t and 1/t,
    so the float rank of N_Y falls short and s_y_invertible fails."""
    p = Matrix([[1, t], [0, 0]], RATIONAL)
    q = Matrix([[1, 0], [0, 0]], RATIONAL)
    assert float_behaviour(make_pair(p, q)) == "RestrictionFailure"


@pytest.mark.parametrize(
    "exact, failed",
    [
        (
            make_pair(Matrix([[1, 10**10], [0, 0]], RATIONAL), Matrix([[1, 0], [0, 0]], RATIONAL)),
            "s_y_invertible",
        ),
        (gen_pair_oblique_rational(11, 6, 2, seed=4653334276071795335), "s_f_nilpotent"),
    ],
    ids=["triangular-1e10", "corpus-11-6-2"],
)
def test_restriction_failure_names_each_fact_once(exact, failed):
    """The float splits of a listed pair and of a badly scaled pair fail
    one fact each, and the error names that one check alone."""
    with pytest.raises(RestrictionFailure, match=f"failed: {failed}$"):
        fitting_decomposition(to_float_pair(exact))
