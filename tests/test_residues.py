"""The one residue intake of the exact path, _residues(m, primes),
against a Python remainder per entry and per prime.

It has a module of its own because test_linalg builds a pair at the size
rule when imported: a faulty intake leaves that build climbing through
primes, and this contract could not report."""

import random

import numpy as np
import pytest

from projpair import linalg
from projpair.linalg import Matrix
from projpair.scalars import RATIONAL


@pytest.mark.parametrize("primes", [(linalg._prime(0), linalg._prime(1)), (linalg._PROOF_PRIME,)], ids=["pair", "proof"])
def test_equals_the_remainder_of_each_entry(primes):
    """Entries at the 16-bit limb edges +-2**(16 l) and +-(2**(16 l) - 1)
    for l up to 125 (2000 bits), random negative entries of up to 2000
    bits, and matrices with no rows or no columns."""
    edges = [sign * (2 ** (16 * limbs) - e) for limbs in range(126) for e in (0, 1) for sign in (1, -1)]
    rng = random.Random(3301)
    wide = [[-rng.getrandbits(rng.randint(1, 2000)) - 1 for _ in range(12)] for _ in range(13)]
    for m in (
        Matrix([edges[i : i + 42] for i in range(0, len(edges), 42)], RATIONAL),
        Matrix(wide, RATIONAL),
        Matrix.zeros(0, 5, RATIONAL),
        Matrix.zeros(5, 0, RATIONAL),
        Matrix.zeros(0, 0, RATIONAL),
    ):
        got = linalg._residues(m, primes)
        assert got.dtype == np.int64 and got.shape == (len(primes), m.rows, m.cols)
        assert got.tolist() == [[[x % p for x in row] for row in m.num] for p in primes]


def test_refuses_primes_whose_product_leaves_int64():
    with pytest.raises(AssertionError):
        linalg._residues(Matrix([[1]], RATIONAL), tuple(map(linalg._prime, range(3))))
