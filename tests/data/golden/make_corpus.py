"""Write the golden corpus: pair files and their ``verify --json`` output.

    PYTHONPATH=src python tests/data/golden/make_corpus.py [OUT_DIR]

Every pair comes from a fixed ``mix_seed`` seed, so the pair files are
the same at any commit.  ``NAME.json`` is the pair file and ``NAME.out``
the stdout of ``projpair verify --input NAME.json --json`` produced by
whichever projpair is on the path.  The committed ``.out`` files are the
reference: regenerate them only at a commit whose output is known good,
and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from projpair.cli import run_cli
from projpair.generators import (
    PrescribedSpec,
    PythagoreanBlock,
    ShearBlock,
    gen_pair_oblique_rational,
    gen_pair_orthogonal,
    gen_prescribed,
    mix_seed,
    random_unimodular,
)
from projpair.linalg import Matrix
from projpair.pairfile import save_pair
from projpair.pairs import make_pair
from projpair.scalars import RATIONAL

BASE = 0x601D


def _ranks(i: int, dim: int) -> tuple[int, int]:
    h = mix_seed(BASE, 100 + i)
    return h % (dim + 1), (h >> 8) % (dim + 1)


def _jordan_k2(seed: int):
    """P = [[I, I], [0, 0]], Q = [[I, 0], [B, 0]] with B = -(I + N):
    S is a nonzero nilpotent, so the Fitting exponent is 2.  Conjugated
    by a seeded unimodular matrix."""
    p = Matrix([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]], RATIONAL)
    q = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0], [0, -1, 0, 0]], RATIONAL)
    g = random_unimodular(4, seed)
    gi = g.inverse()
    return make_pair(g * p * gi, g * q * gi)


def corpus():
    """Yield (name, pair): eight rational pairs, then four float pairs."""
    for i, dim in enumerate((3, 5, 6, 8)):
        rank_p, rank_q = _ranks(i, dim)
        yield f"r{i}-oblique-d{dim}", gen_pair_oblique_rational(
            dim, rank_p, rank_q, seed=mix_seed(BASE, i)
        )
    specs = (
        dict(d10=2, d01=1, generic_blocks=(PythagoreanBlock(2, 1), ShearBlock("1/3")), conjugate=True),
        dict(d10=1, d01=2, d11=1, d00=1, generic_blocks=(PythagoreanBlock(3, 2),), conjugate=True),
        dict(d01=1, generic_blocks=(ShearBlock(2),)),
    )
    for j, spec in enumerate(specs):
        i = 4 + j
        pair, _ = gen_prescribed(PrescribedSpec(**spec, seed=mix_seed(BASE, i)))
        yield f"r{i}-prescribed-d{pair.dim}", pair
    yield "r7-jordan-d4", _jordan_k2(mix_seed(BASE, 7))
    for j, dim in enumerate((6, 12, 24, 40)):
        i = 8 + j
        rank_p, rank_q = _ranks(i, dim)
        yield f"f{i}-orthogonal-d{dim}", gen_pair_orthogonal(
            dim, rank_p, rank_q, seed=mix_seed(BASE, i)
        )


def main(out_dir: str) -> int:
    for name, pair in corpus():
        path = os.path.join(out_dir, f"{name}.json")
        save_pair(path, pair)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(["verify", "--input", path, "--json"])
        if code != 0:
            raise SystemExit(f"{name}: verify exited {code}")
        with open(os.path.join(out_dir, f"{name}.out"), "w", encoding="utf-8") as handle:
            handle.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.abspath(__file__))))
