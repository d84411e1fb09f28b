"""Generate and write one workload's input pairs: the benchmark's set-up.

Run as a script, in a fresh interpreter, so that the time it takes
includes importing projpair:

    python3 bench/inputs.py --workload NAME --seed N --out DIR

It writes one pair file per item with ``projpair.save_pair`` and a
``manifest.json`` listing each file with its ground-truth index and the
seconds spent importing, generating and saving.  The same seed always
gives byte-identical files.

Ground truth never comes from the code under test: the trace of an
idempotent is its rank, so the index of a generated pair is
rank_p - rank_q, and d10 - d01 for a prescribed pair.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

ODD_NS = (1, 3, 5, 7)
WORKLOADS = ("ensemble_exact", "exact_large", "float_sweep", "cli_batch")

# Each workload's pool has a fixed shape: the dimension and ranks of
# every item (and the recipe of every prescribed pair) come from
# mix_seed with the workload's own constant tag, so every seed sees the
# same sizes.  --seed draws the entries: the integer factors of oblique
# pairs, the orthonormal frames of float pairs and the conjugating
# matrices of prescribed pairs.  Item cost depends mostly on shape, so
# runs with different seeds stay comparable while the inputs differ.
ENSEMBLE_SIZE = 100
EXACT_LARGE_DIMS = (20, 20, 20)
# One pair per size.  Short passes make every item recur several times
# in a run, so the median item (d = 64) is timed at several moments.
FLOAT_SWEEP_DIMS = (32, 48, 64, 80, 96)
CLI_DIMS = tuple(range(1, 13))
_TAGS = {"ensemble_exact": 0xACC0, "exact_large": 0xE1A6, "float_sweep": 0xF10A, "cli_batch": 0xC11B}
_BLOCK_MENU = ((), (("pyth", 2, 1),), (("shear", 1, 2),), (("pyth", 3, 2), ("shear", 2, 1)))


def _ranks(h: int, dim: int) -> tuple[int, int]:
    return h % (dim + 1), (h >> 8) % (dim + 1)


def _prescribed_spec(h: int, conjugate: bool, seed: int, pp):
    """The acceptance ensemble's prescribed recipe, drawn from ``h``."""
    blocks = tuple(
        pp.PythagoreanBlock(a, b) if kind == "pyth" else pp.ShearBlock(Fraction(a, b))
        for kind, a, b in _BLOCK_MENU[(h >> 8) % 4]
    )
    counts = {"d10": h % 3, "d01": (h >> 2) % 3, "d11": (h >> 4) % 2, "d00": (h >> 6) % 2}
    if not blocks and not any(counts.values()):
        counts["d10"] = 1
    return pp.PrescribedSpec(**counts, generic_blocks=blocks, conjugate=conjugate, seed=seed)


def generate(workload: str, seed: int, pp):
    """Yield (file name, pair, expected index) for every item of the pool."""
    mix = pp.mix_seed
    tag = _TAGS[workload]
    if workload == "ensemble_exact":
        # Half oblique (dims 1-10 in turn), half prescribed, and half of
        # the prescribed ones conjugated.
        for i in range(ENSEMBLE_SIZE // 2):
            dim = 1 + i % 10
            rank_p, rank_q = _ranks(mix(tag, 2 * i), dim)
            pair = pp.gen_pair_oblique_rational(dim, rank_p, rank_q, seed=mix(seed, 2 * i))
            yield f"{2 * i:03d}-oblique-d{dim}.json", pair, rank_p - rank_q
            spec = _prescribed_spec(mix(tag, 2 * i + 1), bool(i % 2), mix(seed, 2 * i + 1), pp)
            pair, _ = pp.gen_prescribed(spec)
            yield f"{2 * i + 1:03d}-prescribed-d{pair.dim}.json", pair, spec.d10 - spec.d01
    elif workload == "exact_large":
        for i, dim in enumerate(EXACT_LARGE_DIMS):
            h = mix(tag, i)
            rank_p = dim // 2 - 2 + h % 5
            rank_q = dim // 2 - 2 + (h >> 8) % 5
            pair = pp.gen_pair_oblique_rational(dim, rank_p, rank_q, seed=mix(seed, i))
            yield f"{i:03d}-oblique-d{dim}.json", pair, rank_p - rank_q
    elif workload == "float_sweep":
        for i, dim in enumerate(FLOAT_SWEEP_DIMS):
            rank_p, rank_q = _ranks(mix(tag, i), dim)
            pair = pp.gen_pair_orthogonal(dim, rank_p, rank_q, seed=mix(seed, i))
            yield f"{i:03d}-orthogonal-d{dim}.json", pair, rank_p - rank_q
    elif workload == "cli_batch":
        for i, dim in enumerate(CLI_DIMS):
            for j, (kind, gen) in enumerate(
                (("oblique", pp.gen_pair_oblique_rational), ("orthogonal", pp.gen_pair_orthogonal))
            ):
                k = 2 * i + j
                rank_p, rank_q = _ranks(mix(tag, k), dim)
                pair = gen(dim, rank_p, rank_q, seed=mix(seed, k))
                yield f"{k:03d}-{kind}-d{dim}.json", pair, rank_p - rank_q
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import projpair as pp

    import_s = time.perf_counter() - start
    os.makedirs(args.out, exist_ok=True)
    gen_s = save_s = 0.0
    items = []
    pool = generate(args.workload, args.seed, pp)
    while True:
        t0 = time.perf_counter()
        entry = next(pool, None)
        t1 = time.perf_counter()
        if entry is None:
            break
        name, pair, expected = entry
        pp.save_pair(os.path.join(args.out, name), pair)
        t2 = time.perf_counter()
        gen_s += t1 - t0
        save_s += t2 - t1
        items.append({"file": name, "expected_index": expected})
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "items": items,
        "timings": {"import_s": import_s, "gen_s": gen_s, "save_s": save_s},
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
