"""Command-line front end.

Four subcommands: ``verify`` runs the full equality report on a pair
file (or every file in a directory), ``gen`` writes seeded pair files,
``lemma`` runs the symbolic identity suite plus a numeric soundness
bridge, and ``spectrum`` emits the eigenvalue negation-pairing report as
CSV.

Exit codes: 0 everything verified, 1 a verdict or pairing came back
false, 2 bad input (malformed file, non-odd n, invalid parameters).  In
a directory, a file that cannot be read or verified is reported in its
place as an error, the other files are still verified, and the exit
code is 2.
With --json the machine-readable report goes to stdout and the human
rendering to stderr, so pipelines stay clean either way.

A process imports only what it runs: numpy on first use (float pairs,
exact matrices at the size rule), the generators and the symbolic
engine inside ``gen`` and ``lemma``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import ProjpairError
from .index import DEFAULT_NS, IndexReport, index_report, odd_powers, spectrum_symmetry_check
from .pairfile import load_pair, save_pair
from .pairs import ProjectionPair, to_float_pair
from .scalars import DEFAULT_POLICY, RATIONAL, TolerancePolicy, scalar_to_json

__all__ = ["main", "run_cli"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2

# the prescribed kind's 1x1 block counts; like --blocks, None when not given
_COUNTS = ("d10", "d01", "d11", "d00")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projpair",
        description="Verify the trace/eigenspace index identities for pairs of "
        "idempotent matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the equality report on a pair file")
    p_verify.add_argument("--input", required=True, help="pair file, or a directory of them")
    p_verify.add_argument("--n", default=None, help="comma-separated odd powers")
    p_verify.add_argument("--json", action="store_true", help="machine output on stdout")
    p_verify.add_argument("--tol", type=float, default=None, help="absolute comparison tolerance")

    p_gen = sub.add_parser("gen", help="write a seeded pair file")
    p_gen.add_argument("--kind", required=True, choices=("orthogonal", "oblique", "prescribed"))
    p_gen.add_argument("--dim", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--rank-p", dest="rank_p", type=int, default=None)
    p_gen.add_argument("--rank-q", dest="rank_q", type=int, default=None)
    p_gen.add_argument(
        "--entry-bound", dest="entry_bound", type=int, default=None,
        help="largest |entry| of the factors (oblique kind only)",
    )
    for count in _COUNTS:
        p_gen.add_argument(f"--{count}", type=int, default=None)
    p_gen.add_argument(
        "--blocks",
        help="extra 2x2 blocks, e.g. 'pyth:2:1,shear:1/3' (prescribed kind only)",
    )
    p_gen.add_argument(
        "--conjugate", action="store_true", help="unimodular change of basis (prescribed kind only)"
    )
    p_gen.add_argument("--out", required=True)

    p_lemma = sub.add_parser("lemma", help="symbolic identity suite + numeric bridge")
    p_lemma.add_argument("--max-n", dest="max_n", type=int, default=9)
    p_lemma.add_argument("--numeric-samples", dest="numeric_samples", type=int, default=100)

    p_spec = sub.add_parser("spectrum", help="eigenvalue negation-pairing report (CSV)")
    p_spec.add_argument("--input", required=True)
    p_spec.add_argument("--tol", type=float, default=None)

    return parser


def _policy_from_tol(tol: float | None) -> TolerancePolicy:
    if tol is None:
        return DEFAULT_POLICY
    return TolerancePolicy(compare_abs_tol=tol)


def _parse_ns(text: str) -> tuple[int, ...]:
    """The powers of ``--n``, held to the report's rule before any file is read."""
    try:
        ns = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ProjpairError(f"powers must be integers, got {text!r}") from None
    return odd_powers(ns)


def _render_report(rep: IndexReport, label: str | None = None) -> str:
    lines = []
    if label is not None:
        lines.append(f"== {label} ==")
    lines.append(f"pair: dim={rep.dim} field={rep.field}")
    lines.append(
        f"fitting: k={rep.fitting_k} dimF={rep.dim_F} dimY={rep.dim_Y}"
    )
    traces = "  ".join(
        f"n={n}: {scalar_to_json(rep.traces[n], rep.field)}" for n in rep.odd_ns
    )
    lines.append(f"traces tr M^n: {traces}")
    d = rep.dims
    lines.append(
        f"dims: e10={d['e10']} e01={d['e01']} e11={d['e11']} e00={d['e00']}"
        f" | et10={d['et10']} et01={d['et01']} et11={d['et11']} et00={d['et00']}"
    )
    lines.append(f"index: {rep.index}")
    total = len(rep.verdicts)
    good = sum(rep.verdicts.values())
    lines.append(f"verdicts: {good}/{total} true")
    for name in rep.failed_verdicts():
        lines.append(f"  FAIL {name}")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    ns = DEFAULT_NS if args.n is None else _parse_ns(args.n)
    pol = _policy_from_tol(args.tol)
    # a directory is a batch even when it holds one file
    batch = os.path.isdir(args.input)
    if batch:
        names = sorted(
            name
            for name in os.listdir(args.input)
            if os.path.isfile(os.path.join(args.input, name))
        )
        if not names:
            raise ProjpairError(f"no pair files in {args.input}")
        paths = [(name, os.path.join(args.input, name)) for name in names]
    else:
        paths = [(os.path.basename(args.input), args.input)]
    results = []  # (file name, report, error message): one of the last two is None
    for name, path in paths:
        try:
            results.append((name, index_report(load_pair(path, pol), ns), None))
        except (ValueError, OSError) as exc:
            if not batch:
                raise
            # one bad file must not hide the reports of the others
            results.append((name, None, str(exc)))

    human = "\n\n".join(
        _render_report(rep, label=name if batch else None)
        if rep is not None
        else f"== {name} ==\nerror: {error}"
        for name, rep, error in results
    )
    if args.json:
        if batch:
            machine = [
                {"file": name, "report": rep.to_json_dict()}
                if rep is not None
                else {"file": name, "error": error}
                for name, rep, error in results
            ]
        else:
            machine = results[0][1].to_json_dict()
        print(json.dumps(machine, sort_keys=True, separators=(",", ":")))
        print(human, file=sys.stderr)
    else:
        print(human)
    if any(rep is None for _, rep, _ in results):
        return EXIT_ERROR
    if all(rep.all_verdicts_true for _, rep, _ in results):
        return EXIT_OK
    return EXIT_FALSE


def _parse_blocks(text: str):
    from .generators import PythagoreanBlock, ShearBlock

    blocks = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        kind = fields[0]
        try:
            if kind == "pyth" and len(fields) == 3:
                blocks.append(PythagoreanBlock(int(fields[1]), int(fields[2])))
                continue
            if kind == "shear" and len(fields) == 2:
                blocks.append(ShearBlock(Fraction(fields[1])))
                continue
        except (ValueError, ZeroDivisionError) as exc:
            raise ProjpairError(f"bad block {part!r}: {exc}") from exc
        raise ProjpairError(f"bad block {part!r} (use pyth:M:K or shear:T)")
    return tuple(blocks)


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import (
        PrescribedSpec, gen_pair_oblique_rational, gen_pair_orthogonal, gen_prescribed
    )

    if args.entry_bound is not None and args.kind != "oblique":
        raise ProjpairError("--entry-bound only applies to kind=oblique")
    if args.kind in ("orthogonal", "oblique"):
        if args.dim is None or args.rank_p is None or args.rank_q is None:
            raise ProjpairError(f"kind={args.kind} needs --dim, --rank-p and --rank-q")
        if args.conjugate or any(getattr(args, o) is not None for o in (*_COUNTS, "blocks")):
            raise ProjpairError(
                "--d10/--d01/--d11/--d00/--blocks/--conjugate only apply to kind=prescribed"
            )
        if args.kind == "orthogonal":
            pair = gen_pair_orthogonal(args.dim, args.rank_p, args.rank_q, args.seed)
        else:
            # unset, the generator's own default bound applies
            bound = {} if args.entry_bound is None else {"entry_bound": args.entry_bound}
            pair = gen_pair_oblique_rational(args.dim, args.rank_p, args.rank_q, args.seed, **bound)
        note = ""
    else:
        if args.rank_p is not None or args.rank_q is not None:
            raise ProjpairError("--rank-p/--rank-q only apply to orthogonal and oblique kinds")
        spec = PrescribedSpec(
            **{count: getattr(args, count) or 0 for count in _COUNTS},
            generic_blocks=_parse_blocks(args.blocks or ""),
            conjugate=args.conjugate,
            seed=args.seed,
        )
        if args.dim is not None and args.dim != spec.total_dim:
            raise ProjpairError(
                f"--dim {args.dim} does not match the prescribed total {spec.total_dim}"
            )
        pair, expected = gen_prescribed(spec)
        note = f" expected_index={expected}"
    save_pair(args.out, pair)
    print(f"wrote {args.out}: dim={pair.dim} field={pair.field}{note}")
    return EXIT_OK


def _bridge_pair(base_seed: int, i: int) -> ProjectionPair:
    from .generators import gen_pair_oblique_rational, mix_seed

    h = mix_seed(base_seed, i)
    dim = 1 + h % 6
    rank_p = (h >> 8) % (dim + 1)
    rank_q = (h >> 16) % (dim + 1)
    return gen_pair_oblique_rational(
        dim, rank_p, rank_q, seed=mix_seed(base_seed, 1_000_000 + i), entry_bound=2
    )


def _cmd_lemma(args: argparse.Namespace) -> int:
    from .symbolic import atom_values, corpus_identities, evaluate_expr, lemma_suite, verify_identity

    samples = args.numeric_samples
    if samples < 0:
        raise ProjpairError(f"--numeric-samples must be >= 0, got {samples}")
    suite = lemma_suite(args.max_n)
    ok = True
    for result in suite.results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.lhs} == {result.rhs}")
        ok = ok and result.passed
    corpus = corpus_identities()
    for i, (lhs, rhs) in enumerate(corpus):
        passed, _ = verify_identity(lhs, rhs)
        print(f"{'PASS' if passed else 'FAIL'} corpus[{i}]: {lhs} == {rhs}")
        ok = ok and passed
    texts = [(f"corpus[{i}]", lhs, rhs) for i, (lhs, rhs) in enumerate(corpus)]
    texts += [(r.name, r.lhs, r.rhs) for r in suite.results]

    # Numeric soundness bridge: both sides of every identity that the
    # rewriter proves must also agree when the texts are evaluated
    # directly on actual idempotent matrices, with no rewriting involved.
    # Each distinct side is evaluated once per pair: the corpus restates suite identities.
    sides = {text for _, lhs, rhs in texts for text in (lhs, rhs)}
    bridge_failures = 0
    for i in range(samples):
        pair = _bridge_pair(0xB71D6E, i)
        eye = pair.identity()
        atoms = atom_values(pair.P, pair.Q, eye)
        value = {text: evaluate_expr(text, atoms, eye) for text in sides}
        for name, lhs, rhs in texts:
            if value[lhs] != value[rhs]:
                print(f"FAIL bridge {name} on sample {i} (dim {pair.dim})")
                bridge_failures += 1
    if samples > 0:
        status = "PASS" if bridge_failures == 0 else "FAIL"
        print(
            f"{status} numeric bridge: {len(texts)} identities x {samples} rational pairs"
        )
    ok = ok and bridge_failures == 0
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_spectrum(args: argparse.Namespace) -> int:
    pair = load_pair(args.input)
    if pair.field == RATIONAL:
        print("note: rational pair converted to float for the eigenvalue check", file=sys.stderr)
        pair = to_float_pair(pair)
    rep = spectrum_symmetry_check(pair, tol=args.tol)
    partner = {}
    for i, j in rep.pairs:
        partner[i] = j
        partner[j] = i
    status = {}
    for i in rep.excluded:
        status[i] = "excluded"
    for i in partner:
        status[i] = "paired"
    for i in rep.unmatched:
        status[i] = "unmatched"
    print("index,real,imag,status,partner")
    for i, lam in enumerate(rep.eigenvalues):
        mate = partner.get(i, "")
        print(f"{i},{lam.real!r},{lam.imag!r},{status[i]},{mate}")
    print(
        f"eigenvalues: {len(rep.eigenvalues)} total, {len(rep.excluded)} excluded, "
        f"{2 * len(rep.pairs)} paired, {len(rep.unmatched)} unmatched",
        file=sys.stderr,
    )
    return EXIT_OK if rep.all_paired else EXIT_FALSE


_DISPATCH = {
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "lemma": _cmd_lemma,
    "spectrum": _cmd_spectrum,
}


def _join_tol(args: list[str]) -> list[str]:
    """Write ``--tol X`` as ``--tol=X``.

    argparse reads a value such as ``-1e-9`` as an option, so spaced from
    ``--tol`` it never reached the tolerance rule and its message.
    """
    joined: list[str] = []
    for arg in args:
        if joined and joined[-1] == "--tol":
            joined[-1] = f"--tol={arg}"
        else:
            joined.append(arg)
    return joined


def run_cli(args: list[str]) -> int:
    """Parse and run one command; returns the exit code, never raises."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_tol(args))
    except SystemExit as exc:
        # argparse already printed a usage message; 2 on error, 0 on --help
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return _DISPATCH[ns.command](ns)
    except (ValueError, OSError) as exc:  # ProjpairError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    return run_cli(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
