"""Eigenspace dimensions, odd-power traces, and the full equality report.

For an idempotent pair the trace of (P - Q)^n is the same integer for
every odd n, and that integer counts eigenvectors two ways:

    tr M^n = dim E10 - dim Et01 = dim Et10 - dim E01

where E_ab is the joint eigenspace {x : Px = ax, Qx = bx} and Et_ab its
analogue for the transposed pair.  The report recomputes the whole chain
of equalities behind that statement on a concrete pair, one named verdict
per step, so a failure pinpoints the exact link that broke.

The report needs only the eight dimensions, and :func:`eigenspace_dims`
takes them from ranks of products of row-space and kernel bases of P,
P - I, Q and Q - I, the four bases of each idempotent from one
elimination of it.  :func:`compute_eigenspaces` builds the bases, by
kernels and their intersections, for callers that need the vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import EigensolverFailure, FieldMismatch, ProjpairError
from .fitting import FittingDecomposition, fitting_decomposition
from .linalg import (
    Matrix,
    Subspace,
    idempotent_bases,
    kernel_basis,
    np,
    rank,
    subspace_intersection,
    trace_product,
)
from .pairs import ProjectionPair, derived_ops
from .scalars import FLOAT, RATIONAL, Scalar, TolerancePolicy, scalar_to_json

__all__ = [
    "EigenspaceSet",
    "IndexReport",
    "SpectrumReport",
    "compute_eigenspaces",
    "eigenspace_dims",
    "index_report",
    "spectrum_symmetry_check",
    "trace_power",
]

_DIM_KEYS = ("e10", "e01", "e11", "e00", "et10", "et01", "et11", "et00")


def _joint_eigenspaces(p: Matrix, q: Matrix) -> dict[tuple[int, int], Subspace]:
    """ker(P - aI) intersect ker(Q - bI) for all four labels a, b in {0, 1}.

    Each of the four one-sided kernels is computed once and shared by the
    two intersections that use it.
    """
    eye = Matrix.identity(p.rows, p.field)
    ker_p = [kernel_basis(p - a * eye) for a in (0, 1)]
    ker_q = [kernel_basis(q - b * eye) for b in (0, 1)]
    return {
        (a, b): subspace_intersection(ker_p[a], ker_q[b]) for a in (0, 1) for b in (0, 1)
    }


@dataclass(frozen=True)
class EigenspaceSet:
    """All four joint eigenspaces and their transposed-pair duals."""

    E10: Subspace
    E01: Subspace
    E11: Subspace
    E00: Subspace
    Et10: Subspace
    Et01: Subspace
    Et11: Subspace
    Et00: Subspace

    def dims(self) -> dict[str, int]:
        return {
            "e10": self.E10.dim,
            "e01": self.E01.dim,
            "e11": self.E11.dim,
            "e00": self.E00.dim,
            "et10": self.Et10.dim,
            "et01": self.Et01.dim,
            "et11": self.Et11.dim,
            "et00": self.Et00.dim,
        }


def compute_eigenspaces(pair: ProjectionPair) -> EigenspaceSet:
    e = _joint_eigenspaces(pair.P, pair.Q)
    et = _joint_eigenspaces(pair.P.transpose(), pair.Q.transpose())
    return EigenspaceSet(
        E10=e[1, 0], E01=e[0, 1], E11=e[1, 1], E00=e[0, 0],
        Et10=et[1, 0], Et01=et[0, 1], Et11=et[1, 1], Et00=et[0, 0],
    )


def eigenspace_dims(pair: ProjectionPair) -> dict[str, int]:
    """The eight eigenspace dimensions from two eliminations and eight
    small ranks, with no kernel intersected.

    One elimination of P gives a row-space basis R and a kernel basis K
    of both P and P - I (:func:`idempotent_bases`), and one of Q those of
    Q and Q - I.  E_ab is the kernel of P - aI inside ker(Q - bI), so
    dim E_ab = dim K_{Q-bI} - rank(R_{P-aI} K_{Q-bI}).
    For an idempotent X, ker(X^T - cI) is the row space of X - (1-c)I, so
    Et_ab is the meet of the row spaces of P - (1-a)I and Q - (1-b)I, and
    z^T R_{Q-(1-b)I} lies in the first exactly when it is orthogonal to
    K_{P-(1-a)I}: dim Et_ab = rank(Q - (1-b)I) - rank(R_{Q-(1-b)I} K_{P-(1-a)I}),
    where rank(Q - (1-b)I) is the row count of its R.
    """
    row_p, ker_p = idempotent_bases(pair.P)
    row_q, ker_q = idempotent_bases(pair.Q)
    labels = ((1, 0), (0, 1), (1, 1), (0, 0))
    dims = {f"e{a}{b}": ker_q[b].cols - rank(row_p[a] * ker_q[b]) for a, b in labels}
    for a, b in labels:
        r = row_q[1 - b]
        dims[f"et{a}{b}"] = r.rows - rank(r * ker_p[1 - a])
    return dims


def trace_power(pair: ProjectionPair, n: int) -> Scalar:
    """tr (P - Q)^n for n >= 1, exact over the rationals."""
    if n < 1:
        raise ProjpairError(f"power must be >= 1, got {n}")
    return (derived_ops(pair).M ** n).trace()


def _odd_power_traces(m: Matrix, s: Matrix, ns: tuple[int, ...]) -> dict[int, Scalar]:
    """Traces of m^n for the given odd n, where s = I - m^2, from the
    powers m^2 .. m^h only, h = (max n + 1) / 2.

    m^2 is read off s as I - s, so the report, which holds S, S_F and
    S_Y, never squares M, M_F or M_Y again.  tr m^n = tr(m^a m^(n-a)) =
    sum_ij (m^a)_ij (m^(n-a))_ji with a = (n + 1) / 2 is one dot product
    (:func:`trace_product`), so no power beyond h is formed: n = 1, 3,
    5, 7 take m^2 and the products m^3 and m^4.
    """
    if not ns:
        return {}
    powers = [None, m, Matrix.identity(m.rows, m.field) - s]
    for _ in range((max(ns) + 1) // 2 - 2):
        powers.append(powers[-1] * m)
    return {
        n: m.trace() if n == 1 else trace_product(powers[(n + 1) // 2], powers[n // 2])
        for n in ns
    }


def _close(pair: ProjectionPair, x: Scalar, y: Scalar) -> bool:
    if pair.field == RATIONAL:
        return x == y
    scale = max(1.0, abs(float(x)), abs(float(y)))
    return abs(float(x) - float(y)) <= pair.pol.compare_abs_tol * scale


def _is_integer(pair: ProjectionPair, x: Scalar) -> bool:
    if pair.field == RATIONAL:
        return x.denominator == 1
    return abs(float(x) - round(float(x))) <= pair.pol.compare_abs_tol * max(
        1.0, abs(float(x))
    )


@dataclass(frozen=True)
class IndexReport:
    """Traces, dimensions, and one boolean per asserted equality.

    intermediates records the two mixed-image dimensions
    dim((I-P)F + QF) and dim(PF + (I-Q)F) that the counting identities
    hinge on, so a failed verdict can be diagnosed from the report alone.
    """

    dim: int
    field: str
    odd_ns: tuple[int, ...]
    traces: dict[int, Scalar]
    trace_MF: Scalar
    traces_MF: dict[int, Scalar]
    traces_MY: dict[int, Scalar]
    dims: dict[str, int]
    fitting_k: int
    dim_F: int
    dim_Y: int
    index: int
    intermediates: dict[str, int]
    verdicts: dict[str, bool]

    @property
    def all_verdicts_true(self) -> bool:
        return all(self.verdicts.values())

    def failed_verdicts(self) -> list[str]:
        return [name for name, ok in self.verdicts.items() if not ok]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "ns": list(self.odd_ns),
            "traces": {
                str(n): scalar_to_json(self.traces[n], self.field) for n in self.odd_ns
            },
            "dims": {key: self.dims[key] for key in _DIM_KEYS},
            "fitting": {"k": self.fitting_k, "dimF": self.dim_F, "dimY": self.dim_Y},
            "verdicts": dict(sorted(self.verdicts.items())),
        }

    def to_json(self) -> str:
        # sort_keys + fixed separators: identical input bytes in, identical
        # report bytes out, which the CLI contract relies on.
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _mixed_image_dims(fd: FittingDecomposition) -> tuple[int, int]:
    """dim((I-P)F + QF) and dim(PF + (I-Q)F), read from the blocks P_F
    and Q_F of the Fitting split.

    With B the basis of F, P B = B P_F and Q B = B Q_F (the split reads
    the blocks off and :func:`verify_fitting` proves these, exactly over
    Q, before the split is returned), so (I-P)F + QF is the column
    space of B [I - P_F | Q_F].  B has independent columns, so its
    dimension is the rank of the dim F x 2 dim F matrix [I - P_F | Q_F],
    and no product with P or Q is formed; likewise PF + (I-Q)F.
    """
    if fd.F.dim == 0:
        return 0, 0
    eye = Matrix.identity(fd.F.dim, fd.P_F.field)
    return rank((eye - fd.P_F).hstack(fd.Q_F)), rank(fd.P_F.hstack(eye - fd.Q_F))


def index_report(pair: ProjectionPair, odd_ns: tuple[int, ...] = (1, 3, 5)) -> IndexReport:
    """Verify the whole trace/dimension chain on one pair.

    Each operator is computed once: of the derived operators only M and
    S are built (:func:`derived_ops`; U, V and their certificate are
    not), the eight eigenspace dimensions come from
    :func:`eigenspace_dims` with no eigenspace basis built, the traces
    from powers of M up to half the largest n with M^2 = I - S, and the
    mixed images from the blocks P_F and Q_F.

    Verdicts, in the order the equalities are derived:

    - trace_split: tr M^n = tr M_F^n + tr M_Y^n for each n (block traces
      add over the two invariant parts).
    - trace_y_zero: tr M_Y^n = 0 (on Y the operator S = I - M^2 is
      invertible, and the commutator witness built from S^-1 exhibits
      M_Y^n as a commutator, which is traceless).
    - trace_f_constant: tr M_F^n = tr M_F (S is nilpotent on F, so the
      correction terms M_F - M_F^n are commutators there).
    - trace_f_rank_gap: tr M_F = tr P_F - tr Q_F.
    - counting_identity: tr P_F - tr Q_F = dim F - dim((I-P)F + QF) - dim E01.
    - dual_identification: dim F - dim((I-P)F + QF) = dim Et10.
    - counting_identity_mirror / dual_identification_mirror: the same two
      steps with the roles of the pair and its transpose exchanged,
      using dim(PF + (I-Q)F) and Et01.
    - index_formula_dual10: tr M^n = dim Et10 - dim E01.
    - index_formula_e10: tr M^n = dim E10 - dim Et01.
    - integer_trace: each tr M^n is an integer (denominator one after
      reduction; nearest-integer within tolerance over floats).
    - balance: dim E10 - dim Et01 = dim Et10 - dim E01.
    """
    ns = tuple(odd_ns)
    if not ns:
        raise ProjpairError("need at least one power n")
    for n in ns:
        if n < 1 or n % 2 == 0:
            raise ProjpairError(f"powers must be odd and >= 1, got {n}")

    ops = derived_ops(pair)
    fd = fitting_decomposition(pair)
    dims = eigenspace_dims(pair)

    traces = _odd_power_traces(ops.M, ops.S, ns)
    traces_mf = _odd_power_traces(fd.M_F, fd.S_F, ns)
    traces_my = _odd_power_traces(fd.M_Y, fd.S_Y, ns)
    trace_mf = fd.M_F.trace()
    trace_pf = fd.P_F.trace()
    trace_qf = fd.Q_F.trace()

    codim_raw, codim_mirror_raw = _mixed_image_dims(fd)
    gap = fd.F.dim - codim_raw
    gap_mirror = fd.F.dim - codim_mirror_raw

    verdicts: dict[str, bool] = {}
    verdicts["trace_split"] = all(
        _close(pair, traces[n], traces_mf[n] + traces_my[n]) for n in ns
    )
    verdicts["trace_y_zero"] = all(_close(pair, traces_my[n], 0) for n in ns)
    verdicts["trace_f_constant"] = all(
        _close(pair, traces_mf[n], trace_mf) for n in ns
    )
    verdicts["trace_f_rank_gap"] = _close(pair, trace_mf, trace_pf - trace_qf)
    verdicts["counting_identity"] = _close(
        pair, trace_pf - trace_qf, gap - dims["e01"]
    )
    verdicts["dual_identification"] = gap == dims["et10"]
    verdicts["counting_identity_mirror"] = _close(
        pair, trace_pf - trace_qf, dims["e10"] - gap_mirror
    )
    verdicts["dual_identification_mirror"] = gap_mirror == dims["et01"]
    verdicts["index_formula_dual10"] = all(
        _close(pair, traces[n], dims["et10"] - dims["e01"]) for n in ns
    )
    verdicts["index_formula_e10"] = all(
        _close(pair, traces[n], dims["e10"] - dims["et01"]) for n in ns
    )
    verdicts["integer_trace"] = all(_is_integer(pair, traces[n]) for n in ns)
    verdicts["balance"] = (
        dims["e10"] - dims["et01"] == dims["et10"] - dims["e01"]
    )

    return IndexReport(
        dim=pair.dim,
        field=pair.field,
        odd_ns=ns,
        traces=traces,
        trace_MF=trace_mf,
        traces_MF=traces_mf,
        traces_MY=traces_my,
        dims=dims,
        fitting_k=fd.k,
        dim_F=fd.F.dim,
        dim_Y=fd.Y.dim,
        index=dims["e10"] - dims["et01"],
        intermediates={
            "dim_mixed_image": codim_raw,
            "dim_mixed_image_mirror": codim_mirror_raw,
            "gap": gap,
            "gap_mirror": gap_mirror,
        },
        verdicts=verdicts,
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of M with the negation pairing made explicit.

    Indices refer to positions in ``eigenvalues``.  Values within tol of
    -1, 0, or 1 are excluded before pairing: those eigenvalues carry the
    index and have no reason to appear in symmetric pairs.
    """

    eigenvalues: tuple[complex, ...]
    excluded: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    unmatched: tuple[int, ...]
    tol: float

    @property
    def all_paired(self) -> bool:
        return not self.unmatched


def spectrum_symmetry_check(pair: ProjectionPair, tol: float | None = None) -> SpectrumReport:
    """Match eigenvalues of M = P - Q with their negatives.

    Float pairs only; the eigenvalues come from a numeric solver.  The
    trace identity forces tr M^n to agree for every odd n, which in turn
    forces the spectrum outside {-1, 0, 1} to be symmetric under
    negation, so on a well-formed pair everything should pair up.
    """
    if pair.field != FLOAT:
        raise FieldMismatch("spectrum check needs a float pair; convert first")
    # an explicit tol is held to the policy's rule: finite and strictly positive
    tol = pair.pol.compare_abs_tol if tol is None else TolerancePolicy(tol).compare_abs_tol
    try:
        values = np.linalg.eigvals(derived_ops(pair).M.to_numpy())
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigenvalue computation failed: {exc}") from exc
    eigenvalues = tuple(complex(v) for v in values)

    excluded = []
    candidates = []
    for i, lam in enumerate(eigenvalues):
        if min(abs(lam - t) for t in (-1.0, 0.0, 1.0)) <= tol:
            excluded.append(i)
        else:
            candidates.append(i)

    # Greedy matching in a deterministic order; adequate because genuine
    # mirror pairs sit far closer than tol to each other than to anything
    # else in a spectrum that satisfies the trace identity.
    candidates.sort(key=lambda i: (eigenvalues[i].real, eigenvalues[i].imag))
    pairs = []
    unmatched = []
    remaining = list(candidates)
    while remaining:
        i = remaining.pop(0)
        best_j = None
        best_gap = None
        for j in remaining:
            gap = abs(eigenvalues[i] + eigenvalues[j])
            if best_gap is None or gap < best_gap:
                best_gap = gap
                best_j = j
        if best_j is not None and best_gap <= tol:
            remaining.remove(best_j)
            pairs.append((i, best_j))
        else:
            unmatched.append(i)

    return SpectrumReport(
        eigenvalues=eigenvalues,
        excluded=tuple(excluded),
        pairs=tuple(pairs),
        unmatched=tuple(unmatched),
        tol=float(tol),
    )
