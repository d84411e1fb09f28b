"""Exact and numeric verification of trace and index identities for pairs
of projection matrices.

The package works over two scalar fields: exact rationals (the oracle)
and binary64 floats (for scale and spectral checks).  In finite
dimensions every operator is trace-class and the trace is the plain sum
of diagonal entries, so all infinite-dimensional trace machinery reduces
to ordinary matrix algebra; the library leans on that reduction
throughout.
"""

from .scalars import RATIONAL, FLOAT, TolerancePolicy, DEFAULT_POLICY
from .linalg import (
    Matrix,
    Subspace,
    rank,
    kernel_basis,
    subspace_sum,
    subspace_intersection,
    restrict_operator,
    trace,
)
from .pairs import (
    ProjectionPair,
    DerivedOps,
    CentralizerElement,
    make_pair,
    derived_ops,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    commutator_witness,
    to_float_pair,
)
from .symbolic import NCPoly, parse_expr, expand, verify_identity, lemma_suite
from .fitting import FittingDecomposition, fitting_decomposition, verify_fitting
from .index import (
    EigenspaceSet,
    IndexReport,
    eigenspace,
    dual_eigenspace,
    compute_eigenspaces,
    eigenspace_dims,
    trace_power,
    index_report,
    spectrum_symmetry_check,
)
from .generators import (
    PrescribedSpec,
    PythagoreanBlock,
    ShearBlock,
    gen_pair_orthogonal,
    gen_pair_oblique_rational,
    gen_prescribed,
    expected_dimensions,
    random_unimodular,
    mix_seed,
)
from .pairfile import load_pair, loads_pair, save_pair, dumps_pair
from .errors import ProjpairError

__version__ = "0.1.0"

__all__ = [
    "RATIONAL",
    "FLOAT",
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "Matrix",
    "Subspace",
    "rank",
    "kernel_basis",
    "subspace_sum",
    "subspace_intersection",
    "restrict_operator",
    "trace",
    "ProjectionPair",
    "DerivedOps",
    "CentralizerElement",
    "make_pair",
    "derived_ops",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "commutator_witness",
    "to_float_pair",
    "NCPoly",
    "parse_expr",
    "expand",
    "verify_identity",
    "lemma_suite",
    "FittingDecomposition",
    "fitting_decomposition",
    "verify_fitting",
    "EigenspaceSet",
    "IndexReport",
    "eigenspace",
    "dual_eigenspace",
    "compute_eigenspaces",
    "eigenspace_dims",
    "trace_power",
    "index_report",
    "spectrum_symmetry_check",
    "PrescribedSpec",
    "PythagoreanBlock",
    "ShearBlock",
    "gen_pair_orthogonal",
    "gen_pair_oblique_rational",
    "gen_prescribed",
    "expected_dimensions",
    "random_unimodular",
    "mix_seed",
    "load_pair",
    "loads_pair",
    "save_pair",
    "dumps_pair",
    "ProjpairError",
]
