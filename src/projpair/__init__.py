"""Exact and numeric verification of trace and index identities for pairs
of projection matrices.

The package works over two scalar fields: exact rationals (the oracle)
and binary64 floats (for scale and spectral checks).  In finite
dimensions every operator is trace-class and the trace is the plain sum
of diagonal entries, so all infinite-dimensional trace machinery reduces
to ordinary matrix algebra; the library leans on that reduction
throughout.
"""

import importlib

# Each public name and the module that defines it.  A name is imported on
# first access (PEP 562), so ``import projpair`` loads no submodule, and a
# run loads numpy, the generators and the symbolic engine only if it uses them.
_SOURCE = {
    **dict.fromkeys(("RATIONAL", "FLOAT", "TolerancePolicy", "DEFAULT_POLICY"), "scalars"),
    **dict.fromkeys(
        ("Matrix", "Subspace", "rank", "kernel_basis", "subspace_sum",
         "subspace_intersection", "restrict_operator"),
        "linalg",
    ),
    **dict.fromkeys(
        ("ProjectionPair", "DerivedOps", "CentralizerElement", "make_pair", "derived_ops",
         "check_lemma1", "check_lemma2", "check_lemma3", "commutator_witness",
         "to_float_pair"),
        "pairs",
    ),
    **dict.fromkeys(
        ("NCPoly", "parse_expr", "expand", "verify_identity", "lemma_suite"), "symbolic"
    ),
    **dict.fromkeys(
        ("FittingDecomposition", "fitting_decomposition", "verify_fitting"), "fitting"
    ),
    **dict.fromkeys(
        ("EigenspaceSet", "IndexReport", "compute_eigenspaces", "eigenspace_dims",
         "trace_power", "index_report", "spectrum_symmetry_check"),
        "index",
    ),
    **dict.fromkeys(
        ("PrescribedSpec", "PythagoreanBlock", "ShearBlock", "gen_pair_orthogonal",
         "gen_pair_oblique_rational", "gen_prescribed", "expected_dimensions",
         "random_unimodular", "mix_seed"),
        "generators",
    ),
    **dict.fromkeys(("load_pair", "loads_pair", "save_pair", "dumps_pair"), "pairfile"),
    "ProjpairError": "errors",
}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    """Import a public name, or a submodule such as ``projpair.pairs``, on
    first access."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SOURCE.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
