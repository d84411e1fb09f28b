"""Source hygiene: every name a module imports is used in that module,
no module imports another's private names, only linalg knows the size
rule of the exact eliminations, numpy.linalg is called only for the SVD,
the spectrum and orthonormal frames, every attribute the benchmark
tracer patches and every name the CI workflow's Python reads exists, and
the package exports exactly what its modules export."""

import ast
import importlib
import importlib.util
import re
import textwrap
from pathlib import Path
from types import ModuleType

import pytest
from test_cli import fresh

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "projpair"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module, bound: bool = True) -> dict[str, int]:
    """Names bound by import statements, with their line numbers; with
    ``bound=False`` the names imported instead (``from m import a as b``
    imports ``a``).

    ``from __future__`` imports are directives, not bindings, and are
    skipped.
    """
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.partition(".")[0]
                names[alias.asname if bound and alias.asname else name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname if bound and alias.asname else alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, in quoted annotations, or listed in a literal
    list assigned to __all__ (a computed one is read as an expression)."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        (name, line) for name, line in imported_names(tree).items() if name not in used
    )


def test_modules_found():
    assert SRC / "linalg.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def knows_size_rule(name: str) -> bool:
    """Whether a name belongs to linalg's choice between the multi-modular
    and the Bareiss elimination: the rule, its constant, the supply of
    primes and the eliminations."""
    rule = {"uses_primes", "_uses_primes", "MODULAR_MIN_DIM", "_prime", "_PRIMES", "_strong_probable_prime"}
    return name in rule or name.startswith(("_rref_", "_bareiss_"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "linalg"], ids=lambda p: p.name)
def test_size_rule_stays_in_linalg(path):
    """Callers take exact ranks and bases; which elimination answers is
    linalg's business alone."""
    names = imported_names(ast.parse(path.read_text(encoding="utf-8")), bound=False)
    assert sorted(name for name in names if knows_size_rule(name)) == []


def private_imports(source: str) -> list[tuple[str, int]]:
    """Underscore names imported from a projpair module (relative or
    absolute), with their line numbers."""
    return sorted(
        (alias.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("projpair"))
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    """A module takes only public names from the others, so kernels such
    as ``_rref_layers`` stay the business of the module that defines them."""
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_checker():
    source = (
        "from __future__ import annotations\n"
        "from .linalg import Matrix, _rref_mod\n"
        "from projpair.scalars import _RATIONAL_RE\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [("_RATIONAL_RE", 3), ("_rref_mod", 2)]


def test_checker_flags_unused_and_spares_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Sequence, Iterable\n"
        "from .a import Exported, Quoted, Computed\n"
        "__all__ = ['Exported']\n"
        "__all__ = list(Computed)\n"
        "def f(x: 'Quoted') -> Sequence:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [("Iterable", 4), ("j", 3)]


# The numpy.linalg routines the package may call: the SVD behind the one
# float rank rule, the spectrum and orthonormal frames, and the error.
NUMPY_LINALG_ALLOWED = {"svd", "eigvals", "qr", "LinAlgError"}


def numpy_linalg_uses(source: str) -> list[tuple[str, int]]:
    """Each use of numpy.linalg as ``np.linalg.X``, ``numpy.linalg.X``
    or a ``from numpy.linalg import X``, with its line; a bare
    ``np.linalg`` is reported as ``linalg``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            uses += [(alias.name, node.lineno) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            parent = parents.get(node)
            uses.append((parent.attr if isinstance(parent, ast.Attribute) else "linalg", node.lineno))
    return sorted(uses)


def test_numpy_linalg_checker():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import inv\n"
        "u, s, vh = np.linalg.svd(a)\n"
        "x = numpy.linalg.solve(a, b)\n"
        "la = np.linalg\n"
    )
    assert numpy_linalg_uses(source) == [("inv", 2), ("linalg", 5), ("solve", 4), ("svd", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_linalg_only_through_the_rank_rule(path):
    """Float decisions go through one SVD rule, so no module calls a
    routine with a rank or singularity test of its own (``inv``,
    ``solve``, ``pinv``, ``lstsq``, ``det``, ``matrix_rank``)."""
    uses = numpy_linalg_uses(path.read_text(encoding="utf-8"))
    assert [(name, line) for name, line in uses if name not in NUMPY_LINALG_ALLOWED] == []


def bench_spans() -> ModuleType:
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def tracer_patches(spans: ModuleType) -> list[tuple[str, object, str]]:
    """(owner name, owner, attribute) of each of the tracer's LAYER_PATCHES."""
    patches = []
    for owner_name, attr, _ in spans.LAYER_PATCHES:
        mod_name, _, cls_name = owner_name.partition(".")
        owner = importlib.import_module(f"projpair.{mod_name}")
        patches.append((owner_name, getattr(owner, cls_name) if cls_name else owner, attr))
    return patches


def test_tracer_patches_resolve():
    """bench/spans.py wraps (module, attribute) pairs by name; a refactor
    that drops one would otherwise break only ``bench/run.py --trace 1``."""
    patches = tracer_patches(bench_spans())
    assert patches
    for owner_name, owner, attr in patches:
        assert callable(getattr(owner, attr, None)), f"{owner_name}.{attr}"


def test_tracer_reads_a_traced_report_and_restores_every_patch():
    """The tracer reads more than the names it patches: its Fitting
    observer reads the split's Y basis and blocks and a rational
    ``Matrix.data``.  One traced report on a rational pair at the size
    rule and one on a float pair fill both counters, raise nothing, and
    uninstalling puts back every patched attribute."""
    import projpair
    from projpair.generators import gen_pair_oblique_rational, gen_pair_orthogonal

    spans = bench_spans()
    originals = [(name, owner, attr, getattr(owner, attr)) for name, owner, attr in tracer_patches(spans)]
    pairs = (gen_pair_oblique_rational(12, 5, 7, seed=3), gen_pair_orthogonal(8, 3, 4, seed=3))
    tracer = spans.Tracer()
    tracer.install(projpair)
    try:
        for pair in pairs:
            projpair.index.index_report(pair, (1, 3))
    finally:
        tracer.uninstall()
    assert tracer.counters["fitting.k_max"] >= 1 and tracer.counters["linalg.max_entry_bits"] > 0
    reports = [s for s in tracer.spans if s[3] == "index.index_report"]
    assert len(reports) == 2 and not any(s[6] for s in tracer.spans)
    assert [f"{name}.{attr}" for name, owner, attr, fn in originals if getattr(owner, attr) is not fn] == []


@pytest.mark.parametrize(
    "name", ["projpair"] + [f"projpair.{p.stem}" for p in MODULES if p.stem != "__init__"]
)
def test_all_names_resolve(name):
    """Every name the package or a module lists in __all__ exists there,
    so removing a public name cannot leave a stale export behind."""
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_names_are_module_exports():
    """Each name the package resolves is exported by its defining module:
    listed in that module's __all__, or public where it has none."""
    import projpair

    stray = []
    for name, source in projpair._SOURCE.items():
        module = importlib.import_module(f"projpair.{source}")
        exported = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        if name not in exported:
            stray.append((source, name))
    assert stray == []


def test_star_import_binds_exactly_all():
    """In a fresh interpreter ``from projpair import *`` binds every name
    of ``projpair.__all__`` and no other, each the defining module's object."""
    extra, missing, foreign = fresh(
        "import importlib, json\n"
        "ns = {}\n"
        "exec('from projpair import *', ns)\n"
        "import projpair as pp\n"
        "names = set(ns) - {'__builtins__'}\n"
        "foreign = [n for n in pp.__all__ if n in ns and ns[n] is not\n"
        "           getattr(importlib.import_module('projpair.' + pp._SOURCE[n]), n)]\n"
        "print(json.dumps([sorted(names - set(pp.__all__)), sorted(set(pp.__all__) - names), foreign]))"
    )
    assert (extra, missing, foreign) == ([], [], [])


def test_modules_parse_with_the_python_3_10_grammar():
    """pyproject.toml declares requires-python >= 3.10, so every module of
    the package, the tests and the benchmark parses with the 3.10 grammar;
    ``except*``, new in 3.11, would not."""
    paths = sorted(p for folder in (SRC, ROOT / "tests", ROOT / "bench") for p in folder.rglob("*.py"))
    assert SRC / "linalg.py" in paths and ROOT / "bench" / "run.py" in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def workflow_python() -> list[str]:
    """The Python the CI workflow runs of its own: each ``python3 -
    <<'EOF'`` block and each ``name='import ...'`` snippet, taken out of
    the YAML block it sits in."""
    text = (ROOT / ".github" / "workflows" / "test.yml").read_text(encoding="utf-8")
    blocks = [textwrap.dedent(b) for b in re.findall(r"<<'EOF'\n(.*?)^ *EOF$", text, re.S | re.M)]
    # a snippet's first line follows the quote; the rest carry the YAML indent
    snippets = [b.replace("\n" + indent, "\n") for indent, b in re.findall(r"^( *)\w+='(import [^']*)'", text, re.M)]
    assert blocks and snippets
    return blocks + snippets


def test_workflow_python_parses_with_the_python_3_10_grammar():
    """The CI workflow runs its own Python under 3.10 too, so each block
    and snippet of it parses with the 3.10 grammar."""
    for source in workflow_python():
        ast.parse(source, feature_version=(3, 10))


def test_workflow_python_names_resolve():
    """Each name the workflow's Python imports, and each attribute it
    reads off an imported module, exists: the d = 96 step wraps
    ``linalg._rref_bareiss`` by name, so a rename would otherwise break
    only CI.  The workflow's blocks run with src and tests on the path."""
    resolved, missing = set(), []

    def check(name, found):
        (resolved.add if found else missing.append)(name)

    for source in workflow_python():
        tree = ast.parse(source)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom):
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    # a name of a module, or a submodule of a package
                    value = getattr(owner, alias.name, None)
                    if isinstance(value, ModuleType):
                        modules[alias.asname or alias.name] = value
                    check(f"{node.module}.{alias.name}", value is not None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                check(f"{node.value.id}.{node.attr}", hasattr(modules[node.value.id], node.attr))
    assert missing == []
    assert {
        "linalg._rref_bareiss",
        "linalg._uses_primes",
        "test_fitting.direct_sum",
        "test_fitting.jordan_pair",
        "projpair.index_report",
    } <= resolved


def test_test_linalg_runs_no_modular_elimination_when_imported():
    """Importing tests/test_linalg.py eliminates no matrix at the size
    rule, so a fault in the multi-modular path fails the tests that reach
    it instead of hanging the collection of the whole module."""
    assert fresh(
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from projpair import linalg\n"
        "def refuse(m):\n"
        "    raise AssertionError(f'_rref_modular of a {m.rows}x{m.cols} matrix at import')\n"
        "linalg._rref_modular = refuse\n"
        "import test_linalg\n"
        "print('true')",
        str(ROOT / "tests"),
    )
