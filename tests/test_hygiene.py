"""Source hygiene: every name a module imports is used in that module,
only linalg knows the size rule of the exact eliminations, every
attribute the benchmark tracer patches exists, and the package exports
exactly what its modules export."""

import ast
import importlib
import importlib.util
from pathlib import Path

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


def test_tracer_patches_resolve():
    """bench/spans.py wraps (module, attribute) pairs by name; a refactor
    that drops one would otherwise break only ``bench/run.py --trace 1``."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_PATCHES
    for owner_name, attr, _ in spans.LAYER_PATCHES:
        mod_name, _, cls_name = owner_name.partition(".")
        owner = importlib.import_module(f"projpair.{mod_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), f"{owner_name}.{attr}"


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
