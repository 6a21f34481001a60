"""The public surface is what runs.

Every public module-level function and class of the package must be used
by the package itself, outside its own definition and ``__init__.py``, or be
called by the benchmark's workloads (``perfbench/workloads.py``, only read).
A name that only tests, ``__init__``'s exports or the tracer's name tables
reach is dead code, unless it is a known exception below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "audiozoom"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

_TRACER_ONLY = "only perfbench's tracer names it, so deleting it changes the benchmark"

# module.name -> why nothing in the package uses it yet
KNOWN_UNUSED = {
    "gjbf.mean_sinr_db": _TRACER_ONLY,
    "metrics.shadow_gain_decompose": _TRACER_ONLY,
    "simulate.fractional_delay": _TRACER_ONLY,
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _loaded_names(tree: ast.AST) -> set:
    """Names and attribute names that tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _called_names(tree: ast.AST) -> set:
    calls = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    return {getattr(func, "id", None) or getattr(func, "attr", None) for func in calls}


def _unused_public_names() -> set:
    modules = {path.stem: _parse(path) for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    # Each top-level statement of the package, with the names it reads.
    reads = [(stmt, _loaded_names(stmt)) for tree in modules.values() for stmt in tree.body]
    called_by_workloads = _called_names(_parse(WORKLOADS))
    unused = set()
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in called_by_workloads:
                continue
            if not any(node.name in names for stmt, names in reads if stmt is not node):
                unused.add(f"{module}.{node.name}")
    return unused


def test_every_public_name_is_used_by_the_package_or_the_workloads():
    unused = _unused_public_names()
    assert unused - KNOWN_UNUSED.keys() == set()  # dead code, or a missing exception
    assert KNOWN_UNUSED.keys() - unused == set()  # an exception that is used or gone now
