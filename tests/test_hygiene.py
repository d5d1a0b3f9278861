"""Source hygiene: no module imports a name it never uses.

A stdlib `ast` scan over the package, so it runs wherever the tests run.
`__init__.py` is skipped because it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hfinterp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> "dict[str, int]":
    """Bound name -> line of every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module) -> "list[ast.expr]":
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        elif isinstance(node, ast.arg):
            found.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return [a for a in found if a is not None]


def _used(tree: ast.Module) -> "set[str]":
    """Every name the module reads, string annotations included."""
    trees = [tree]
    for ann in _annotations(tree):
        # postponed annotations are strings; their names count as uses
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"
