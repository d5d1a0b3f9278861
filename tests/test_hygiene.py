"""Source hygiene: no module imports a name it never uses, no private
module-level name goes unread, and only the CLI imports inside functions.

A stdlib `ast` scan over the package, so it runs wherever the tests run.
The import check skips `__init__.py`, which imports names to re-export
them.
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


def _annotations(tree: ast.AST) -> "list[ast.expr]":
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        elif isinstance(node, ast.arg):
            found.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return [a for a in found if a is not None]


def _with_annotations(node: ast.AST) -> "list[ast.AST]":
    """The node and the string annotations inside it, parsed: postponed
    annotations are strings, and their names count as uses."""
    trees = [node]
    for ann in _annotations(node):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    return trees


def _used(tree: ast.Module) -> "set[str]":
    """Every name the module mentions, string annotations included."""
    return {node.id for t in _with_annotations(tree) for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def _reads(node: ast.AST) -> "set[str]":
    """Every name read inside the node, as a name or as an attribute,
    string annotations included."""
    out = set()
    for t in _with_annotations(node):
        for n in ast.walk(t):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out.add(n.attr)
    return out


def _private_definitions(tree: ast.Module) -> "dict[str, ast.stmt]":
    """Name -> defining statement of every private (underscore-prefixed,
    not a dunder) function, class or assignment target at module level."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_every_private_module_level_name_is_read():
    # a read inside the name's own definition (a recursive call) does not
    # count, so each module-level statement's reads are kept apart
    readers: "dict[str, set[ast.stmt]]" = {}
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            for name in _reads(stmt):
                readers.setdefault(name, set()).add(stmt)
        for name, stmt in _private_definitions(tree).items():
            defined.append((path.name, stmt.lineno, name, stmt))
    dead = [f"{module}:{line} {name}" for module, line, name, stmt in defined
            if not readers.get(name, set()) - {stmt}]
    assert not dead, f"private names that no module reads: {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_level_imports_only_at_the_cli_edge(path):
    # the CLI imports what each command runs, inside its handler; every
    # other module imports at module level, so its dependencies show
    tree = ast.parse(path.read_text(), filename=str(path))
    inner = sorted(node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert path.name == "cli.py" or not inner, \
        f"{path.name} imports inside functions at lines {inner}"
