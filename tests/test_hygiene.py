"""Source hygiene: no module imports a name it never uses, no private
module-level name goes unread, only the CLI imports inside functions, and
only the listed module-level containers grow with use.

The first three are a stdlib `ast` scan over the package, so they run
wherever the tests run.  The import check skips `__init__.py`, which
imports names to re-export them.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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


#: (module, name) of every module-level container that grows with use, and
#: the bound on its size
GROWING = {
    # weak: an entry dies with its set
    ("core", "_INTERN"),
    ("core", "_INTERN_REFS"),  # _INTERN's dict of weak refs
    ("core", "_DECODE"),
    ("core", "_DECODE_REFS"),  # _DECODE's dict of weak refs
    # <= 6 each, V_0..V_5 and their orderings: V_6 has 2^65536 members
    ("core", "_LEVELS"),
    ("order", "_ACK_ORDERS"),
    # unbounded, ROADMAP B
    ("core", "_VN_CHAIN"),
    ("order", "_MEMBER_CMP"),
    ("order", "_ENUM_EXT"),
    # <= 2 x the largest literal_cutoff pairs
    ("arith", "_TAGGED_READ"),
}

# every corpus line and its single-map images on the four mode x solver
# routes, then literal additions up to the cutoff and one literal
# exponentiation past the materialized ordering; prints the (module,
# name) of each module-level container whose length changed
_INVENTORY = """
import importlib, json, pkgutil, weakref
import hfinterp
modules = [hfinterp] + [importlib.import_module(f"hfinterp.{m.name}")
                        for m in pkgutil.iter_modules(hfinterp.__path__)]
kinds = (dict, list, set, weakref.WeakValueDictionary,
         weakref.WeakKeyDictionary, weakref.WeakSet)

def sizes():
    return {(m.__name__.rpartition(".")[2], name): len(v)
            for m in modules for name, v in vars(m).items()
            if isinstance(v, kinds)}

before = sizes()
from hfinterp.arith import LITERAL, add_a, exp_a
from hfinterp.core import decode
from hfinterp.errors import LanguageMismatch
from hfinterp.evaluate import EvalContext, eval_arith, eval_set
from hfinterp.formulas import free_vars
from hfinterp.interp import MAPS
from hfinterp.parser import parse_arith, parse_set
from hfinterp.verify import load_annotated_corpus

contexts = [EvalContext(nat_cutoff=8, set_cutoff=8, enum_budget=1 << 12,
                        mode=mode, solver=solver)
            for mode in ("fast", "literal") for solver in (True, False)]
for corpus in ("arith.txt", "set.txt", "opei.txt", "separation.txt"):
    lang = "arith" if corpus == "arith.txt" else "set"
    for _, text in load_annotated_corpus(corpus):
        f = (parse_arith if lang == "arith" else parse_set)(text)
        todo = [(lang, f)]
        for m in MAPS.values():
            if m.source == lang:
                try:
                    todo.append((m.target, m(f)))
                except LanguageMismatch:
                    pass
        for lang_g, g in todo:
            evaluate = eval_arith if lang_g == "arith" else eval_set
            for c in (0, 5):
                env = {n: c if lang_g == "arith" else decode(c)
                       for n in free_vars(g)}
                for ctx in contexts:
                    try:
                        evaluate(g, env, ctx)
                    except Exception:
                        pass
for i in range(0, 65, 4):
    for j in range(0, 65, 8):
        add_a(decode(i), decode(j), LITERAL)
exp_a(decode(5), decode(7), LITERAL)
after = sizes()
print(json.dumps(sorted(k for k in after if after[k] != before.get(k))))
"""


def test_only_the_listed_module_level_containers_grow():
    # a fresh interpreter, so no earlier test has filled a container yet
    p = subprocess.run([sys.executable, "-c", _INVENTORY],
                       capture_output=True, text=True, timeout=300,
                       env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert p.returncode == 0, p.stderr
    grown = {tuple(k) for k in json.loads(p.stdout.splitlines()[-1])}
    assert grown == GROWING, (
        f"unlisted: {sorted(grown - GROWING)}, "
        f"listed but unchanged: {sorted(GROWING - grown)}")
