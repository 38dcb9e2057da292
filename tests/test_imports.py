"""Every module-level import of the package and of the tests is read.

Each module is parsed with :mod:`ast`; a name that a module-level import
binds must be loaded somewhere in the module, either at module level or
inside a function that does not bind the same name itself, or be listed
in ``__all__``. ``from __future__`` imports bind nothing. Every private
module-level function or class of the package is read by some module of
it, as a name or as an attribute. Importing the command line adds no
module from outside the standard library and numpy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nearcrit").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _imported(tree: ast.Module) -> dict:
    """{name: line} of the names that the module-level imports bind."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _own_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside the functions and classes nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _locals(scope: ast.AST) -> set:
    """Names that a function or lambda binds, so that its loads of them
    do not reach the module."""
    args = scope.args
    bound = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg] if a is not None}
    declared = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
    return bound - declared


def _module_reads(tree: ast.Module) -> set:
    """Names loaded from module level: a load inside a function counts
    unless that function or one around it binds the name."""
    reads = set()

    def visit(scope: ast.AST, shadowed: set) -> None:
        for node in _own_nodes(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in shadowed:
                    reads.add(node.id)
            elif isinstance(node, ast.ClassDef):  # a class body shadows nothing
                visit(node, shadowed)
            elif isinstance(node, _SCOPES):
                visit(node, shadowed | _locals(node))

    visit(tree, set())
    for node in tree.body:  # names re-exported through __all__
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            reads |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return reads


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import that ``source`` never reads."""
    tree = ast.parse(source)
    reads = _module_reads(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_a_name_rebound_inside_a_function_is_not_a_read():
    source = (
        "import os\n"
        "import sys as system\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from os import path as os\n"
        "    return os, system\n"
        "class C:\n"
        "    def g(self, pi):\n"
        "        return pi\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def unread_private_definitions(sources: dict) -> list:
    """(module, name) of each private module-level function or class of
    ``sources`` ({module: source}) that no module of them reads, as a name
    or as an attribute; a mention in a docstring or other string is no
    read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return sorted((module, node.name) for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in reads)


def test_every_private_definition_of_the_package_is_read():
    assert unread_private_definitions({p.name: p.read_text() for p in PACKAGE}) == []


def test_a_private_definition_named_only_in_a_docstring_is_unread():
    sources = {
        "a": (
            "def _by_name():\n"
            "    \"\"\"Not :func:`_in_docstring`.\"\"\"\n"
            "def _by_attribute():\n"
            "    pass\n"
            "class _InDocstring:\n"
            "    pass\n"
            "def _in_docstring():\n"
            "    return _by_name()\n"
            "def __dunder__():\n"
            "    pass\n"
        ),
        "b": (
            "\"\"\"Uses :class:`a._InDocstring`.\"\"\"\n"
            "import a\n"
            "a._by_attribute()\n"
            "a._in_docstring = None\n"
        ),
    }
    assert unread_private_definitions(sources) == [("a", "_InDocstring"), ("a", "_in_docstring")]


def test_the_command_line_imports_only_the_stdlib_and_numpy():
    # a fresh interpreter that has numpy already: what importing the CLI adds
    probe = (
        "import json, sys, numpy\n"
        "before = set(sys.modules)\n"
        "import nearcrit.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    added = {name.split(".")[0] for name in json.loads(out)}
    assert "nearcrit" in added
    assert added - {"nearcrit", "numpy"} <= sys.stdlib_module_names
