"""Static checks on the package source, with the stdlib ``ast`` only."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.blas

import spectramap
from spectramap.cli import COMMANDS

SOURCE_DIR = Path(spectramap.__file__).parent
SOURCES = sorted(SOURCE_DIR.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))
# the benchmark harness, its own tests aside
HARNESS = [p for p in sorted((Path(__file__).parent.parent / "benchmark").glob("*.py"))
           if not p.name.startswith("test_")]
# a ``name`` in a docstring: an identifier, or a dotted run of them
REFERENCE = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``__future__`` aside) that their scope never
    reads: a function's import its own body, nested functions included
    (reported as ``function:name``), any other the whole module. An
    attribute's root, such as ``sp`` in ``sp.csr_matrix``, counts as a read."""
    found = set()

    def visit(scope, used, prefix):
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                visit(node, body, f"{node.name}:")
                continue
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                bound = []
            found.update(prefix + name for name in bound if name not in used)
            visit(node, used, prefix)

    tree = ast.parse(source)
    visit(tree, {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}, "")
    return sorted(found)


def unread_locals(source: str) -> list[str]:
    """``function:name`` for each name a function assigns (``_`` aside) that
    neither it nor a function nested in it ever reads. Parameters and
    ``global``/``nonlocal`` names are not locals; ``x += 1`` assigns x
    without reading it for any later use."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        outer = {n for node in ast.walk(fn) if isinstance(node, (ast.Global, ast.Nonlocal))
                 for n in node.names}
        stored, read = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
        found += [f"{fn.name}:{n}" for n in sorted(stored - read - outer - {"_"})]
    return found


def unreferenced_private_names(source: str) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and constants (dunder
    names aside) that the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(n for n in defined
                  if n.startswith("_") and not n.startswith("__") and n not in used)


def defined_names(source: str) -> set[str]:
    """Every function, class, parameter, assigned name and assigned
    attribute that the source defines."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def unresolved_references(source: str, known: set[str]) -> list[str]:
    """Each ``name`` in the source's docstrings that is not in ``known``. A
    dotted reference resolves by its last component; one rooted at np,
    numpy, scipy or sp is skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for ref in REFERENCE.findall(ast.get_docstring(node) or ""):
                parts = ref.split(".")
                if parts[0] not in ("np", "numpy", "scipy", "sp") and parts[-1] not in known:
                    found.append(ref)
    return found


def duplicate_definitions(source: str) -> list[str]:
    """``scope:name`` for each function or class name that a module or class
    body defines twice or more; the last definition shadows the others."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.Module, ast.ClassDef)):
            names = [node.name for node in scope.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
            found += [f"{getattr(scope, 'name', '<module>')}:{name}"
                      for name in sorted({n for n in names if names.count(n) > 1})]
    return found


def public_definitions(source: str) -> list[str]:
    """Module-level functions and classes whose names do not start with
    ``_``, and the methods of those classes whose names do not."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [m.name for m in node.body
                          if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not m.name.startswith("_")]
    return found


def read_names(source: str) -> set[str]:
    """Every name the source loads and every attribute it reads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def stage_error_names(source: str, classes: set[str]) -> list[str]:
    """Each name in ``classes`` that an argument of a ``_stage(...)`` call,
    positional or keyword, names."""
    return [node.id for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "_stage"
            for arg in [*call.args, *(k.value for k in call.keywords)]
            for node in ast.walk(arg)
            if isinstance(node, ast.Name) and node.id in classes]


def imports_module(source: str, module: str) -> bool:
    """Whether the source imports ``module`` or one of its submodules, by
    ``import`` or by ``from … import``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == module or n.startswith(module + ".") for n in names):
            return True
    return False


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .spectra import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["b", "os"]


def test_finds_an_unused_function_import():
    """A function's import counts as read only in that function's body, so a
    module-level name or another function's local of the same name hides
    nothing."""
    source = ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
              "    import scipy.sparse as sp\n"
              "def f(x) -> sp.csr_matrix:\n    import scipy.sparse as sp\n    return x\n"
              "def g(n):\n    from math import sqrt, pi\n    def h():\n"
              "        return sqrt(n)\n    return h\n"
              "def k(sp):\n    import os\n    return sp.eye(2)\n")
    assert unused_imports(source) == ["f:sp", "g:pi", "k:os"]


def test_finds_an_unread_local():
    source = ("def f(V, Y):\n    n = V.n\n    w, s = V.edges(Y)\n    k = 0\n    k += 1\n"
              "    for _ in Y:\n        pass\n    def g():\n        return s\n    return g\n")
    assert unread_locals(source) == ["f:k", "f:n", "f:w"]


def test_finds_an_unreferenced_private_name():
    source = ("_USED = 1\n_UNUSED = 2\n__all__ = []\nclass _Gone:\n    pass\n"
              "def _helper():\n    return _USED\ndef public():\n    return _helper()\n")
    assert unreferenced_private_names(source) == ["_Gone", "_UNUSED"]


def test_finds_an_unresolved_reference():
    source = ('"""Reads ``f``, ``np.gone``, ``V.size``, ``gone`` and ``f(x)``."""\n'
              'def f(V):\n    """Takes ``V`` and ``missing.attr``."""\n    V.size = 1\n')
    assert defined_names(source) == {"f", "V", "size"}
    assert unresolved_references(source, defined_names(source)) == ["gone", "missing.attr"]


def test_finds_an_unread_public_name():
    source = ("def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n"
              "class C:\n    def run(self):\n        return used()\n    def idle(self):\n"
              "        pass\n    def _hidden(self):\n        pass\nclass _P:\n"
              "    def shown(self):\n        pass\nC().run()\nC\n")
    assert public_definitions(source) == ["used", "unused", "C", "run", "idle"]
    assert [n for n in public_definitions(source) if n not in read_names(source)] == [
        "unused", "idle"]


def test_finds_a_duplicate_definition():
    source = ("def f():\n    pass\nclass C:\n    def g(self):\n        pass\n"
              "    def g(self):\n        pass\n    def h(self):\n        def f():\n"
              "            pass\ndef f():\n    pass\nclass D:\n    pass\n")
    assert duplicate_definitions(source) == ["<module>:f", "C:g"]


def test_finds_a_stage_that_names_an_error():
    source = ("with _stage('a', (ParseError, OSError)):\n    pass\n"
              "with _stage('b', NAMED_ERRORS + (KernelFitError,)):\n    pass\n"
              "with _stage('c', kinds=(ParseError,)):\n    pass\n"
              "with _stage('d'):\n    raise ParseError\n")
    assert sorted(stage_error_names(source, {"ParseError", "KernelFitError"})) == [
        "KernelFitError", "ParseError", "ParseError"]


def test_no_stage_names_a_package_error():
    """A CLI stage reports ``errors.NAMED_ERRORS`` whole, so a new error class
    needs no edit to the CLI."""
    errors = ast.parse(SOURCE_DIR.joinpath("errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert classes
    cli = SOURCE_DIR.joinpath("cli.py").read_text(encoding="utf-8")
    assert "_stage(" in cli and stage_error_names(cli, classes) == []


def test_finds_a_json_import():
    assert imports_module("import os, json as j\n", "json")
    assert imports_module("def f():\n    from json import dumps\n", "json")
    assert imports_module("import json.decoder\n", "json")
    assert not imports_module("import jsonschema\nfrom . import json\nx = 'import json'\n",
                              "json")


def test_only_the_cli_imports_json():
    """``cli`` alone turns results into JSON, so one rule decides how every
    output file writes a non-finite float."""
    assert [p.name for p in SOURCES
            if imports_module(p.read_text(encoding="utf-8"), "json")] == ["cli.py"]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_duplicate_definition(path):
    assert duplicate_definitions(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_local(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    assert unreferenced_private_names(path.read_text(encoding="utf-8")) == []


# names a docstring may point at: the package's own, a command, or numpy's
# and BLAS's, as in ``take`` and ``dgemm``
KNOWN_NAMES = (
    set().union(*(defined_names(p.read_text(encoding="utf-8")) for p in SOURCES))
    | {p.stem for p in SOURCES} | {"spectramap"} | set(COMMANDS)
    | set(dir(np)) | set(dir(np.ndarray)) | set(dir(scipy.linalg.blas))
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_references_resolve(path):
    assert unresolved_references(path.read_text(encoding="utf-8"), KNOWN_NAMES) == []


# the tests' reference implementations, which no package code needs
TEST_REFERENCES = {"phi", "log_one_minus_phi"}
# an ``__init__`` re-export is not a read
READ_NAMES = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in MODULES + HARNESS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_is_read(path):
    public = public_definitions(path.read_text(encoding="utf-8"))
    assert [n for n in public if n not in READ_NAMES | TEST_REFERENCES] == []
