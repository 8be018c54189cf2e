"""Static checks on the package source, with the stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

import spectramap

MODULES = sorted(p for p in Path(spectramap.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``__future__`` aside) that the module never
    reads; an attribute's root, such as ``sp`` in ``sp.csr_matrix``, counts
    as a read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used)


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .spectra import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["b", "os"]


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


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .spectra import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["b", "os"]


def test_finds_an_unread_local():
    source = ("def f(V, Y):\n    n = V.n\n    w, s = V.edges(Y)\n    k = 0\n    k += 1\n"
              "    for _ in Y:\n        pass\n    def g():\n        return s\n    return g\n")
    assert unread_locals(source) == ["f:k", "f:n", "f:w"]


def test_finds_an_unreferenced_private_name():
    source = ("_USED = 1\n_UNUSED = 2\n__all__ = []\nclass _Gone:\n    pass\n"
              "def _helper():\n    return _USED\ndef public():\n    return _helper()\n")
    assert unreferenced_private_names(source) == ["_Gone", "_UNUSED"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_local(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    assert unreferenced_private_names(path.read_text(encoding="utf-8")) == []
