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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
