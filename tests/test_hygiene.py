"""Source hygiene of the package, checked with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "mbhalf").glob("*.py"))


def _unused_imports(tree):
    """Names bound by an import (``from __future__`` excepted) that the
    module never reads; a name listed in ``__all__`` counts as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_sources_found():
    assert len(SRC) >= 8


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, ", ".join("%s:%d %s" % (path.name, line, name)
                                 for line, name in unused)


def test_unused_import_detector():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from typing import Callable, Sequence\n"
                     "__all__ = ['Callable']\n"
                     "def f():\n"
                     "    from math import gamma\n"
                     "    return np.zeros(1)\n")
    assert _unused_imports(tree) == [(2, "os"), (4, "Sequence"), (7, "gamma")]
