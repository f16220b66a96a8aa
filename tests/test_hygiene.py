"""Source hygiene: every import in the package is used, and ``rsm.__all__`` lists what ``rsm`` binds."""

import ast
import inspect
from pathlib import Path

import pytest

import rsm

PACKAGE = Path(rsm.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``(line, name)`` of every name an import binds that the module never reads, except on ``# noqa: F401`` lines."""
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, List\n"
        "from . import config  # noqa: F401 - kept for callers\n"
        "def f(x: List[int]) -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(3, "Callable")]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_lists_every_public_name_once():
    bound = {name for name, value in vars(rsm).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(rsm.__all__) == len(set(rsm.__all__))
    assert set(rsm.__all__) == bound
