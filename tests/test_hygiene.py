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


def unread_constants(config_source: str, readers: list) -> list:
    """The upper-case names ``config_source`` assigns that no source in ``readers`` reads as ``config.NAME``."""
    assigned = [
        target.id for node in ast.parse(config_source).body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    ]
    read = {
        node.attr for source in readers for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "config"
    }
    return [name for name in assigned if name not in read]


def test_the_check_finds_an_unread_constant():
    config_source = "# tolerances\nTOL = 1e-12\nCAP: int = 10\nlower = 2\n"
    readers = ["from . import config\nx = config.TOL\n", "from . import config\ndef f():\n    return config.CAP\n"]
    assert unread_constants(config_source, readers) == []
    assert unread_constants(config_source, readers[:1]) == ["CAP"]
    assert unread_constants(config_source + "LEFT_BEHIND = 3\n", readers) == ["LEFT_BEHIND"]


def test_every_config_constant_is_read():
    """A constant whose last reader went is deleted with it."""
    readers = [path.read_text(encoding="utf-8") for path in MODULES if path.name != "config.py"]
    assert unread_constants((PACKAGE / "config.py").read_text(encoding="utf-8"), readers) == []
