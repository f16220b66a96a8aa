"""Source hygiene: every import in the package is used, and ``rsm.__all__`` lists what ``rsm`` binds."""

import ast
import importlib
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


PERFBENCH = PACKAGE.parent.parent / "perfbench"


def perfbench_bindings(source: str) -> set:
    """The dotted rsm names a benchmark source binds: each ``("rsm.<module>", "<attr>", ...)`` string tuple or
    call's first two arguments, and each attribute chain rooted at the name ``rsm``."""
    bound = set()
    for node in ast.walk(ast.parse(source)):
        parts = node.elts if isinstance(node, ast.Tuple) else node.args if isinstance(node, ast.Call) else []
        strings = [part.value for part in parts[:2] if isinstance(part, ast.Constant) and isinstance(part.value, str)]
        if len(strings) == 2 and strings[0].startswith("rsm.") and strings[1].isidentifier():
            bound.add(".".join(strings))
        chain = []
        while isinstance(node, ast.Attribute):
            chain, node = [node.attr] + chain, node.value
        if chain and isinstance(node, ast.Name) and node.id == "rsm":
            bound.add(".".join(["rsm"] + chain))
    return bound


def unresolved(name: str) -> bool:
    """Whether a dotted ``rsm`` name names no attribute or submodule."""
    target, path = rsm, "rsm"
    for part in name.split(".")[1:]:
        path = f"{path}.{part}"
        try:
            target = getattr(target, part) if hasattr(target, part) else importlib.import_module(path)
        except ImportError:
            return True
    return False


def test_the_check_reads_the_benchmarks_bindings():
    source = (
        "import rsm.cli\n"
        'TARGETS = (("rsm.data", "load_csv", "data.load_csv", None), ("rsm", "least_squares", "constant"))\n'
        'LOGGERS = ("rsm.learner", "rsm.evaluation")\n'
        'patched = tracer.patch("rsm.learner", "fit", wrap)\n'
        "code = rsm.cli.main(argv) + rsm.WeightVector.k\n"
    )
    assert perfbench_bindings(source) == {
        "rsm.data.load_csv", "rsm.learner.fit", "rsm.cli.main", "rsm.cli", "rsm.WeightVector.k", "rsm.WeightVector",
    }
    assert [name for name in sorted(perfbench_bindings(source)) if unresolved(name)] == []
    assert unresolved("rsm.data.no_such_name") and unresolved("rsm.no_such_module.fit")


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench directory in this checkout")
def test_every_name_the_benchmark_binds_resolves():
    """A name the benchmark binds is unbound by editing the benchmark, never by deleting it from rsm first."""
    bound = set().union(*(perfbench_bindings(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py")))
    assert {"rsm.data.mine_flip_pairs", "rsm.cli.main", "rsm.learner.fit"} <= bound
    assert sorted(name for name in bound if unresolved(name)) == []


def weight_form_uses(source: str, reexport: bool = False) -> list:
    """The lines of ``source`` that name ``Normalization`` or read ``.normalization``; with ``reexport``, except an
    import of it from ``.topology``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named = any(alias.name == "Normalization" for alias in node.names)
            if named and not (reexport and node.level == 1 and node.module == "topology"):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "Normalization"
              or isinstance(node, ast.Attribute) and node.attr in ("Normalization", "normalization")):
            lines.append(node.lineno)
    return sorted(set(lines))


OUTSIDE_TOPOLOGY = [path for path in MODULES if path.name != "topology.py"] + [PACKAGE / "__init__.py"]


def test_only_topology_knows_the_weight_forms():
    """``WeightVector.as_native`` is the one check of a weight vector's form; every other module goes through it,
    and ``__init__.py`` only re-exports ``Normalization``."""
    source = (
        "from .topology import Normalization, WeightVector\n"
        "import rsm.topology\n"
        "def f(w: WeightVector):\n"
        "    return w.normalization is rsm.topology.Normalization.SUMS_TO_ONE\n"
        'KEY = {"normalization": "sums_to_one"}\n'
    )
    assert weight_form_uses(source) == [1, 4] and weight_form_uses(source, reexport=True) == [4]
    uses = {path.name: weight_form_uses(path.read_text(encoding="utf-8"), reexport=path.name == "__init__.py")
            for path in OUTSIDE_TOPOLOGY}
    assert {name: lines for name, lines in uses.items() if lines} == {}


SPACE_FIELDS = ("stacks", "forms", "forms_v", "sums")


def rank_space_reads(source: str) -> list:
    """The lines of ``source`` that read a ``RankSpace``'s fields: an attribute ``.stacks``, ``.forms``, ``.forms_v``
    or ``.sums``; ``.ranks`` of anything named ``...space``; or a tuple unpacking of a name ``...space``."""
    def spacelike(node):
        return isinstance(node, ast.Name) and node.id.endswith("space") or isinstance(node, ast.Attribute) and node.attr.endswith("space")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (node.attr in SPACE_FIELDS or node.attr == "ranks" and spacelike(node.value)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Assign) and spacelike(node.value) and any(isinstance(t, ast.Tuple) for t in node.targets):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_markov_reads_a_rank_space():
    """Only ``rsm.markov`` knows how a ``RankSpace`` lays out contexts of every width; every other module passes
    spaces whole to its functions and reads item places off the flat outputs."""
    sample = (
        "from .markov import gather\n"
        "def f(batch, space, top):\n"
        "    n = batch.space.stacks[0].shape[2] + top.ranks.size\n"
        "    stacks, forms, forms_v, sums = space\n"
        "    probs, at = gather(space, n)\n"
        "    return batch.space.forms_v, space.ranks.shape\n"
    )
    assert rank_space_reads(sample) == [3, 4, 6]
    uses = {path.name: rank_space_reads(path.read_text(encoding="utf-8"))
            for path in MODULES + [PACKAGE / "__init__.py"] if path.name != "markov.py"}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def unchecked_views(source: str) -> list:
    """The lines of ``source`` that build a ``LogRow`` or ``FlipPair`` around its constructor, ``_unchecked(LogRow,
    ...)`` or ``<anything>.__new__(FlipPair)``, or define an ``_unchecked`` helper."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_unchecked":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
              and node.args[0].id in ("LogRow", "FlipPair")):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in ("_unchecked", "__new__"):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_only_the_record_module_builds_rows_around_the_constructor():
    """Outside the module that defines ``LogRow`` and ``FlipPair``, a row or pair is built by its constructor, which
    checks it, or is a view the record made; no code builds one unchecked, and no module keeps a helper to do so."""
    sample = (
        "from .record import FlipPair, LogRow\n"
        "row = _unchecked(LogRow, 'q', 'c', items, positions, clicks, features)\n"
        "other = object.__new__(LogRow)\n"
        "third = LogRow.__new__(LogRow)\n"
        "fine = LogRow('q', 'c', items, positions, clicks, features)\n"
        "pair = _unchecked(FlipPair, row, other, 'a', 'b', 0.5)\n"
        "blank = object.__new__(FlipPair)\n"
        "good = FlipPair(row, other, 'a', 'b', 0.5)\n"
        "def _unchecked(cls, *values):\n"
        "    return cls\n"
    )
    assert unchecked_views(sample) == [2, 3, 4, 6, 7, 9]
    home = [path for path in MODULES if "class LogRow" in path.read_text(encoding="utf-8")]
    assert [path.name for path in home] == ["record.py"] and "class FlipPair" in home[0].read_text(encoding="utf-8")
    uses = {path.name: unchecked_views(path.read_text(encoding="utf-8"))
            for path in MODULES + [PACKAGE / "__init__.py"] if path not in home}
    assert {name: lines for name, lines in uses.items() if lines} == {}
    assert "def _unchecked" not in home[0].read_text(encoding="utf-8")


CONTEXT_RULES = ("fewer than two items", "context items must be unique", "clicks must be finite",
                 "clicks must be nonnegative", "!r} values must be finite", "fit in 64-bit integers")


def context_rule_lines(source: str) -> list:
    """The lines of ``source`` that word one of the rules of a valid context."""
    return [number for number, line in enumerate(source.splitlines(), 1) if any(rule in line for rule in CONTEXT_RULES)]


def test_only_the_record_module_states_the_context_rules():
    """``rsm.record.context_errors`` is the one statement of a valid context, which ``LogRow(...)`` and the loader
    both run; no other module words a rule of its own. Other rules that read alike, as a topology's, do not count."""
    sample = (
        'raise ValueError("context items must be unique")\n'
        'message = f"context {c!r} of query {q!r} has fewer than two items"\n'
        'raise ValueError("subset items must be unique")\n'
        'raise ValueError(f"feature {name!r} values must be finite")\n'
        'raise ValueError("feature values must be finite")\n'
        'bad = "positions must fit in 64-bit integers" if wide else "clicks must be nonnegative"\n'
    )
    assert context_rule_lines(sample) == [1, 2, 4, 6]
    assert context_rule_lines((PACKAGE / "record.py").read_text(encoding="utf-8")) != []
    uses = {path.name: context_rule_lines(path.read_text(encoding="utf-8"))
            for path in MODULES + [PACKAGE / "__init__.py"] if path.name != "record.py"}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def nan_blind_tolerance_checks(source: str) -> list:
    """``(line, name)`` of each comparison with a ``config.*_TOL`` that NaN passes, sorted: ``x > TOL``,
    ``TOL < x``, ``x < -TOL`` and ``-TOL > x`` are all False for a NaN ``x``, where ``not x <= TOL`` is True."""

    def tolerance(node) -> tuple:
        sign = 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node, sign = node.operand, -1
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "config"
                and node.attr.endswith("_TOL")):
            return sign, node.attr
        return 0, None

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for left, op, right in zip(operands, node.ops, operands[1:]):
                (left_sign, left_name), (right_sign, right_name) = tolerance(left), tolerance(right)
                above = isinstance(op, ast.Gt) and (right_sign == 1 or left_sign == -1)
                below = isinstance(op, ast.Lt) and (left_sign == 1 or right_sign == -1)
                if above or below:
                    found.append((node.lineno, left_name or right_name))
    return sorted(found)


def test_the_check_finds_a_nan_blind_tolerance_check():
    sample = (
        "if gap > config.ROW_SUM_TOL:\n"
        "    pass\n"
        "bad = config.QP_TOL < residual\n"
        "if np.any(p < -config.STATIONARY_RESIDUAL_TOL) or -config.STATIONARY_RESIDUAL_TOL > q:\n"
        "    pass\n"
        "if not gap <= config.ROW_SUM_TOL or n > config.DIRECT_SOLVE_MAX_N:\n"
        "    pass\n"
        "done = change <= config.POWER_ITER_TOL and (p >= -config.STATIONARY_RESIDUAL_TOL).all()\n"
        "wide = abs(step - 1.0) > _BETA_CF_TOL\n"
    )
    assert nan_blind_tolerance_checks(sample) == [
        (1, "ROW_SUM_TOL"), (3, "QP_TOL"), (4, "STATIONARY_RESIDUAL_TOL"), (4, "STATIONARY_RESIDUAL_TOL")
    ]


def test_every_tolerance_check_rejects_nan():
    """A check against a ``config`` tolerance is written so that NaN fails it, ``not x <= TOL``."""
    found = {path.name: nan_blind_tolerance_checks(path.read_text(encoding="utf-8"))
             for path in MODULES + [PACKAGE / "__init__.py"]}
    assert {name: lines for name, lines in found.items() if lines} == {}
