"""``rsm train`` on the committed 24-query flip CSV writes the committed outputs.

Two runs on ``tests/data/flips_24.csv``: the iterative learner with default flags (``weights.json`` and
``loss.csv``) and ``--grid --grid-step 0.05`` (``weights.json``). Keys, integers, booleans and strings must match
exactly. Floats may differ by at most 1e-12 absolute, which covers the last bits a platform's LAPACK may move;
every figure in these files is of order 1 or smaller. A change that moves them on purpose updates the expected
files and says why.
"""

import json
from pathlib import Path

import pytest

from rsm.cli import main

DATA = Path(__file__).resolve().parent / "data"
FLOAT_TOL = 1e-12


def assert_matches(got, want, where):
    """``got`` has ``want``'s structure and types, its floats within ``FLOAT_TOL`` and everything else equal."""
    assert type(got) is type(want), f"{where}: {got!r} is not a {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for pos, (one, other) in enumerate(zip(got, want)):
            assert_matches(one, other, f"{where}[{pos}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} against {want!r}"
    else:
        assert got == want, where


def csv_cells(path):
    """The header line and every later line's cells as JSON numbers."""
    header, *lines = path.read_text().splitlines()
    return header, [[json.loads(cell) for cell in line.split(",")] for line in lines]


@pytest.mark.parametrize("expected, flags", [("train_flips_24", []), ("train_flips_24_grid", ["--grid", "--grid-step", "0.05"])])
def test_train_outputs_match_the_committed_files(tmp_path, expected, flags):
    out = tmp_path / "fit"
    assert main(["train", str(DATA / "flips_24.csv"), "--out-dir", str(out), *flags]) == 0
    want_dir = DATA / expected
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want_dir.iterdir())
    assert_matches(json.loads((out / "weights.json").read_text()), json.loads((want_dir / "weights.json").read_text()),
                   "weights.json")
    if (want_dir / "loss.csv").exists():
        (got_header, got), (want_header, want) = csv_cells(out / "loss.csv"), csv_cells(want_dir / "loss.csv")
        assert got_header == want_header
        assert_matches(got, want, "loss.csv")
