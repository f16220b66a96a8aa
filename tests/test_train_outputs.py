"""``rsm train`` on the committed 24-query flip CSV writes the committed outputs.

Two runs on ``tests/data/flips_24.csv``: the iterative learner with default flags (``weights.json`` and
``loss.csv``) and ``--grid --grid-step 0.05`` (``weights.json``). Keys, integers, booleans and strings must match
exactly. Floats may differ by at most 1e-12 absolute, which covers the last bits a platform's LAPACK may move;
every figure in these files is of order 1 or smaller. A change that moves them on purpose updates the expected
files and says why.

Two more runs fit contexts of two widths, 3 and 66, on both sides of ``config.DIRECT_SOLVE_MAX_N``, and must
write ``tests/data/train_mixed_widths/`` byte for byte: the kernel solves each context on its own, so no
batching of widths may move a bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rsm.cli import main
from rsm.data import SyntheticSpec, generate_synthetic, save_instances
from rsm.topology import WeightVector

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


def mixed_width_instances(path):
    """Noise-free instances of six 3-wide and four 66-wide contexts, each width drawn under its own weights, so no
    weight vector fits both and the fit stops at a compromise."""
    instances = []
    for n, weights, seed in ((3, [0.5, 0.3, 0.2], 31), (66, [0.2, 0.3, 0.5], 32)):
        spec = SyntheticSpec(k=3, num_queries=6 if n == 3 else 4, weights=WeightVector(np.array(weights)), n=n, seed=seed)
        instances += generate_synthetic(spec).instances
    save_instances(instances, path)


@pytest.mark.parametrize("flags", [[], ["--grid", "--grid-step", "0.1"]], ids=["iterative", "grid"])
def test_a_mixed_width_fit_matches_the_committed_files_byte_for_byte(tmp_path, flags):
    mixed_width_instances(tmp_path / "instances.json")
    out = tmp_path / "fit"
    assert main(["train", str(tmp_path / "instances.json"), "--out-dir", str(out), *flags]) == 0
    want_dir = DATA / "train_mixed_widths" / ("grid" if flags else "iterative")
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want_dir.iterdir())
    for path in want_dir.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
