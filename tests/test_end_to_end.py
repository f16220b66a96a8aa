"""Pinned end-to-end behaviour: ``rsm synth``'s bytes, and what ``rsm eval`` and ``rsm train`` must not depend on.

``tests/data/synth_basic`` and ``tests/data/synth_flips`` hold the outputs of the two ``rsm synth`` runs in
``SYNTH_RUNS``. A change that moves a click or a target on purpose (kernel roundoff, say) regenerates them and
says why.

The invariances are checked on ``tests/data/flips_24.csv``: a report does not depend on the order of the CSV's
contexts or of its feature columns, and the rank-based models (rsm and train_ctr) do not see a strictly increasing
transform of a feature. The weights ``rsm train`` learns follow the feature columns.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rsm.cli import main

DATA = Path(__file__).resolve().parent / "data"
SYNTH_RUNS = {
    "synth_basic": ["--queries", "4", "--k", "3", "--n", "4", "--clicks", "200", "--seed", "5"],
    "synth_flips": ["--flips", "--queries", "3", "--k", "3", "--n", "4", "--clicks", "300", "--weights", "0.5,0.3,0.2",
                    "--seed", "6"],
}
BASE = 5  # query_id, context_id, item_id, position, clicks; the features follow


@pytest.mark.parametrize("name", SYNTH_RUNS)
def test_synth_writes_the_committed_bytes(tmp_path, name):
    assert main(["synth", "--out-dir", str(tmp_path), *SYNTH_RUNS[name]]) == 0
    for file in ("dataset.csv", "instances.json", "manifest.json"):
        assert (tmp_path / file).read_bytes() == (DATA / name / file).read_bytes(), file


def read_lines(path=DATA / "flips_24.csv"):
    with open(path, newline="", encoding="utf-8") as handle:
        header, *lines = csv.reader(handle)
    return header, lines


def write_lines(path, header, lines):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *lines])
    return path


def permuted_columns(header, lines, order):
    """The CSV with its feature columns in ``order``, a permutation of 0 .. k - 1."""
    pick = list(range(BASE)) + [BASE + j for j in order]
    return [header[i] for i in pick], [[line[i] for i in pick] for line in lines]


def eval_report(tmp_path, path, models="rsm,least_squares,constant,train_ctr"):
    out = tmp_path / f"report_{path.stem}_{models.replace(',', '_')}"
    assert main(["eval", str(path), "--out-dir", str(out), "--models", models, "--splits", "6", "--seed", "4"]) == 0
    return (out / "report.json").read_bytes()


def test_a_report_does_not_depend_on_the_order_of_contexts_or_feature_columns(tmp_path):
    header, lines = read_lines()
    contexts = {}
    for line in lines:
        contexts.setdefault(tuple(line[:2]), []).append(line)
    groups = list(contexts.values())
    shuffled = [line for g in np.random.default_rng(3).permutation(len(groups)).tolist() for line in groups[g]]
    assert shuffled != lines
    want = eval_report(tmp_path, DATA / "flips_24.csv")
    assert eval_report(tmp_path, write_lines(tmp_path / "shuffled.csv", header, shuffled)) == want
    k = len(header) - BASE
    for order in ([k - 1 - j for j in range(k)], [1, 2, 0]):
        path = write_lines(tmp_path / f"columns_{''.join(map(str, order))}.csv", *permuted_columns(header, lines, order))
        assert eval_report(tmp_path, path) == want


def test_rank_models_do_not_see_a_strictly_increasing_transform(tmp_path):
    header, lines = read_lines()
    f0 = header.index("f0")
    moved = [line[:f0] + [repr(math.exp(3.0 * float(line[f0])) - 7.0)] + line[f0 + 1:] for line in lines]
    want = eval_report(tmp_path, DATA / "flips_24.csv", "rsm,train_ctr")
    assert eval_report(tmp_path, write_lines(tmp_path / "moved.csv", header, moved), "rsm,train_ctr") == want


def test_trained_weights_follow_the_feature_columns(tmp_path):
    header, lines = read_lines()
    order = [2, 0, 1]
    weights = []
    for name, path in (("plain", DATA / "flips_24.csv"),
                       ("permuted", write_lines(tmp_path / "permuted.csv", *permuted_columns(header, lines, order)))):
        assert main(["train", str(path), "--out-dir", str(tmp_path / name)]) == 0
        weights.append(json.loads((tmp_path / name / "weights.json").read_text())["weights"])
    plain, permuted = map(np.array, weights)
    assert np.abs(permuted - plain[order]).max() <= 1e-12


def repeated_column_copy(tmp_path, column):
    """``flips_24.csv`` with a second ``column`` appended: a random ``f0`` beside a manifest of f0, f1, f2, or an
    all-zero ``clicks`` without one."""
    header, lines = read_lines()
    rng = np.random.default_rng(5)
    cells = [repr(float(v)) for v in rng.random(len(lines))] if column == "f0" else ["0"] * len(lines)
    folder = tmp_path / f"repeated_{column}"
    folder.mkdir()
    if column == "f0":
        features = [{"name": name, "direction": "higher"} for name in ("f0", "f1", "f2")]
        (folder / "manifest.json").write_text(json.dumps({"features": features}), encoding="utf-8")
    return write_lines(folder / "dataset.csv", header + [column], [line + [cell] for line, cell in zip(lines, cells)])


@pytest.mark.parametrize("column", ["f0", "clicks"])
def test_a_header_that_repeats_a_column_it_reads_is_a_data_error(tmp_path, column, caplog):
    path = repeated_column_copy(tmp_path, column)
    out = tmp_path / "out"
    assert main(["eval", str(path), "--out-dir", str(out), "--splits", "2"]) == 3
    assert not out.exists()
    errors = [record.getMessage() for record in caplog.records if record.levelname == "ERROR"]
    assert errors == [f"{path} repeats the column {column!r}, which it reads"]


def test_a_byte_order_mark_changes_no_report(tmp_path):
    """A CSV, and a manifest beside it, that start with a UTF-8 byte-order mark give the plain file's report."""
    want = eval_report(tmp_path, DATA / "flips_24.csv")
    folder = tmp_path / "marked"
    folder.mkdir()
    path = folder / "flips_24.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / "flips_24.csv").read_bytes())
    assert eval_report(tmp_path, path) == want
    features = [{"name": name, "direction": "higher"} for name in ("f0", "f1", "f2")]
    (folder / "manifest.json").write_text("\ufeff" + json.dumps({"features": features}), encoding="utf-8")
    assert eval_report(tmp_path / "manifest", path) == want
