"""End-to-end command tests, all run in process through cli.main."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsm
from rsm.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--out-dir", out, "--queries", "30", "--k", "3", "--n", "4",
                "--weights", "0.5,0.3,0.2", "--seed", "11"])
    assert code == 0
    return out


@pytest.fixture()
def flip_dir(tmp_path):
    out = tmp_path / "flips"
    code = run(["synth", "--out-dir", out, "--queries", "10", "--k", "3", "--n", "5",
                "--weights", "0.5,0.3,0.2", "--clicks", "5000", "--flips", "--seed", "2"])
    assert code == 0
    assert (out / "dataset.csv").is_file()
    return out


class TestSynth:
    def test_writes_manifest_and_instances(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["true_weights"] == [0.5, 0.3, 0.2]
        assert manifest["num_instances"] == 30 * 4
        assert (synth_dir / "instances.json").is_file()
        # noise-free: no click rows, hence no CSV
        assert not (synth_dir / "dataset.csv").exists()

    def test_identical_files_for_fixed_seed(self, tmp_path):
        args = ["synth", "--queries", "6", "--k", "2", "--n", "3", "--clicks", "40",
                "--seed", "5", "--out-dir"]
        assert run(args + [tmp_path / "one"]) == 0
        assert run(args + [tmp_path / "two"]) == 0
        for name in ("manifest.json", "instances.json", "dataset.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


class TestTrain:
    def test_recovers_manifest_weights(self, synth_dir, tmp_path):
        out = tmp_path / "fit"
        assert run(["train", synth_dir / "instances.json", "--out-dir", out]) == 0
        payload = json.loads((out / "weights.json").read_text())
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        got = np.array(payload["weights"])
        want = np.array(manifest["true_weights"])
        assert payload["converged"]
        assert float(np.max(np.abs(got - want))) < 1e-3
        header = (out / "loss.csv").read_text().splitlines()[0]
        assert header == "iteration,mse,mae,step_norm"

    def test_quoted_feature_names_without_a_manifest(self, tmp_path):
        """A feature name with a comma is written as a quoted cell and read back as one column."""
        spec = rsm.SyntheticSpec(k=2, num_queries=20, weights=rsm.WeightVector(np.array([0.7, 0.3])),
                                 clicks_per_context=5000, seed=3)
        names = ("price, usd", "rating")
        rows = [
            rsm.LogRow(r.query_id, r.context_id, r.items, r.positions, r.clicks,
                       {new: r.features[old] for new, old in zip(names, ("f0", "f1"))})
            for r in rsm.generate_synthetic(spec).rows
        ]
        schema = rsm.DatasetSchema(features=tuple(rsm.FeatureSpec(name) for name in names))
        path = tmp_path / "logs" / "dataset.csv"
        path.parent.mkdir()
        rsm.save_csv(rows, path, schema)
        assert path.read_text().splitlines()[0].endswith(',"price, usd",rating')
        assert run(["train", path, "--out-dir", tmp_path / "fit"]) == 0
        assert len(json.loads((tmp_path / "fit" / "weights.json").read_text())["weights"]) == 2

    def test_grid_dispatch(self, synth_dir, tmp_path):
        out = tmp_path / "grid"
        assert run(["train", synth_dir / "instances.json", "--out-dir", out,
                    "--grid", "--grid-step", "0.1"]) == 0
        payload = json.loads((out / "weights.json").read_text())
        assert payload["method"] == "grid"
        assert abs(sum(payload["weights"]) - 1.0) < 1e-9
        assert not (out / "loss.csv").exists()

    def test_max_iters_zero_returns_initial_point(self, synth_dir, tmp_path):
        out = tmp_path / "zero"
        assert run(["train", synth_dir / "instances.json", "--out-dir", out,
                    "--max-iters", "0"]) == 0
        payload = json.loads((out / "weights.json").read_text())
        assert not payload["converged"]
        assert payload["iterations"] == 0
        assert payload["weights"] == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_trains_from_csv_logs(self, flip_dir, tmp_path):
        out = tmp_path / "csvfit"
        assert run(["train", flip_dir / "dataset.csv", "--out-dir", out,
                    "--max-iters", "15"]) == 0
        payload = json.loads((out / "weights.json").read_text())
        assert len(payload["weights"]) == 3


class TestEval:
    def test_constant_model_reports_half(self, flip_dir, tmp_path):
        out = tmp_path / "rep"
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", out,
                    "--models", "constant", "--splits", "4"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["mean_accuracy"]["constant"] == 0.5
        assert (out / "report.txt").is_file()
        assert (out / "report_splits.csv").is_file()

    def test_same_seed_byte_identical_reports(self, flip_dir, tmp_path):
        args = ["eval", flip_dir / "dataset.csv", "--models", "rsm,least_squares,constant",
                "--splits", "3", "--max-iters", "8", "--seed", "21", "--out-dir"]
        assert run(args + [tmp_path / "r1"]) == 0
        assert run(args + [tmp_path / "r2"]) == 0
        for name in ("report.json", "report.txt", "report_splits.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_lambda_sweep_sections(self, flip_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", out,
                    "--models", "constant,train_ctr", "--splits", "3",
                    "--lambda-sweep", "0.05,0.15,0.3"]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert sorted(payload["lambda_sweep"]) == ["0.05", "0.15", "0.3"]
        text = (out / "report.txt").read_text()
        assert text.count("lambda =") == 3
        csv_head = (out / "report_splits.csv").read_text().splitlines()[0]
        assert csv_head.startswith("lambda,split,")

    def test_builds_no_per_item_objects(self, flip_dir, tmp_path, monkeypatch):
        """Rows are encoded as arrays: no chain, topology or feature-row objects per context."""
        built = []
        for cls in (rsm.StochasticMatrix, rsm.Topology, rsm.FeatureRow):
            def counting(self, _real=cls.__post_init__):
                built.append(type(self).__name__)
                _real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "rep",
                    "--models", "rsm,least_squares,constant,train_ctr", "--splits", "3"]) == 0
        assert json.loads((tmp_path / "rep" / "report.json").read_text())["num_pairs"] > 0
        assert built == []
        rsm.encode_rank_topology([1.0, 2.0])  # the counters do see a construction
        assert built == ["StochasticMatrix", "Topology"]


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["train", tmp_path / "nope.csv", "--out-dir", tmp_path / "o"]) == 3

    def test_unknown_model_is_config_error(self, flip_dir, tmp_path):
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "o",
                    "--models", "zeppelin"]) == 2

    def test_bad_weights_is_config_error(self, tmp_path):
        assert run(["synth", "--out-dir", tmp_path / "o", "--queries", "2",
                    "--k", "2", "--weights", "1.0,banana"]) == 2

    def test_grid_budget_is_numeric_error(self, synth_dir, tmp_path):
        assert run(["train", synth_dir / "instances.json", "--out-dir", tmp_path / "o",
                    "--grid", "--grid-step", "0.0001"]) == 4

    def test_malformed_csv_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("only,one,line\n")
        assert run(["eval", bad, "--out-dir", tmp_path / "o"]) == 3

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["synth", "--out-dir", tmp_path / "o", "--frobnicate"])
        assert info.value.code == 2


class TestDemo:
    def test_demo_prints_orderings(self, capsys):
        assert run(["demo-shredder"]) == 0
        out = capsys.readouterr().out
        assert "ordering: A > B" in out
        assert "ordering: A > B > C" in out
        assert "does NOT flip" in out
        assert "flips found: 0" in out


def test_import_leaves_scipy_stats_out():
    src = Path(rsm.__file__).resolve().parent.parent
    probe = "import sys, rsm.cli, rsm.evaluation; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {probe}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
