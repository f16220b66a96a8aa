"""End-to-end command tests, all run in process through cli.main."""

import functools
import json
import logging
import re
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

    def test_flip_manifest_counts_queries_and_candidates(self, flip_dir):
        manifest = json.loads((flip_dir / "manifest.json").read_text())
        dataset = rsm.generate_flip_dataset(
            num_queries=10, weights=rsm.WeightVector(np.array([0.5, 0.3, 0.2])), n=5,
            clicks_per_context=5000, seed=rsm.derive_seed(2, "synth"),
        )
        assert manifest["queries_kept"] == manifest["num_rows"] // 2 == 10
        assert manifest["candidates_drawn"] == dataset.candidates_drawn >= 10

    def test_flip_manifest_records_the_default_clicks(self, tmp_path):
        """Without --clicks the flip generator draws 10,000 clicks per context, and the manifest says so."""
        out = tmp_path / "flips"
        assert run(["synth", "--out-dir", out, "--queries", "3", "--flips", "--seed", "2"]) == 0
        assert json.loads((out / "manifest.json").read_text())["clicks_per_context"] == 10_000
        loaded = rsm.load_csv(out / "dataset.csv", rsm.synthetic_schema(3))
        assert [row.clicks.sum() for row in loaded.rows] == [10_000.0] * 6

    def test_wide_instance_file_stays_small(self, tmp_path):
        """Each context is stored once, as its ranks: 20 contexts of 70 items take well under 1 MB."""
        out = tmp_path / "wide"
        assert run(["synth", "--out-dir", out, "--n", "70", "--queries", "20", "--seed", "5",
                    "--weights", "0.2,0.5,0.3"]) == 0
        assert (out / "instances.json").stat().st_size < 1_000_000
        assert len(rsm.load_instances(out / "instances.json")) == 20 * 70

    def test_identical_files_for_fixed_seed(self, tmp_path):
        args = ["synth", "--queries", "6", "--k", "2", "--n", "3", "--clicks", "40",
                "--seed", "5", "--out-dir"]
        assert run(args + [tmp_path / "one"]) == 0
        assert run(args + [tmp_path / "two"]) == 0
        for name in ("manifest.json", "instances.json", "dataset.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    @pytest.mark.parametrize("flag", [["--queries", "0"], ["--queries", "-2"], ["--clicks", "-5"]])
    def test_flip_counts_below_one_exit_two_and_write_nothing(self, tmp_path, flag):
        out = tmp_path / "flips"
        assert run(["synth", "--out-dir", out, "--flips", "--seed", "3"] + flag) == 2
        assert not out.exists()

    def test_flips_that_keep_no_query_exit_two_and_write_nothing(self, tmp_path, monkeypatch, caplog):
        """With 64 candidates per query (seed 1 keeps none of its 2 queries even with 640), the run fails
        before it makes --out-dir: a manifest without a CSV would only fail the next ``rsm eval``."""
        monkeypatch.setattr(rsm.data, "MAX_CANDIDATES", 64)
        out = tmp_path / "flips"
        assert run(["synth", "--out-dir", out, "--flips", "--queries", "2", "--n", "3", "--seed", "1"]) == 2
        assert not out.exists()
        assert "kept none of the 2 queries requested, from 128 candidates drawn" in caplog.text

    @pytest.mark.parametrize("flag", [["--k", "0"], ["--k", "-1"], ["--flips", "--k", "1", "--queries", "2"]])
    def test_too_few_features_exit_two_and_write_nothing(self, tmp_path, flag, caplog):
        """No feature at all is a bad option; one feature is too few for the flip generator to ever flip."""
        out = tmp_path / "synth"
        assert run(["synth", "--out-dir", out, "--seed", "3"] + flag) == 2
        assert not out.exists()
        assert "at least" in caplog.text


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

    def test_writes_the_fits_counters(self, synth_dir, tmp_path):
        """weights.json carries FitResult's qp_steps and max_kkt_residual exactly."""
        out = tmp_path / "fit"
        assert run(["train", synth_dir / "instances.json", "--out-dir", out]) == 0
        payload = json.loads((out / "weights.json").read_text())
        result = rsm.fit(rsm.load_instances(synth_dir / "instances.json"))
        assert payload["iterations"] == result.iterations
        assert payload["qp_steps"] == result.qp_steps >= result.iterations
        assert payload["max_kkt_residual"] == result.max_kkt_residual <= rsm.config.QP_TOL

    def test_loss_csv_and_log_lines_come_from_the_result(self, synth_dir, tmp_path, caplog):
        """loss.csv holds the fit's per-iteration figures bit for bit, logged in the same order."""
        out = tmp_path / "fit"
        with caplog.at_level(logging.INFO, logger="rsm.cli"):
            assert run(["train", synth_dir / "instances.json", "--out-dir", out, "--halt-eps", "1e-9"]) == 0
        result = rsm.fit(rsm.load_instances(synth_dir / "instances.json"), rsm.LearnerConfig(halt_eps=1e-9))
        figures = list(zip(result.per_iteration_loss, result.per_iteration_error, result.per_iteration_step))
        assert len(figures) == result.iterations > 1
        lines = (out / "loss.csv").read_text().splitlines()
        assert lines[1:] == [f"{it},{mse!r},{mae!r},{step!r}" for it, (mse, mae, step) in enumerate(figures)]
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration ")]
        assert logged == [f"iteration {it}: mse {mse:.6g} mae {mae:.6g} step {step:.3g}"
                          for it, (mse, mae, step) in enumerate(figures)]

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

    def test_loads_instances_without_chain_or_topology_objects(self, synth_dir, tmp_path, monkeypatch):
        """instances.json goes straight to the learner's batch: no chain or topology object is built."""
        built = []
        for cls in (rsm.StochasticMatrix, rsm.Topology):
            def counting(self, _real=cls.__post_init__):
                built.append(type(self).__name__)
                _real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        monkeypatch.setattr(rsm.StochasticMatrix, "_trusted", lambda *args: built.append("StochasticMatrix._trusted"))
        assert len(rsm.load_instances(synth_dir / "instances.json")) == 30 * 4
        assert run(["train", synth_dir / "instances.json", "--out-dir", tmp_path / "fit"]) == 0
        assert built == []
        rsm.encode_rank_topology([1.0, 2.0])  # the counters do see a construction
        assert built == ["StochasticMatrix", "Topology"]

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

    def test_lambda_sweep_mines_the_pairs_once(self, flip_dir, tmp_path, monkeypatch):
        """A three-rate sweep mines its flip pairs once, into the record every run splits, never through ``of_pairs``,
        and writes the reports of three separate runs."""
        calls, recorded = [], []
        real, real_record = rsm.data.mine_flip_pairs, rsm.record.ContextRecord.of_pairs.__func__

        def counting(rows, *args, **kwargs):
            calls.append(len(rows))
            return real(rows, *args, **kwargs)

        def recording(cls, pairs):
            recorded.append(len(pairs))
            return real_record(cls, pairs)

        for module in (rsm.data, rsm.cli):
            monkeypatch.setattr(module, "mine_flip_pairs", counting)
        monkeypatch.setattr(rsm.record.ContextRecord, "of_pairs", classmethod(recording))
        common = ["--models", "rsm,constant,train_ctr", "--splits", "3", "--max-iters", "6", "--out-dir"]
        assert run(["eval", flip_dir / "dataset.csv", "--lambda-sweep", "0.05,0.15,0.3"] + common + [tmp_path / "sweep"]) == 0
        assert calls == [20] and recorded == []
        sweep = json.loads((tmp_path / "sweep" / "report.json").read_text())["lambda_sweep"]
        for lam in ("0.05", "0.15", "0.3"):
            assert run(["eval", flip_dir / "dataset.csv", "--lambda", lam] + common + [tmp_path / lam]) == 0
            assert sweep[lam] == json.loads((tmp_path / lam / "report.json").read_text())

    def test_an_eval_codes_each_records_items_once(self, flip_dir, tmp_path, monkeypatch):
        """Over 8 splits and 2 rates, train_ctr and the miner build one (query, item) coding: the miner's, of the
        loaded record, which the record of the flip pairs gathers."""
        built, real = [], rsm.record.ContextRecord.item_keys.func

        def counting(record):
            built.append(record)
            return real(record)

        coding = functools.cached_property(counting)
        coding.__set_name__(rsm.record.ContextRecord, "item_keys")
        monkeypatch.setattr(rsm.record.ContextRecord, "item_keys", coding)
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "o", "--models", "constant,train_ctr",
                    "--splits", "8", "--lambda-sweep", "0.1,0.2"]) == 0
        assert len(built) == 1

    def test_a_csv_run_builds_no_record_from_a_list_of_rows(self, flip_dir, tmp_path, monkeypatch):
        """``rsm eval`` over a sweep and ``rsm train`` on a CSV adapt no list of rows into a record: the loader builds
        the file's record from its columns and the miner gathers the pairs' record from it. ``of_pairs`` never runs."""
        adapted, real = [], rsm.record.ContextRecord.of_rows.__func__
        monkeypatch.setattr(rsm.record.ContextRecord, "of_rows", classmethod(lambda cls, rows: adapted.append(len(rows)) or real(cls, rows)))
        monkeypatch.setattr(rsm.record.ContextRecord, "of_pairs", classmethod(lambda cls, pairs: adapted.append("of_pairs")))
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "e", "--models", "rsm,least_squares,constant,train_ctr",
                    "--splits", "4", "--lambda-sweep", "0.1,0.2"]) == 0
        assert run(["train", flip_dir / "dataset.csv", "--out-dir", tmp_path / "t", "--max-iters", "5"]) == 0
        assert adapted == []
        rows = rsm.load_csv(flip_dir / "dataset.csv", rsm.synthetic_schema(3)).rows
        rsm.record.record_view(list(rows))  # the counter does see a list adapted
        assert adapted == [len(rows)] == [20]

    def test_an_eval_run_reads_no_row_attribute(self, flip_dir, tmp_path, monkeypatch):
        """Every model gathers from the record: with each ``LogRow`` attribute counting its reads, ``rsm eval`` with
        all four models reads none. The control, a scorer whose vectors are too short, does read them, in the failure
        pass that names the rows."""
        reads = []
        for name in ("record", "index", "query_id", "context_id", "items", "positions", "clicks", "features", "n"):
            real = vars(rsm.LogRow)[name]
            monkeypatch.setattr(rsm.LogRow, name, property(lambda row, real=real, name=name: reads.append(name) or real.__get__(row)))
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "e", "--models", "rsm,least_squares,constant,train_ctr",
                    "--splits", "4"]) == 0
        assert reads == []
        pairs = rsm.mine_flip_pairs(rsm.load_csv(flip_dir / "dataset.csv", rsm.synthetic_schema(3)).rows)
        assert rsm.flip_accuracy(lambda rows: [np.zeros(1)] * len(rows), pairs) == 0.5
        assert {"n", "query_id", "context_id"} <= set(reads)

    @pytest.mark.parametrize("rates", ["0.15,0.15", "0.1,0.10000000001", "0.3,0.05,0.30"])
    def test_lambda_sweep_rates_sharing_a_label_exit_two(self, flip_dir, tmp_path, rates, caplog):
        """Each rate's report section is named by its ``%g`` label, so two rates with one label are refused."""
        out = tmp_path / "sweep"
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", out, "--models", "constant", "--splits", "2",
                    "--lambda-sweep", rates]) == 2
        assert not out.exists()
        assert "distinct labels" in caplog.text

    @pytest.mark.parametrize("sweep", [[], ["--lambda-sweep", "0.1,0.2"]])
    def test_a_csv_without_flip_pairs_is_a_data_error(self, sweep, tmp_path, caplog):
        path = tmp_path / "calm.csv"
        path.write_text("query_id,context_id,item_id,position,clicks,f0\nq,c1,a,1,10,1\nq,c1,b,2,5,2\n")
        assert run(["eval", path, "--out-dir", tmp_path / "o"] + sweep) == 3
        assert "need at least two flip pairs, got 0" in caplog.text

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


# a flip CSV of ``rsm synth --flips --queries 24 --n 4 --clicks 500 --seed 3`` (its dataset.csv alone, so the
# schema comes from the header) and the reports two ``rsm eval`` runs on it write
DATA = Path(__file__).resolve().parent / "data"
P_VALUE = re.compile(rb'"p": ([^,\n]+)')


@pytest.mark.parametrize("expected, sweep", [("eval_flips_24", []), ("eval_flips_24_sweep", ["--lambda-sweep", "0.05,0.15"])])
def test_eval_reports_match_the_committed_bytes(tmp_path, expected, sweep):
    """All four models over 8 splits, at the default rate and over a sweep, write the committed reports byte for byte,
    but for report.json's full-precision t-test p-values, which go through libm's ``lgamma``, ``log`` and ``exp``
    and so may differ in the last bits between platforms: they match to a relative 1e-12. The rest are accuracies,
    exact fractions, and correctly rounded statistics of them, so they do not depend on the platform's LAPACK
    bits; the CSV is committed because regenerating it would. A change that moves these bytes on purpose updates
    the expected files and says why."""
    out = tmp_path / "rep"
    assert run(["eval", DATA / "flips_24.csv", "--out-dir", out, "--models", "rsm,least_squares,constant,train_ctr",
                "--splits", "8", *sweep]) == 0
    for name in ("report.json", "report.txt", "report_splits.csv"):
        got, want = (out / name).read_bytes(), (DATA / expected / name).read_bytes()
        assert P_VALUE.sub(b'"p": _', got) == P_VALUE.sub(b'"p": _', want), name
        p_got, p_want = ([float(p) for p in P_VALUE.findall(text)] for text in (got, want))
        assert p_got == pytest.approx(p_want, rel=1e-12, abs=0), name


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["train", tmp_path / "nope.csv", "--out-dir", tmp_path / "o"]) == 3

    def test_failed_runs_leave_no_out_dir(self, flip_dir, tmp_path):
        """Options and data are checked before the output directory is made."""
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "e", "--splits", "0"]) == 2
        assert run(["train", tmp_path / "missing.csv", "--out-dir", tmp_path / "t"]) == 3
        assert not (tmp_path / "e").exists() and not (tmp_path / "t").exists()

    def test_unknown_model_is_config_error(self, flip_dir, tmp_path):
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "o",
                    "--models", "zeppelin"]) == 2

    @pytest.mark.parametrize("flags", [["--models", "bogus"], ["--models", ","], ["--lambda-sweep", "0.15,0.15"],
                                       ["--models", "rsm", "--eta", "5"]])
    def test_eval_checks_its_options_before_reading_the_csv(self, flip_dir, tmp_path, monkeypatch, flags):
        """A bad model list, sweep or learner flag exits 2 with the CSV missing or present, and no CSV is read."""
        loads, real = [], rsm.cli.load_csv
        monkeypatch.setattr(rsm.cli, "load_csv", lambda *args: loads.append(args) or real(*args))
        for data in (tmp_path / "missing.csv", flip_dir / "dataset.csv"):
            assert run(["eval", data, "--out-dir", tmp_path / "o"] + flags) == 2
        assert loads == [] and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--splits", "0"], ["eval", "--train-frac", "1.5"], ["eval", "--train-frac", "nan"],
        ["eval", "--models", "rsm,rsm"], ["train", "--grid", "--grid-step", "0.3"], ["train", "--grid", "--lambda", "1.5"],
    ], ids=lambda argv: " ".join(argv))
    def test_every_flag_is_checked_before_any_data(self, tmp_path, argv):
        """A bad flag exits 2 with the data file missing, which would exit 3 if it were looked for first."""
        command, *flags = argv
        assert run([command, tmp_path / "missing.csv", "--out-dir", tmp_path / "o"] + flags) == 2
        assert not (tmp_path / "o").exists()

    MANIFESTS = {
        "no_direction": '{"features": [{"name": "f0"}]}',
        "not_an_object": "[1, 2]",
        "invalid_json": '{"features": [',
        "unknown_direction": '{"features": [{"name": "f0", "direction": "sideways"}]}',
        "repeated_name": '{"features": [{"name": "f0", "direction": "higher"}, {"name": "f0", "direction": "lower"}]}',
    }

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("manifest", MANIFESTS)
    def test_a_malformed_manifest_is_a_data_error(self, tmp_path, caplog, manifest, command):
        data = tmp_path / "data"
        data.mkdir()
        (data / "dataset.csv").write_bytes((DATA / "flips_24.csv").read_bytes())
        (data / "manifest.json").write_text(self.MANIFESTS[manifest], encoding="utf-8")
        assert run([command, data / "dataset.csv", "--out-dir", tmp_path / "o"]) == 3
        assert [r for r in caplog.records if r.levelname == "ERROR" and "manifest.json" in r.getMessage()]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_a_repeated_header_feature_is_a_data_error(self, tmp_path, caplog, command):
        """Without a manifest, a CSV whose header names a feature twice is refused by name, before any row is read."""
        lines = (DATA / "flips_24.csv").read_text(encoding="utf-8").splitlines()
        (tmp_path / "dataset.csv").write_text("".join(f"{line},{line.split(',')[5]}\n" for line in lines), encoding="utf-8")
        assert lines[0].split(",")[5] == "f0"
        assert run([command, tmp_path / "dataset.csv", "--out-dir", tmp_path / "o"]) == 3
        assert [r for r in caplog.records if r.levelname == "ERROR" and "dataset.csv" in r.getMessage()
                and "'f0'" in r.getMessage()]
        assert not (tmp_path / "o").exists()

    def test_learner_flags_are_checked_only_where_they_are_used(self, flip_dir, synth_dir, tmp_path):
        """Only rsm reads the learner flags in eval, and only the iterative fit in train, which checks them first."""
        assert run(["eval", flip_dir / "dataset.csv", "--out-dir", tmp_path / "e", "--models", "constant",
                    "--eta", "5", "--splits", "2"]) == 0
        assert run(["train", synth_dir / "instances.json", "--out-dir", tmp_path / "g", "--grid", "--grid-step", "0.5",
                    "--eta", "5"]) == 0
        assert run(["train", tmp_path / "missing.csv", "--out-dir", tmp_path / "t", "--eta", "5"]) == 2
        assert not (tmp_path / "t").exists()

    def test_bad_weights_is_config_error(self, tmp_path):
        assert run(["synth", "--out-dir", tmp_path / "o", "--queries", "2",
                    "--k", "2", "--weights", "1.0,banana"]) == 2

    def test_grid_budget_is_numeric_error(self, synth_dir, tmp_path):
        assert run(["train", synth_dir / "instances.json", "--out-dir", tmp_path / "o",
                    "--grid", "--grid-step", "0.0001"]) == 4

    def test_edited_topology_is_refused_without_weights(self, synth_dir, tmp_path, caplog):
        """One stored rank moved by 1e-13 is no longer an average rank: a data error naming context and feature."""
        payload = json.loads((synth_dir / "instances.json").read_text())
        payload["contexts"][5]["ranks"][1][0] += 1e-13
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run(["train", edited, "--out-dir", out]) == 3
        assert not (out / "weights.json").exists()
        assert "context 5 is malformed: the ranks of feature 'f1' are not the average ranks" in caplog.text

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


def test_import_loads_no_scipy_module():
    """numpy is rsm's only runtime dependency: a fresh interpreter never loads scipy."""
    src = Path(rsm.__file__).resolve().parent.parent
    probe = (
        "import sys, rsm, rsm.cli, rsm.evaluation; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {probe}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_commands_load_no_numpy_ma(tmp_path):
    """``numpy.ma`` is a large import no command needs; a plain ``np.unique`` would load it.

    One fresh interpreter runs a flip synth, a four-model ``rsm eval`` sweep and an ``rsm train``.
    """
    src = Path(rsm.__file__).resolve().parent.parent
    flips, out = tmp_path / "flips", tmp_path / "out"
    commands = [
        ["synth", "--out-dir", flips, "--queries", "8", "--flips", "--seed", "2"],
        ["eval", flips / "dataset.csv", "--out-dir", out / "eval", "--models", "rsm,least_squares,constant,train_ctr",
         "--splits", "2", "--max-iters", "6", "--lambda-sweep", "0.05,0.3"],
        ["train", flips / "dataset.csv", "--out-dir", out / "train", "--max-iters", "6"],
    ]
    probe = (
        "import sys; from rsm.cli import main; "
        f"codes = [main(argv) for argv in {[[str(a) for a in c] for c in commands]!r}]; "
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {probe}"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False"
