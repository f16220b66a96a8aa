"""Tests of the benchmark harness itself (not of rsm).

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import rsm  # noqa: E402
import rsm.cli  # noqa: E402
import rsm.evaluation  # noqa: E402

import environment  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, layer_metrics, self_time  # noqa: E402


def rsm_attributes():
    """Every (module, attribute) -> object binding across the rsm modules."""
    return {
        (name, attr): getattr(module, attr)
        for name, module in sys.modules.items()
        if name == "rsm" or name.startswith("rsm.")
        for attr in dir(module)
    }


def small(cls, **sizes):
    return type(cls.__name__, (cls,), sizes)


def test_wrappers_are_installed_everywhere_and_restored(tmp_path):
    before = rsm_attributes()
    original = rsm.markov.stationary
    with tracer.Tracer("t") as spans:
        assert rsm.data.stationary is not original
        assert rsm.topology.stationary is rsm.data.stationary
        assert rsm.evaluation.stationary is rsm.data.stationary
        wl = small(workloads.FitWide, widths=(5, 70), contexts_per_width=2, rank_rounds=1)(
            1, tmp_path, workloads.OutcomeCounter()
        )
        wl.setup()
        wl.operate()
    names = {s.name for s in spans.spans}
    assert {"markov.stationary.direct", "markov.stationary.power", "learner.fit", "topology.rank_items"} <= names
    after = rsm_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_restored_when_the_body_raises():
    before = rsm_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer("t"):
            raise RuntimeError("boom")
    after = rsm_attributes()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, "p", 0.0, 10.0, None, "r")
    children = [
        Span(2, "a", 1.0, 3.0, 1, "r"),
        Span(3, "b", 2.0, 4.0, 1, "r"),  # overlaps a: [1, 4] covered once
        Span(4, "c", 8.0, 12.0, 1, "r"),  # runs past the parent: only [8, 10] counts
    ]
    assert self_time(parent, children) == pytest.approx(5.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, "r"),
        Span(2, "evaluation.run_experiment", 1.0, 9.0, 1, "r"),
        Span(3, "learner.fit", 2.0, 5.0, 2, "r", {"iterations": 4, "converged": True}),
        Span(4, "learner.fit", 5.0, 6.0, 2, "r", {"iterations": 2, "converged": False}),
        Span(5, "data.gen", 20.0, 30.0, None, "r", {"requested": 5, "accepted": 3}),
    ]
    spans += [Span(10 + i, "markov.stationary.direct", 21.0 + i, 21.5 + i, 5, "r") for i in range(6)]
    spans.append(Span(30, "markov.stationary.power", 40.0, 41.0, None, "r"))
    m = layer_metrics(spans, scorer_failures=2)
    assert m["cli.main.s"] == pytest.approx(10.0)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["evaluation.run_experiment.self_s"] == pytest.approx(4.0)
    assert m["learner.fit.calls"] == 2
    assert m["learner.fit.iterations"] == 6
    assert m["learner.fit.s_per_iter"] == pytest.approx(4.0 / 6)
    assert m["learner.fit.unconverged"] == 1
    assert m["data.gen.candidates"] == 3  # six generator solves, two per candidate
    assert m["data.gen.accept_ratio"] == pytest.approx(1.0)
    assert m["data.gen.dropped"] == 2
    assert m["markov.stationary.direct.calls"] == 6
    assert m["markov.stationary.power.calls"] == 1
    assert m["evaluation.scorer_failures"] == 2
    assert m["topology.encode.calls"] == 0 and m["topology.encode.s"] == 0.0
    assert set(m) == {name for name, _, _ in tracer.PER_LAYER} - {"trace.overhead_s", "trace.overhead_frac"}


@pytest.mark.parametrize(
    "cls",
    [
        small(workloads.SynthFlips, queries=2),
        small(workloads.EvalFlips, queries=4),
        small(workloads.FitWide, widths=(5, 70), contexts_per_width=2),
    ],
)
def test_seed_plumbing(cls, tmp_path):
    def digest(seed):
        wl = cls(seed, tmp_path / f"s{seed}", workloads.OutcomeCounter())
        wl.prepare()
        return wl.setup()

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_traced_counts_repeat_exactly(tmp_path):
    cls = small(workloads.EvalFlips, queries=6, splits=2)
    counts = []
    for i in range(2):
        with workloads.OutcomeCounter() as counter, tracer.Tracer(f"t{i}") as spans:
            wl = cls(3, tmp_path / f"p{i}", counter)
            wl.prepare()
            wl.setup()
            wl.operate()
        counts.append(tracer.count_metrics(layer_metrics(spans.spans, counter.scorer_failures)))
    assert counts[0] == counts[1]
    assert counts[0]["topology.encode.calls"] > 0 and counts[0]["data.gen.candidates"] > 0


def test_scorer_failures_count_once_per_call():
    rows = rsm.data.generate_flip_dataset(num_queries=3, weights=rsm.WeightVector(np.array((0.5, 0.3, 0.2))), seed=4).rows
    pairs = rsm.data.mine_flip_pairs(rows)

    def broken(row, item):
        raise RuntimeError("no score")

    before = rsm_attributes()
    with workloads.OutcomeCounter() as counter:
        rsm.evaluation.flip_accuracy(broken, pairs)
        rsm.evaluation.flip_accuracy(lambda row, item: 1.0, pairs)
    assert counter.scorer_failures == 4 * len(pairs)  # rsm logs every failed item
    assert (counter.scorer_calls, counter.failed_scorer_calls) == (2, 1)
    assert (counter.attempted, counter.failed) == (2, 1)
    after = rsm_attributes()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_too_many_threads_are_refused(monkeypatch):
    monkeypatch.setenv("RSM_THREADS", str(environment.nproc() + 1))
    assert any("RSM_THREADS" in p for p in environment.thread_problems())
    monkeypatch.delenv("RSM_THREADS")
    assert environment.thread_problems() == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_wide", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
