"""The benchmark workloads.

Each workload draws the raw data whose cost varies with the seed
(``prepare``, untimed), builds its inputs at a cost the seed does not
change (``setup``), runs one fixed operation through rsm's public API or
its in-process CLI (``operate``), and checks what came out (``check``).
``operate`` returns the wall times of its timed parts; checks run outside
those times.

Every repeat of ``operate`` in a run does identical work on identical
inputs, so the outputs must be identical too. The time metrics are the
median repeat of a run. On a shared host, neighbour load changes the speed
for stretches of 10 to 20 s; over a run of 45 s the median repeat varied
less between runs than the fastest one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import statistics
import time
from pathlib import Path

import numpy as np

import rsm
import rsm.cli
import rsm.data
import rsm.learner
import rsm.topology
import tracer

TRUE_WEIGHTS = (0.5, 0.3, 0.2)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sub_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one named input, derived from the run's seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list) -> int:
    """``rsm.cli.main(argv)``, keeping its report text off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return rsm.cli.main(argv)


def timed(fn, *args):
    """(wall seconds, result) of ``fn(*args)``."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


class OutcomeCounter(logging.Handler):
    """Counts rsm's fits and scorer calls, and those that went wrong.

    rsm reports unconverged fits and scorer failures only through logging:
    one record per unconverged fit, and one per item a scorer failed on.
    Thin wrappers around ``rsm.learner.fit`` and
    ``rsm.evaluation.flip_accuracy`` count the calls. A scorer call counts
    as failed when any of its items failed, so ``failed`` and ``attempted``
    count the same operations and ``failed <= attempted``.
    """

    LOGGERS = ("rsm.learner", "rsm.evaluation")

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.fits = 0
        self.unconverged = 0
        self.scorer_calls = 0
        self.failed_scorer_calls = 0
        self.scorer_failures = 0  # failed items, as rsm logs them
        self._levels = {}
        self._patched = []

    @property
    def attempted(self) -> int:
        return self.fits + self.scorer_calls

    @property
    def failed(self) -> int:
        return self.unconverged + self.failed_scorer_calls

    def _count_fits(self, fit):
        def wrapper(*args, **kwargs):
            self.fits += 1
            return fit(*args, **kwargs)

        return wrapper

    def _count_scorer_calls(self, flip_accuracy):
        def wrapper(*args, **kwargs):
            before = self.scorer_failures
            result = flip_accuracy(*args, **kwargs)
            self.scorer_calls += 1
            self.failed_scorer_calls += self.scorer_failures > before
            return result

        return wrapper

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if record.name == "rsm.learner" and "unconverged" in message:
            self.unconverged += 1
        elif record.name == "rsm.evaluation" and message.startswith("scorer failed"):
            self.scorer_failures += 1

    def __enter__(self) -> "OutcomeCounter":
        for name in self.LOGGERS:
            logger = logging.getLogger(name)
            self._levels[name] = logger.level
            logger.setLevel(logging.DEBUG)
            logger.addHandler(self)
        self._patched += tracer.patch("rsm.learner", "fit", self._count_fits)
        self._patched += tracer.patch("rsm.evaluation", "flip_accuracy", self._count_scorer_calls)
        return self

    def __exit__(self, *exc) -> None:
        tracer.unpatch(self._patched)
        for name, level in self._levels.items():
            logger = logging.getLogger(name)
            logger.removeHandler(self)
            logger.setLevel(level)


class Workload:
    """One seeded job; subclasses fill in setup, operate, check and rates."""

    name = ""

    def __init__(self, seed: int, workdir: Path, counter: OutcomeCounter):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.counter = counter
        self.attempted = 0
        self.failed = 0
        self.first_output = None

    def prepare(self) -> None:
        """Draw the raw data whose cost depends on the seed; run once, untimed."""

    def setup(self) -> str:
        """Build the inputs at a cost the seed does not change; return their hash."""
        raise NotImplementedError

    def operate(self) -> tuple:
        """Run the operation once: ({timing name: [seconds]}, output)."""
        raise NotImplementedError

    def check(self, output) -> None:
        """Raise CheckFailed on a wrong output; count attempts and failures."""
        raise NotImplementedError

    def final_check(self) -> None:
        """Checks that need the whole run; most workloads have none."""

    def summary(self, samples: dict) -> dict:
        """rate_per_s and call_s from the timing samples, plus named figures."""
        raise NotImplementedError

    def same_as_first(self, key: str, output) -> None:
        if self.first_output is None:
            self.first_output = output
        check(output == self.first_output, f"{self.name}: {key} differs between identical repeats")


class SynthFlips(Workload):
    """``rsm synth --flips`` for 40 queries, repeated on one seed."""

    name = "synth_flips"
    queries = 40

    def setup(self) -> str:
        self.out_dir = self.workdir / "synth"
        self.argv = [
            "synth", "--out-dir", str(self.out_dir), "--queries", str(self.queries),
            "--k", "3", "--weights", ",".join(map(str, TRUE_WEIGHTS)), "--clicks", "10000",
            "--flips", "--seed", str(sub_seed(self.seed, self.name)),
        ]
        return hashlib.sha256(json.dumps(self.argv[3:]).encode()).hexdigest()

    def operate(self) -> tuple:
        seconds, code = timed(run_cli, self.argv)
        return {"synth": [seconds]}, code

    def check(self, code) -> None:
        check(code == 0, f"rsm synth exited with {code}")
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        schema = rsm.data.synthetic_schema(3)
        loaded = rsm.data.load_csv(self.out_dir / "dataset.csv", schema)
        check(not loaded.errors, f"dataset.csv reloads with {len(loaded.errors)} loader errors")
        accepted = len({row.query_id for row in loaded.rows})
        check(manifest["num_rows"] == 2 * accepted, "manifest num_rows is not twice the accepted queries")
        instances = rsm.data.load_instances(self.out_dir / "instances.json")
        check(len(instances) == manifest["num_instances"], "instances.json does not reload in full")
        pairs = rsm.data.mine_flip_pairs(loaded.rows)
        check(len(pairs) == accepted, f"{len(pairs)} flip pairs mined from {accepted} accepted queries")
        self.same_as_first("dataset.csv", sha256_file(self.out_dir / "dataset.csv"))
        self.accepted = accepted
        self.attempted += self.queries
        self.failed += self.queries - accepted

    def summary(self, samples: dict) -> dict:
        call = statistics.median(samples["synth"])
        return {
            "rate_per_s": self.accepted / call,
            "call_s": call,
            "named": {"synth_queries_per_s": (self.accepted / call, "1/s")},
        }


class EvalFlips(Workload):
    """``rsm eval`` with three models on a flip CSV, repeated on one seed."""

    name = "eval_flips"
    queries = 160
    margin = 0.01
    splits = 8
    models = ("rsm", "least_squares", "constant")

    def prepare(self) -> None:
        # Rejection sampling: how many candidates it tries depends on the seed.
        self.dataset = rsm.data.generate_flip_dataset(
            num_queries=self.queries,
            weights=rsm.WeightVector(np.array(TRUE_WEIGHTS)),
            margin=self.margin,
            seed=sub_seed(self.seed, self.name),
        )

    def setup(self) -> str:
        self.csv = self.workdir / "flips.csv"
        rsm.data.save_csv(self.dataset.rows, self.csv, self.dataset.schema)
        return sha256_file(self.csv)

    def operate(self) -> tuple:
        out_dir = self.workdir / "eval"
        argv = [
            "eval", str(self.csv), "--out-dir", str(out_dir), "--models", ",".join(self.models),
            "--splits", str(self.splits), "--seed", str(sub_seed(self.seed, "split")),
        ]
        attempted, failed = self.counter.attempted, self.counter.failed
        seconds, code = timed(run_cli, argv)
        outcomes = (self.counter.attempted - attempted, self.counter.failed - failed)
        return {"eval": [seconds]}, (code, out_dir, outcomes)

    def check(self, output) -> None:
        code, out_dir, (attempted, failed) = output
        check(code == 0, f"rsm eval exited with {code}")
        raw = (out_dir / "report.json").read_bytes()
        self.same_as_first("report.json", hashlib.sha256(raw).hexdigest())
        report = json.loads(raw)
        check(
            all(acc == 0.5 for acc in report["per_split"]["constant"]),
            "the constant model does not score exactly 0.5",
        )
        stats = report["t_tests"]["rsm|least_squares"]
        p = stats["p"]
        if stats["degenerate"]:
            # The same accuracy gap on every split leaves the t statistic
            # undefined; the exact two-sided sign test still applies.
            gaps = [a - b for a, b in zip(report["per_split"]["rsm"], report["per_split"]["least_squares"])]
            p = 2.0 * 0.5 ** len(gaps) if all(gap > 0 for gap in gaps) else 1.0
        check(
            report["mean_accuracy"]["rsm"] > report["mean_accuracy"]["least_squares"] and p < 0.01,
            f"rsm does not beat least_squares at p < 0.01: {report['mean_accuracy']}, {stats}",
        )
        self.pairs = report["num_pairs"]
        # one rsm fit per split, and one scorer call per model per split
        check(
            attempted == self.splits * (1 + len(self.models)),
            f"rsm eval made {attempted} fits and scorer calls, not one fit and one call per model per split",
        )
        self.attempted += attempted
        self.failed += failed

    def summary(self, samples: dict) -> dict:
        call = statistics.median(samples["eval"])
        return {
            "rate_per_s": self.splits / call,
            "call_s": call,
            "named": {"eval_splits_per_s": (self.splits / call, "1/s"), "eval_pairs": (self.pairs, "count")},
        }


class FitWide(Workload):
    """``learner.fit`` on wide noise-free contexts, then ranking every context."""

    name = "fit_wide"
    widths = (20, 64, 80, 200)
    contexts_per_width = 30
    rank_rounds = 4

    def setup(self) -> str:
        weights = rsm.WeightVector(np.array(TRUE_WEIGHTS))
        self.instances = []
        self.contexts = []
        digest = hashlib.sha256()
        for n in self.widths:
            spec = rsm.data.SyntheticSpec(
                k=3, num_queries=self.contexts_per_width, weights=weights, n=n,
                seed=sub_seed(self.seed, f"{self.name}:n{n}"),
            )
            dataset = rsm.data.generate_synthetic(spec)
            self.instances.extend(dataset.instances)
            seen = set()
            for inst in dataset.instances:
                if id(inst.topologies) not in seen:
                    seen.add(id(inst.topologies))
                    self.contexts.append((inst.topologies, inst.item_ids))
                    for top in inst.topologies:
                        digest.update(top.matrix.entries.tobytes())
            digest.update(np.array([inst.target_prob for inst in dataset.instances]).tobytes())
        return digest.hexdigest()

    def _rank_all(self, weights) -> list:
        return [
            rsm.topology.rank_items(rsm.topology.combine(topologies, weights), items)
            for topologies, items in self.contexts
        ]

    def operate(self) -> tuple:
        fit_s, result = timed(rsm.learner.fit, self.instances)
        rank_s = []
        for _ in range(self.rank_rounds):
            seconds, rankings = timed(self._rank_all, result.weights)
            rank_s.append(seconds)
        return {"fit": [fit_s], "rank": rank_s}, (result, rankings)

    def check(self, output) -> None:
        result, rankings = output
        check(result.converged, f"fit did not converge in {result.iterations} iterations")
        gap = float(np.max(np.abs(result.weights.values - np.array(TRUE_WEIGHTS))))
        check(gap <= 1e-3, f"weight recovery gap {gap:.2e} exceeds 1e-3")
        self.same_as_first("fitted weights", result.weights.values.tobytes())
        for ranking, (_, items) in zip(rankings, self.contexts):
            total = sum(prob for _, prob in ranking)
            check(len(ranking) == len(items) and abs(total - 1.0) <= 1e-9, f"a ranking sums to {total!r}")
        self.weights = result.weights
        self.attempted += 1

    def final_check(self) -> None:
        error = rsm.learner.sample_error(self.instances, self.weights)
        check(error <= 1e-4, f"sample error {error:.2e} exceeds 1e-4")

    def summary(self, samples: dict) -> dict:
        fit = statistics.median(samples["fit"])
        rate = len(self.contexts) / statistics.median(samples["rank"])
        return {
            "rate_per_s": rate,
            "call_s": fit,
            "named": {"wide_fit_s": (fit, "s"), "wide_rank_per_s": (rate, "1/s")},
        }


WORKLOADS = {cls.name: cls for cls in (SynthFlips, EvalFlips, FitWide)}
