"""Span tracing of the rsm layers, done from outside the package.

A :class:`Tracer` replaces public ``rsm`` functions with timing wrappers.
Each wrapper is installed at every ``rsm`` module attribute that holds the
original function, because callers look functions up through their own
module: ``rsm.data.stationary``, ``rsm.topology.stationary`` and
``rsm.evaluation.stationary`` are all the same ``rsm.markov.stationary``.
Spans stay in memory until the run ends; :func:`layer_metrics` turns them
into the per-layer counts and times listed in ``PER_LAYER``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# The metric definition, not a mirror of rsm.config: stationary solves of
# n <= 64 count as "direct" and larger ones as "power" even if the program
# later moves its own threshold.
DIRECT_MAX_N = 64

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("topology.encode.calls", "count", "lower"),
    ("topology.encode.s", "s", "lower"),
    ("topology.combine.calls", "count", "lower"),
    ("topology.combine.s", "s", "lower"),
    ("topology.rank_items.s", "s", "lower"),
    ("markov.stationary.direct.calls", "count", "lower"),
    ("markov.stationary.direct.s", "s", "lower"),
    ("markov.stationary.power.calls", "count", "lower"),
    ("markov.stationary.power.s", "s", "lower"),
    ("learner.fit.calls", "count", "lower"),
    ("learner.fit.s", "s", "lower"),
    ("learner.fit.iterations", "count", "lower"),
    ("learner.fit.s_per_iter", "s", "lower"),
    ("learner.fit.unconverged", "count", "lower"),
    ("data.gen.s", "s", "lower"),
    ("data.gen.candidates", "count", "lower"),
    ("data.gen.accept_ratio", "ratio", "higher"),
    ("data.gen.dropped", "count", "lower"),
    ("data.generate_synthetic.s", "s", "lower"),
    ("data.save_csv.s", "s", "lower"),
    ("data.save_csv.bytes", "bytes", "lower"),
    ("data.save_instances.s", "s", "lower"),
    ("data.save_instances.bytes", "bytes", "lower"),
    ("data.load_csv.s", "s", "lower"),
    ("data.mine_flip_pairs.s", "s", "lower"),
    ("data.mine_flip_pairs.pairs", "count", "higher"),
    ("data.paired_split.s", "s", "lower"),
    ("data.topologies_from_row.calls", "count", "lower"),
    ("data.topologies_from_row.s", "s", "lower"),
    ("data.training_instances_from_rows.s", "s", "lower"),
    ("data.feature_rows_from_logs.s", "s", "lower"),
    ("baselines.fit_least_squares.calls", "count", "lower"),
    ("baselines.fit_least_squares.s", "s", "lower"),
    ("baselines.predict.calls", "count", "lower"),
    ("baselines.predict.s", "s", "lower"),
    ("evaluation.run_experiment.s", "s", "lower"),
    ("evaluation.run_experiment.self_s", "s", "lower"),
    ("evaluation.flip_accuracy.calls", "count", "lower"),
    ("evaluation.flip_accuracy.s", "s", "lower"),
    ("evaluation.scorer_failures", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def patch(module_name: str, attr: str, make_wrapper) -> list:
    """Replace ``module_name.attr`` by ``make_wrapper(original)`` wherever rsm holds it.

    Every ``rsm`` module attribute bound to the original gets the wrapper.
    Returns the (module, attribute, original) bindings for :func:`unpatch`.
    """
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    patched = []
    for key, module in list(sys.modules.items()):
        if (key == "rsm" or key.startswith("rsm.")) and getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)
            patched.append((module, attr, original))
    return patched


def unpatch(patched: list) -> None:
    """Put back the bindings :func:`patch` replaced, last first; empties the list."""
    while patched:
        module, attr, original = patched.pop()
        setattr(module, attr, original)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, id, name, start, end, parent, run, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.attrs = attrs or {}

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _stationary_name(fn, args, kwargs) -> str:
    matrix = args[0] if args else kwargs["matrix"]
    return "markov.stationary.direct" if matrix.n <= DIRECT_MAX_N else "markov.stationary.power"


def _fit_attrs(fn, args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _gen_attrs(fn, args, kwargs, result) -> dict:
    requested = _bound(fn, args, kwargs)["num_queries"]
    return {"requested": requested, "accepted": len(result.rows) // 2}


def _bytes_written(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _pairs_attrs(fn, args, kwargs, result) -> dict:
    return {"pairs": len(result)}


# (module, attribute, span name or namer, result annotator)
TARGETS = (
    ("rsm.topology", "encode_rank_topology", "topology.encode", None),
    ("rsm.topology", "combine", "topology.combine", None),
    ("rsm.topology", "rank_items", "topology.rank_items", None),
    ("rsm.markov", "stationary", _stationary_name, None),
    ("rsm.learner", "fit", "learner.fit", _fit_attrs),
    ("rsm.data", "generate_flip_dataset", "data.gen", _gen_attrs),
    ("rsm.data", "generate_synthetic", "data.generate_synthetic", None),
    ("rsm.data", "save_csv", "data.save_csv", _bytes_written),
    ("rsm.data", "save_instances", "data.save_instances", _bytes_written),
    ("rsm.data", "load_csv", "data.load_csv", None),
    ("rsm.data", "mine_flip_pairs", "data.mine_flip_pairs", _pairs_attrs),
    ("rsm.data", "paired_split", "data.paired_split", None),
    ("rsm.data", "topologies_from_row", "data.topologies_from_row", None),
    ("rsm.data", "training_instances_from_rows", "data.training_instances_from_rows", None),
    ("rsm.data", "feature_rows_from_logs", "data.feature_rows_from_logs", None),
    ("rsm.baselines", "fit_least_squares", "baselines.fit_least_squares", None),
    ("rsm.baselines", "predict", "baselines.predict", None),
    ("rsm.evaluation", "run_experiment", "evaluation.run_experiment", None),
    ("rsm.evaluation", "flip_accuracy", "evaluation.flip_accuracy", None),
    ("rsm.cli", "main", "cli.main", None),
)


class Tracer:
    """Records one span per call of every wrapped function.

    Use as a context manager: entering installs the wrappers, leaving puts
    every original attribute back. Spans of one tracer share ``run_id``.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, annotate=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            label = name(fn, args, kwargs) if callable(name) else name
            attrs = annotate(fn, args, kwargs, result) if annotate else None
            tracer.spans.append(Span(span_id, label, start, end, parent, tracer.run_id, attrs))
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, annotate in TARGETS:
            self._patched += patch(module_name, attr, lambda fn: self.wrap(fn, name, annotate))

    def restore(self) -> None:
        unpatch(self._patched)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": [s.as_dict() for s in self.spans]}, handle)
            handle.write("\n")


def self_time(span: Span, children) -> float:
    """Duration of ``span`` minus the part of it its children cover."""
    covered = 0.0
    cursor = span.start
    for start, end in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return (span.end - span.start) - covered


def layer_metrics(spans, scorer_failures: int = 0) -> dict:
    """Per-layer counts and times, keyed by the ``PER_LAYER`` names.

    A layer the run never entered reports zero calls and zero seconds.
    Scorer failures are only logged by rsm, so the caller counts them. The
    ``trace.*`` entries are left to the caller, which knows the untraced
    timing.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def calls(name):
        return len(by_name[name])

    def seconds(name):
        return sum((s.end - s.start for s in by_name[name]), 0.0)

    def self_seconds(name):
        return sum((self_time(s, children[s.id]) for s in by_name[name]), 0.0)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    gen_ids = {s.id for s in by_name["data.gen"]}
    gen_solves = sum(
        1
        for name in ("markov.stationary.direct", "markov.stationary.power")
        for s in by_name[name]
        if s.parent in gen_ids
    )
    candidates = gen_solves // 2
    accepted = attr_sum("data.gen", "accepted")
    iterations = attr_sum("learner.fit", "iterations")
    fit_s = seconds("learner.fit")
    out = {
        "learner.fit.iterations": iterations,
        "learner.fit.s_per_iter": fit_s / iterations if iterations else 0.0,
        "learner.fit.unconverged": sum(1 for s in by_name["learner.fit"] if not s.attrs["converged"]),
        "data.gen.candidates": candidates,
        "data.gen.accept_ratio": accepted / candidates if candidates else 0.0,
        "data.gen.dropped": attr_sum("data.gen", "requested") - accepted,
        "evaluation.scorer_failures": scorer_failures,
    }
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in out or base == "trace":
            continue
        if field == "calls":
            out[name] = calls(base)
        elif field == "s":
            out[name] = seconds(base)
        elif field == "self_s":
            out[name] = self_seconds(base)
        else:
            out[name] = attr_sum(base, field)
    return out


def count_metrics(metrics: dict) -> dict:
    """The subset of metrics that must repeat exactly between identical runs."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: value for name, value in metrics.items() if units.get(name) in ("count", "bytes")}
