"""Flip-prediction experiments: repeated paired splits and significance tests.

A model here is anything with a name and a ``fit(train_rows)`` method that
returns a scorer; a scorer maps a list of rows to one score vector per row,
aligned with its items, higher meaning more preferred within that context.
Accuracy is measured on held-out flip pairs, two comparisons per pair.

A run splits the record of its pairs, gathered by ``mine_flip_pairs`` from the loaded record (``rsm.record.pairs_view``
records hand-built pairs); each split is index arrays into it, which the built-in models and scorers gather.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config, learner
from .baselines import fit_least_squares_arrays
from .data import DatasetSchema, FlipPair, LogRow, batch_from_rows, derive_seed, design_from_rows
from .errors import DegenerateVariance
from .markov import rank_chain_rows
from .record import RecordView, check_train_fraction, clicked_view, pairs_view, record_view
from .markov import stationary  # noqa: F401 - perfbench's tracer patches rsm.evaluation.stationary
from .topology import WeightVector

log = logging.getLogger(__name__)

ScorerFn = Callable[[Sequence[LogRow]], Sequence[np.ndarray]]


@dataclass(frozen=True)
class Model:
    """A named factory: fit on training rows, get back a scorer. ``dataclasses.replace(model, name=...)`` renames it."""

    name: str
    fit: Callable[[Sequence[LogRow]], ScorerFn]


# ---------------------------------------------------------------------------
# Model factories.
# ---------------------------------------------------------------------------


def rsm_model(schema: DatasetSchema, cfg: Optional[learner.LearnerConfig] = None) -> Model:
    """Random-shopper model: learn topology weights, score by stationary mass.

    Scores are computed per context from the fitted mixture, so the same
    item can score differently in different contexts; that is the point.
    """
    cfg = cfg or learner.LearnerConfig()

    def fit_fn(train_rows: Sequence[LogRow]) -> ScorerFn:
        result = learner.fit(batch_from_rows(train_rows, schema), cfg)
        return _stationary_scorer(schema, result.weights, cfg.lam)

    return Model(name="rsm", fit=fit_fn)


def fixed_weights_model(schema: DatasetSchema, weights: WeightVector, lam: float = config.DEFAULT_LAMBDA) -> Model:
    """Random-shopper scorer with known weights; no fitting. For oracles."""

    return Model(name="rsm_true", fit=lambda train_rows: _stationary_scorer(schema, weights, lam))


def _stationary_scorer(schema: DatasetSchema, weights: WeightVector, lam: float) -> ScorerFn:
    """Score items by stationary mass in their own context, one solve per call.

    Every chain scored is a mixture of rank chains, so the rows' products,
    gathered from their record into one space of every width, go to the
    learner's kernel ``rank_chain_rows``, which solves each context in the
    span of its ranks. Scores do not depend on the batch; items tied on every
    feature tie exactly.
    """
    native = weights.as_native(lam).values
    if native.size != schema.k:
        raise ValueError(f"the scorer needs {schema.k} weights, got {native.size}")

    def scorer(rows: Sequence[LogRow]) -> List[np.ndarray]:
        view = record_view(rows)
        space, at = view.record.space(view.index, schema)
        return _per_row(rank_chain_rows(space, native, lam, gradients=False)[0].take(at), view)

    return scorer


def _per_row(values: np.ndarray, view: RecordView) -> List[np.ndarray]:
    """The flat per-item ``values`` of a view's rows, row after row, as one vector per row."""
    ends = np.cumsum(view.record.sizes[view.index]).tolist()
    return [values[start:end] for start, end in zip([0] + ends, ends)]


def least_squares_model(schema: DatasetSchema) -> Model:
    """Linear CTR regression on raw feature values (plus display position).

    Fits on ``design_from_rows``; the scorer predicts with one product,
    ``intercept + design @ coefficients``, equal to ``predict`` up to roundoff.
    """

    def fit_fn(train_rows: Sequence[LogRow]) -> ScorerFn:
        model = fit_least_squares_arrays(*design_from_rows(train_rows, schema))

        def scorer(rows: Sequence[LogRow]) -> List[np.ndarray]:
            view = record_view(rows)
            design = view.record.encoding(schema)[2][view.record.items(view.index)]
            return _per_row(model.intercept + design @ model.coefficients, view)

        return scorer

    return Model(name="least_squares", fit=fit_fn)


def true_ctr_model() -> Model:
    """Memorizes each (query, item) mean training CTR, the record's CTRs summed in row order by its ``item_keys``;
    0.0 if unseen. Looked up by name, each distinct (query, item) of the scored record's ``item_keys`` once: a
    (query, item) scores the same in every context and record, so it never predicts a flip."""

    def fit_fn(train_rows: Sequence[LogRow]) -> ScorerFn:
        view = clicked_view(train_rows)
        places = view.record.items(view.index)
        codes, keys = view.record.item_keys
        counts = np.bincount(codes[places], minlength=len(keys))
        sums = np.bincount(codes[places], view.record.ctrs[places], minlength=len(keys))  # each key's CTRs added in row order
        seen = np.flatnonzero(counts).tolist()
        means = dict(zip(map(keys.__getitem__, seen), (sums[seen] / counts[seen]).tolist()))

        def scorer(rows: Sequence[LogRow]) -> List[np.ndarray]:
            view = record_view(rows)
            codes, keys = view.record.item_keys
            codes = codes[view.record.items(view.index)]
            _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
            scores = np.array([means.get(keys[code], 0.0) for code in codes[first].tolist()], dtype=np.float64)
            return _per_row(scores[inverse], view)

        return scorer

    return Model(name="train_ctr", fit=fit_fn)


def constant_model() -> Model:
    """Scores every item identically, taking the rows' sizes from their record. Lands exactly at chance on flip pairs."""

    def scorer(rows: Sequence[LogRow]) -> List[np.ndarray]:
        view = record_view(rows)
        return [np.zeros(n) for n in view.record.sizes[view.index].tolist()]

    return Model(name="constant", fit=lambda train_rows: scorer)


# ---------------------------------------------------------------------------
# Accuracy and significance.
# ---------------------------------------------------------------------------


def flip_accuracy(scorer: ScorerFn, pairs: Sequence[FlipPair]) -> float:
    """Fraction of flip comparisons a scorer gets right.

    Each pair contributes two comparisons: in row_1 the preferred item is a,
    in row_2 it is b. Full credit for ranking the preferred item strictly
    higher, half for an exact tie, none otherwise. The pairs' distinct rows
    (by identity), as a record's view, are scored in one scorer call; if it
    raises, each row is scored alone. The scores are checked here, the
    scorer's output being outside input (see ``_checked_scores``): a row
    whose scores raise or are not ``n`` finite floats logs a warning and
    forfeits each of its comparisons at half credit. The comparisons are
    then credited together, from the checked scores gathered by index.
    """
    if not pairs:
        raise ValueError("flip_accuracy needs at least one pair")
    pairs = pairs.of("pairs") if isinstance(pairs, RecordView) else pairs_view(pairs)  # a split's side keeps its record
    rows, index = pairs.record.comparisons(pairs.index)
    scores = _checked_scores(scorer, rows)
    preferred, other = scores[index[:, 0]], scores[index[:, 1]]
    credit = int(np.count_nonzero(preferred > other)) + 0.5 * int(np.count_nonzero(preferred == other))
    return credit / (2 * len(pairs))


def _checked_scores(scorer: ScorerFn, rows: RecordView) -> np.ndarray:
    """The rows' scores end to end, from one scorer call on all of them when it gives ``n`` finite floats per row.

    That batch is checked in one step: one concatenation, its vectors' lengths against the rows' sizes, one
    finiteness test. Otherwise one pass names the failed rows: it takes each row's vector from the batch, or from
    the row's own call when the batch call raised or gave the wrong count. A failed row logs one warning, in row
    order, and scores all zero: tied, half credit on every comparison.
    """
    try:
        batch = list(scorer(rows))
        if len(batch) != len(rows):
            raise ValueError(f"{len(batch)} score vectors for {len(rows)} rows")
    except Exception:  # noqa: BLE001 - scorer is user code; rows are retried one by one below
        batch = None
    else:
        try:  # a batch passes here only if every row would pass below, with the same values
            scores = np.concatenate(batch, dtype=np.float64)
            sized = scores.ndim == 1 and list(map(len, batch)) == rows.record.sizes[rows.index].tolist()
            if sized and np.isfinite(scores).all():
                return scores
        except Exception:  # noqa: BLE001 - e.g. numeric strings, which convert row by row but do not concatenate
            pass
    values = []
    for pos, row in enumerate(rows):
        try:
            row_scores = np.asarray(batch[pos] if batch is not None else scorer([row])[0], dtype=np.float64)
            if row_scores.shape != (row.n,) or not np.isfinite(row_scores).all():
                raise ValueError(f"expected {row.n} finite scores, got {row_scores!r}")
        except Exception as exc:  # noqa: BLE001 - scorer is user code
            log.warning("scorer failed on %s/%s: %s", row.query_id, row.context_id, exc)
            row_scores = np.zeros(row.n)
        values.append(row_scores)
    return np.concatenate(values)


def paired_t_test(diffs: Sequence[float]) -> Tuple[float, float]:
    """Two-sided paired t-test on per-split accuracy differences.

    Returns ``(t, p)``. All-zero differences are a degenerate perfect tie
    and come back as (0.0, 1.0); zero variance around a nonzero mean has no
    finite statistic and raises ``DegenerateVariance``.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    n = diffs.size
    if n < 2:
        raise ValueError("paired t-test needs at least two differences")
    if np.all(diffs == 0.0):
        return 0.0, 1.0
    sd = float(np.std(diffs, ddof=1))
    if sd == 0.0:
        raise DegenerateVariance(
            "differences are constant and nonzero; the t statistic is unbounded"
        )
    t = float(np.mean(diffs)) / (sd / math.sqrt(n))
    p = min(max(_t_two_sided_tail(t, n - 1), config.P_VALUE_FLOOR), 1.0)
    return t, p


_BETA_CF_TOL = 2.0**-52  # one ulp at 1.0
_BETA_CF_MAX_TERMS = 100_000
_BETA_CF_TINY = 1e-300


def _t_two_sided_tail(t: float, df: int) -> float:
    """Two-sided Student-t tail ``P(|T| >= |t|)`` with ``df`` degrees of freedom.

    Equals the regularised incomplete beta ``I_x(df/2, 1/2)`` at
    ``x = df / (df + t^2)``; ``x`` and ``1 - x = t^2 / (df + t^2)`` are each
    formed directly, so neither loses digits to cancellation. Underflows to
    0.0 far in the tail.
    """
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    x, y = df / (df + t2), t2 / (df + t2)
    if y == 0.0:  # t^2 is negligible against df
        return 1.0
    a, b = 0.5 * df, 0.5
    # log of x^a y^b / B(a, b), shared by both sides of the symmetry switch
    log_front = a * math.log(x) + b * math.log(y) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    if x <= (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(b, a, y) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of ``I_x(a, b)`` (DLMF 8.17.22) by modified Lentz.

    ``I_x(a, b) = x^a (1 - x)^b / (a B(a, b))`` times the returned value. It
    converges quickly for ``x <= (a + 1) / (a + b + 2)``, in about
    ``sqrt(max(a, b))`` terms; the caller uses the symmetry
    ``I_x(a, b) = 1 - I_{1-x}(b, a)`` beyond that point.
    """
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _BETA_CF_TINY else _BETA_CF_TINY)
    value = d
    for m in range(1, _BETA_CF_MAX_TERMS + 1):
        # even step d_{2m}, then odd step d_{2m+1}
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) >= _BETA_CF_TINY else _BETA_CF_TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) >= _BETA_CF_TINY else _BETA_CF_TINY
            step = c * d
            value *= step
        if abs(step - 1.0) <= _BETA_CF_TOL:
            return value
    raise ArithmeticError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


# ---------------------------------------------------------------------------
# Experiments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Results of a repeated paired-split flip experiment.

    Serialization is deterministic: same inputs and seed give byte-identical
    JSON, text and CSV (no timestamps, no environment state).
    """

    model_names: Tuple[str, ...]
    num_pairs: int
    num_splits: int
    train_fraction: float
    seed: int
    mean_accuracy: Dict[str, float]
    std_accuracy: Dict[str, float]
    per_split: Dict[str, Tuple[float, ...]]
    t_tests: Dict[str, dict]

    def to_json(self) -> str:
        payload = {
            "models": list(self.model_names),
            "num_pairs": self.num_pairs,
            "num_splits": self.num_splits,
            "train_fraction": self.train_fraction,
            "seed": self.seed,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "per_split": {k: list(v) for k, v in self.per_split.items()},
            "t_tests": self.t_tests,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        width = max(len("model"), max((len(m) for m in self.model_names), default=0))
        lines = [
            f"flip experiment: {self.num_pairs} pairs, {self.num_splits} splits, "
            f"train fraction {self.train_fraction:g}, seed {self.seed}",
            "",
            f"{'model':<{width}}  {'mean':>8}  {'std':>8}",
        ]
        for name in self.model_names:
            lines.append(
                f"{name:<{width}}  {self.mean_accuracy[name]:8.4f}  {self.std_accuracy[name]:8.4f}"
            )
        if self.t_tests:
            lines.append("")
            for key in sorted(self.t_tests):
                entry = self.t_tests[key]
                a, b = key.split("|")
                if entry["degenerate"]:
                    lines.append(f"{a} vs {b}: degenerate (constant nonzero differences)")
                else:
                    lines.append(f"{a} vs {b}: t = {entry['t']:.4f}, p = {entry['p']:.3e}")
        return "\n".join(lines) + "\n"

    def splits_csv(self) -> str:
        header = "split," + ",".join(self.model_names)
        lines = [header]
        for s in range(self.num_splits):
            cells = [str(s)] + [repr(self.per_split[m][s]) for m in self.model_names]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def check_experiment(names: Sequence[str], num_splits: int, train_fraction: float) -> None:
    """The option checks of :func:`run_experiment`, which need no data: a ``ValueError`` unless ``names`` are
    nonempty and unique, ``num_splits`` positive and ``train_fraction`` in (0, 1)."""
    if not names:
        raise ValueError("at least one model is required")
    if len(set(names)) != len(names):
        raise ValueError("model names must be unique")
    if num_splits < 1:
        raise ValueError("num_splits must be positive")
    check_train_fraction(train_fraction)


def run_experiment(
    pairs: Sequence[FlipPair],
    models: Sequence[Model],
    num_splits: int = config.DEFAULT_NUM_SPLITS,
    seed: int = 0,
    train_fraction: float = config.DEFAULT_TRAIN_FRACTION,
) -> ExperimentReport:
    """Repeated paired-split evaluation of several models on one dataset.

    Takes flip pairs, as ``mine_flip_pairs`` returns them, recorded and clustered once,
    or in any sequence, recorded here; fewer than two raise ``SplitTooSmall``.
    Every split (``paired_split`` with a seed derived from ``seed``) re-fits
    every model on its training rows. The report's ``per_split`` holds each
    model's accuracy on every split, in split order.
    """
    if len(pairs) and not isinstance(pairs[0], FlipPair):
        raise TypeError("run_experiment takes flip pairs: mine click-log rows with mine_flip_pairs first")
    models = list(models)
    names = [m.name for m in models]
    check_experiment(names, num_splits, train_fraction)

    record = pairs_view(pairs).record
    split_accs = []
    for s in range(num_splits):
        train_rows, test_pairs = record.split(train_fraction, derive_seed(seed, f"split:{s}"))
        split_accs.append({model.name: flip_accuracy(model.fit(train_rows), test_pairs) for model in models})

    per_split = {name: tuple(accs[name] for accs in split_accs) for name in names}
    mean_accuracy = {name: float(np.mean(per_split[name])) for name in names}
    std_accuracy = {name: float(np.std(per_split[name], ddof=1)) if num_splits > 1 else 0.0 for name in names}
    t_tests: Dict[str, dict] = {}
    for first, second in combinations(names if num_splits > 1 else (), 2):
        try:
            t, p = paired_t_test(np.array(per_split[first]) - np.array(per_split[second]))
            t_tests[f"{first}|{second}"] = {"t": t, "p": p, "degenerate": False}
        except DegenerateVariance:
            t_tests[f"{first}|{second}"] = {"t": None, "p": None, "degenerate": True}
    return ExperimentReport(
        model_names=tuple(names), num_pairs=len(pairs), num_splits=num_splits, train_fraction=train_fraction,
        seed=seed, mean_accuracy=mean_accuracy, std_accuracy=std_accuracy, per_split=per_split, t_tests=t_tests,
    )

