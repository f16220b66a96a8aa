"""Flip accuracy, paired t-tests and the repeated-split experiment runner."""

import json
import logging
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import stdtr  # test-only oracle; rsm does not import scipy

import rsm.data
import rsm.evaluation
import rsm.learner
import rsm.record
from rsm import config
from rsm import (
    DatasetSchema,
    DegenerateVariance,
    Direction,
    FeatureSpec,
    FeatureRow,
    FlipPair,
    Model,
    WeightVector,
    batch_from_rows,
    combine,
    constant_model,
    feature_rows_from_logs,
    fit_least_squares,
    fixed_weights_model,
    flip_accuracy,
    least_squares_model,
    mine_flip_pairs,
    paired_split,
    paired_t_test,
    predict,
    rsm_model,
    run_experiment,
    stationary,
    synthetic_schema,
    topologies_from_row,
    true_ctr_model,
)
from rsm.evaluation import _t_two_sided_tail as two_sided_tail

from conftest import make_row, random_reporting_weights

FEATS = {"price": [1.0, 2.0], "rating": [4.0, 3.0]}


def build_pairs(count, seed=0):
    """Synthetic flip pairs with slightly varied click patterns."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        a_clicks = int(rng.integers(6, 12))
        b_clicks = int(rng.integers(2, a_clicks - 1))
        r1 = make_row(f"q{i}", "c1", ["a", "b"], [a_clicks, b_clicks], FEATS)
        r2 = make_row(f"q{i}", "c2", ["a", "b"], [b_clicks, a_clicks], FEATS)
        pairs.append(FlipPair(row_1=r1, row_2=r2, item_a="a", item_b="b", strength=0.5))
    return pairs


def random_flip_pairs(count, k, seed=0, widths=(3,)):
    """Flip pairs with random features and clicks, pair ``i``'s contexts ``widths[i % len(widths)]`` items wide."""
    rng = np.random.default_rng(seed)
    names = synthetic_schema(k).names
    pairs = []
    for i in range(count):
        rows, n = [], widths[i % len(widths)]
        for c, (hi, lo) in enumerate([(0, 1), (1, 0)]):
            clicks = rng.integers(1, 20, size=n).astype(float)
            clicks[hi] = clicks[lo] + rng.integers(5, 20)
            feats = {name: rng.random(n) for name in names}
            rows.append(make_row(f"q{i}", f"c{c}", ["a", "b"] + [f"x{c}_{j}" for j in range(n - 2)], clicks, feats))
        pairs.append(FlipPair(row_1=rows[0], row_2=rows[1], item_a="a", item_b="b", strength=0.5))
    return pairs


def item_ctr(row, item):
    return float((row.clicks / row.clicks.sum())[row.items.index(item)])


def per_item(score):
    """The row-list scorer that scores each item with ``score(row, item)``."""
    return lambda rows: [[score(row, item) for item in row.items] for row in rows]


ctr_scorer = per_item(item_ctr)


class TestFlipAccuracy:
    def test_true_ctr_scorer_is_perfect(self):
        assert flip_accuracy(ctr_scorer, build_pairs(20)) == 1.0

    def test_constant_scorer_is_exactly_half(self):
        scorer = constant_model().fit([])
        assert flip_accuracy(scorer, build_pairs(17)) == 0.5

    def test_inverted_scorer_is_zero(self):
        inverted = per_item(lambda row, item: -item_ctr(row, item))
        assert flip_accuracy(inverted, build_pairs(9)) == 0.0

    def test_antisymmetry_without_ties(self):
        pairs = build_pairs(15, seed=3)
        acc = flip_accuracy(ctr_scorer, pairs)
        inv = flip_accuracy(per_item(lambda r, i: -item_ctr(r, i)), pairs)
        assert acc + inv == pytest.approx(1.0, abs=1e-15)

    def test_monotone_transform_invariance(self):
        pairs = build_pairs(12, seed=5)
        base = flip_accuracy(ctr_scorer, pairs)
        for transform in (math.exp, lambda s: 3.0 * s - 7.0, lambda s: s**3):
            assert flip_accuracy(per_item(lambda r, i: transform(item_ctr(r, i))), pairs) == base

    def test_context_oblivious_scorer_is_half(self):
        """Any per-(query, item) table lands at exactly 0.5 on strict flips."""
        rng = np.random.default_rng(8)
        pairs = build_pairs(25, seed=8)
        table = {(p.row_1.query_id, item): float(rng.random()) for p in pairs for item in ("a", "b")}
        oblivious = per_item(lambda row, item: table[(row.query_id, item)])
        assert flip_accuracy(oblivious, pairs) == 0.5

    def test_failing_scorer_forfeits_at_half(self):
        def broken(rows):
            raise RuntimeError("no score")

        assert flip_accuracy(broken, build_pairs(4)) == 0.5

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            flip_accuracy(ctr_scorer, [])

    def test_pairs_with_repeated_ids_scored_separately(self):
        """Two datasets reuse q00000/c00000/c00001 with the preferred item swapped."""
        pairs = []
        for a, b in (("a", "b"), ("b", "a")):
            r1 = make_row("q00000", "c00000", [a, b], [8, 3], FEATS)
            r2 = make_row("q00000", "c00001", [a, b], [3, 8], FEATS)
            pairs.append(FlipPair(row_1=r1, row_2=r2, item_a=a, item_b=b, strength=0.5))
        assert [flip_accuracy(ctr_scorer, [p]) for p in pairs] == [1.0, 1.0]
        assert flip_accuracy(ctr_scorer, pairs) == 1.0


def oracle_credit(preferred, other):
    """``_credit`` as it was when scorers answered one item at a time; None marks a failure."""
    if preferred is None or other is None:
        return 0.5
    if preferred > other:
        return 1.0
    if preferred == other:
        return 0.5
    return 0.0


def oracle_flip_accuracy(scorer, pairs):
    """``flip_accuracy`` as it was for ``(row, item) -> float`` scorers, one scorer call per item."""
    if not pairs:
        raise ValueError("flip_accuracy needs at least one pair")
    cache = {}

    def get(row, item):
        key = (row, item)
        if key not in cache:
            try:
                cache[key] = float(scorer(row, item))
            except Exception:
                cache[key] = None
        return cache[key]

    total = 0.0
    for pair in pairs:
        total += oracle_credit(get(pair.row_1, pair.item_a), get(pair.row_1, pair.item_b))
        total += oracle_credit(get(pair.row_2, pair.item_b), get(pair.row_2, pair.item_a))
    return total / (2 * len(pairs))


@st.composite
def scored_flip_pairs(draw):
    """Flip pairs that share rows, integer scores (so exact ties occur) and a set of rows to fail on."""
    rows = []
    for q in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 4))
        for c in range(draw(st.integers(2, 4))):
            clicks = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
            rows.append(make_row(f"q{q}", f"c{c}", [f"i{j}" for j in range(n)], clicks, {"f0": np.arange(n)}))
    candidates = [
        FlipPair(row_1=one, row_2=two, item_a=one.items[a], item_b=one.items[b], strength=0.5)
        for one in rows
        for two in rows
        if one.query_id == two.query_id
        for a, b in combinations(range(one.n), 2)
        if one.clicks[a] > one.clicks[b] and two.clicks[a] < two.clicks[b]
    ]
    assume(candidates)
    pairs = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=12))
    scores = {row: [float(v) for v in draw(st.lists(st.integers(-2, 2), min_size=row.n, max_size=row.n))] for row in rows}
    failing = draw(st.sets(st.sampled_from(rows)))
    return pairs, scores, failing


class WarningMessages(logging.Handler):
    """The messages of the WARNING records ``rsm.evaluation`` logs while installed, in order."""

    def __enter__(self):
        self.messages = []
        logging.getLogger("rsm.evaluation").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("rsm.evaluation").removeHandler(self)

    def emit(self, record):
        if record.levelno == logging.WARNING:
            self.messages.append(record.getMessage())


def failing_vector(mode, values, turn):
    """``values`` as the ``mode`` of failing row answers: ``turn`` counts the failing rows before it in the call."""
    if mode == "short":
        return np.array(values[:-1])
    if mode == "nan":
        return np.array(values[:-1] + [math.nan])
    if mode == "long_short":  # alternately one entry too long and one too short, so paired failures keep the total
        return np.array(values + [0.0] if turn % 2 == 0 else values[:-1])
    if mode == "column":
        return np.array(values)[:, None]
    return [repr(v) for v in values]  # "strings": numeric strings convert row by row, so they do not fail


class TestFlipAccuracyOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=scored_flip_pairs(), mode=st.sampled_from(["raise", "short", "nan", "long_short", "column", "strings"]))
    def test_equals_the_per_item_oracle(self, case, mode):
        """A failing row raises the whole batch call or comes back a bad vector: one score short, with a NaN, one
        too long next to one too short, as an ``(n, 1)`` column. Numeric strings score as their numbers. Each
        failed row, and only those, logs one warning, in the order the rows were passed."""
        pairs, scores, failing = case
        failed = set() if mode == "strings" else failing
        passed = []

        def batch(rows):
            if not passed:
                passed.extend(rows)
            if mode == "raise" and failing.intersection(rows):
                raise RuntimeError("no score")
            bad = [row for row in rows if row in failing]
            return [failing_vector(mode, scores[row], bad.index(row)) if row in failing else np.array(scores[row])
                    for row in rows]

        def per_item(row, item):
            if row in failed:
                raise RuntimeError("no score")
            return scores[row][row.items.index(item)]

        with WarningMessages() as messages:
            assert flip_accuracy(batch, pairs) == oracle_flip_accuracy(per_item, pairs)
        assert [message.split(":")[0] for message in messages] == [
            f"scorer failed on {row.query_id}/{row.context_id}" for row in passed if row in failed
        ]

    def test_valid_model_scores_are_the_row_by_row_conversion_bit_for_bit(self, caplog):
        """The one-step check returns, for every built-in model's scorer on a held-out split, the same bits as
        converting each row's vector on its own and concatenating them, and logs nothing."""
        schema = synthetic_schema(2)
        pairs = random_flip_pairs(16, 2, seed=8, widths=(3, 4, 5))
        train, test = rsm.record.pairs_view(pairs).record.split(0.5, 1)
        rows, _ = test.record.comparisons(test.index)
        with caplog.at_level(logging.WARNING, logger="rsm.evaluation"):
            for model in (rsm_model(schema), least_squares_model(schema), constant_model(), true_ctr_model()):
                scorer = model.fit(train)
                want = np.concatenate([np.asarray(v, dtype=np.float64) for v in scorer(rows)])
                got = rsm.evaluation._checked_scores(scorer, rows)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), model.name
        assert caplog.records == []

    def test_one_scorer_call_and_one_warning_per_failed_row(self, caplog):
        pairs = build_pairs(3) + random_flip_pairs(2, 2, seed=4)
        bad = {pairs[0].row_2, pairs[3].row_1}
        calls = []

        def scorer(rows):
            calls.append(len(rows))
            return [[math.nan] * row.n if row in bad else row.clicks / row.clicks.sum() for row in rows]

        with caplog.at_level(logging.WARNING, logger="rsm.evaluation"):
            assert flip_accuracy(scorer, pairs) == (2 * len(pairs) - 2 + 1.0) / (2 * len(pairs))
        assert calls == [2 * len(pairs)]
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "scorer failed on q0/c2",
            "scorer failed on q0/c0",
        ]

    def test_a_raising_batch_is_retried_row_by_row(self):
        pairs = build_pairs(4)
        bad = pairs[1].row_1
        calls = []

        def scorer(rows):
            calls.append(len(rows))
            if bad in rows:
                raise RuntimeError("no score")
            return ctr_scorer(rows)

        assert flip_accuracy(scorer, pairs) == 7.5 / 8
        assert calls == [8] + [1] * 8


def t_density(x, df):
    """Student-t density with ``df`` degrees of freedom over an array of points."""
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return np.exp(log_norm - ((df + 1.0) / 2.0) * np.log1p(x * x / df))


def p_value_by_quadrature(t, df):
    """Two-sided p via trapezoid integration of the t density on [0, |t|]."""
    grid = np.linspace(0.0, abs(t), 200_001)
    inner = float(np.trapezoid(t_density(grid, df), grid))
    return 2.0 * (0.5 - inner)


VIEW_SCHEMA = DatasetSchema(features=(FeatureSpec("price", Direction.LOWER_IS_BETTER), FeatureSpec("rating")))


class TestRecordViewKinds:
    """A record's view indexes either its rows or its flip pairs, and each reader of a view refuses the other
    kind with a TypeError, rather than reading pair indices as row indices or row indices as pair indices."""

    PAIR_READERS = {
        "flip_accuracy": lambda view: flip_accuracy(ctr_scorer, view),
        "paired_split": paired_split,
        "pairs_view": lambda view: rsm.record.pairs_view(view),
    }
    ROW_READERS = {
        "rsm_fit": lambda view: rsm_model(VIEW_SCHEMA).fit(view),
        "least_squares_fit": lambda view: least_squares_model(VIEW_SCHEMA).fit(view),
        "train_ctr_fit": lambda view: true_ctr_model().fit(view),
        "stationary_scorer": lambda view: fixed_weights_model(VIEW_SCHEMA, WeightVector(np.array([0.5, 0.5]))).fit([])(view),
        "batch_from_rows": lambda view: batch_from_rows(view, VIEW_SCHEMA),
        "feature_rows_from_logs": lambda view: feature_rows_from_logs(view, VIEW_SCHEMA),
        "record_view": lambda view: rsm.record.record_view(view),
    }

    def split(self):
        """A 3-query, 9-pair record's training rows and test pairs: three items flip pairwise in each query."""
        feats = {"price": [1.0, 2.0, 3.0], "rating": [3.0, 1.0, 2.0]}
        rows = [make_row(f"q{q}", f"c{c}", ["a", "b", "c"], clicks, feats)
                for q in range(3) for c, clicks in enumerate(([9, 6, 3], [3, 6, 9]))]
        view = rsm.record.pairs_view(mine_flip_pairs(rows))
        assert len(view) == 9 and len(view.record.rows) == 6
        return view.record.split(0.5, 0)

    @pytest.mark.parametrize("reader", PAIR_READERS)
    def test_pair_readers_refuse_a_view_of_rows(self, reader):
        train_rows, _ = self.split()
        with pytest.raises(TypeError, match="expected a view of a record's pairs, got a view of its rows"):
            self.PAIR_READERS[reader](train_rows)

    @pytest.mark.parametrize("reader", ROW_READERS)
    def test_row_readers_refuse_a_view_of_pairs(self, reader):
        _, test_pairs = self.split()
        with pytest.raises(TypeError, match="expected a view of a record's rows, got a view of its pairs"):
            self.ROW_READERS[reader](test_pairs)


class TestPairedTTest:
    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(606)
        for _ in range(12):
            n = int(rng.integers(3, 40))
            diffs = rng.normal(rng.uniform(-0.05, 0.05), 0.1, size=n)
            if np.std(diffs, ddof=1) == 0.0:
                continue
            t, p = paired_t_test(diffs)
            expected_t = float(np.mean(diffs) / (np.std(diffs, ddof=1) / math.sqrt(n)))
            assert t == pytest.approx(expected_t, abs=1e-12)
            assert p == pytest.approx(p_value_by_quadrature(t, n - 1), abs=1e-6)

    def test_all_zero_diffs(self):
        assert paired_t_test([0.0, 0.0, 0.0]) == (0.0, 1.0)

    def test_constant_nonzero_is_degenerate(self):
        with pytest.raises(DegenerateVariance):
            paired_t_test([0.25, 0.25, 0.25])

    def test_needs_two_diffs(self):
        with pytest.raises(ValueError):
            paired_t_test([0.1])

    def test_p_floor(self):
        t, p = paired_t_test([0.5 + 1e-9 * i for i in range(50)])
        assert p >= 1e-300
        assert t > 1e6
        assert two_sided_tail(t, 49) == 0.0  # the tail underflows; the floor is reported
        assert p == config.P_VALUE_FLOOR

    def test_zero_mean_gives_p_one(self):
        assert paired_t_test([0.1, -0.1, 0.2, -0.2]) == (0.0, 1.0)


T_GRID = np.logspace(-12, 3.5, 63)


class TestTwoSidedTail:
    """The in-house Student-t tail against closed forms and scipy as a test-only oracle."""

    def test_closed_form_one_degree_of_freedom(self):
        for t in T_GRID.tolist():
            expected = (2.0 / math.pi) * math.atan2(1.0, t)
            for signed in (t, -t):
                assert two_sided_tail(signed, 1) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_closed_form_two_degrees_of_freedom(self):
        for t in T_GRID.tolist():
            s = math.sqrt(2.0 + t * t)
            expected = 2.0 / (s * (s + t))  # 1 - t / s without the cancellation
            for signed in (t, -t):
                assert two_sided_tail(signed, 2) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("dfs", [range(2, 101), range(101, 201), (499, 999)], ids=["2-100", "101-200", "499,999"])
    def test_matches_scipy_stdtr(self, dfs):
        for df in dfs:
            reference = 2.0 * stdtr(df, -T_GRID)
            for t, ref in zip(T_GRID.tolist(), reference.tolist()):
                if ref >= 1e-290:
                    assert two_sided_tail(t, df) == pytest.approx(ref, rel=1e-10, abs=0.0), (df, t)

    @settings(max_examples=300, deadline=None)
    @given(
        df=st.integers(1, 1000),
        t=st.floats(-30.0, 30.0, allow_nan=False),
        further=st.floats(0.0, 30.0, allow_nan=False),
    )
    def test_is_a_probability_even_and_falling_in_abs_t(self, df, t, further):
        # |t| <= 30 keeps the tail above 1e-198 at every df, clear of underflow
        p = two_sided_tail(t, df)
        assert 0.0 < p <= 1.0
        assert two_sided_tail(-t, df) == p
        larger = min(abs(t) + further, 30.0)
        assert two_sided_tail(larger, df) <= p * (1.0 + 1e-12)  # slack: the helper's own roundoff


class TestRunExperiment:
    def test_oracle_and_constant_extremes(self):
        pairs = build_pairs(10, seed=1)
        oracle = Model(name="oracle", fit=lambda rows: ctr_scorer)
        report = run_experiment(pairs, [oracle, constant_model()], num_splits=6, seed=0)
        assert report.mean_accuracy["oracle"] == 1.0
        assert report.mean_accuracy["constant"] == 0.5
        assert report.num_pairs == 10
        assert len(report.per_split["oracle"]) == 6

    def test_identical_models_tie_cleanly(self):
        pairs = build_pairs(8, seed=2)
        a = Model(name="a", fit=lambda rows: ctr_scorer)
        b = Model(name="b", fit=lambda rows: ctr_scorer)
        report = run_experiment(pairs, [a, b], num_splits=5, seed=3)
        entry = report.t_tests["a|b"]
        assert not entry["degenerate"]
        assert entry["t"] == 0.0
        assert entry["p"] == 1.0

    def test_reproducible_for_fixed_seed(self):
        pairs = build_pairs(9, seed=4)
        models = [Model(name="oracle", fit=lambda rows: ctr_scorer), constant_model()]
        r1 = run_experiment(pairs, models, num_splits=8, seed=12)
        r2 = run_experiment(pairs, models, num_splits=8, seed=12)
        assert r1.to_json() == r2.to_json()
        r_other = run_experiment(pairs, models, num_splits=8, seed=13)
        assert r_other.seed == 13
        assert r_other.to_json() != r1.to_json()

    def test_a_pairs_view_is_shared_and_a_splits_side_recorded_alone(self):
        """A view of all of a record's pairs serves every run over them; a split's test side, a view of some
        of them, runs as its own pairs and scores as a view of its record."""
        pairs = build_pairs(12, seed=6)
        view = rsm.record.pairs_view(pairs)
        assert rsm.record.pairs_view(view) is view and list(view) == pairs
        models = [Model(name="oracle", fit=lambda rows: ctr_scorer), constant_model()]
        assert run_experiment(view, models, num_splits=4, seed=2).to_json() == run_experiment(pairs, models, num_splits=4, seed=2).to_json()
        _, test = view.record.split(0.5, 3)
        alone = rsm.record.pairs_view(test)
        assert alone.record is not view.record and list(alone) == list(test) and len(alone.record.pairs) == len(test)
        assert run_experiment(test, models, num_splits=3, seed=1).to_json() == run_experiment(list(test), models, num_splits=3, seed=1).to_json()
        assert flip_accuracy(ctr_scorer, test) == flip_accuracy(ctr_scorer, list(test)) == 1.0

    def test_duplicate_model_names_rejected(self):
        pairs = build_pairs(4)
        with pytest.raises(ValueError):
            run_experiment(pairs, [constant_model(), constant_model()], num_splits=2)

    def test_each_row_encoded_once_across_splits(self, monkeypatch):
        """Counts, not timings: the run's record ranks each row once, one call per width, and builds one space
        of every width before the first split ends; later splits call no encoder, and the pairs are clustered once."""
        k = 3
        pairs = random_flip_pairs(12, k, seed=5, widths=(3, 5, 3, 2))
        schema = synthetic_schema(k)
        weights = WeightVector(np.full(k, 1.0 / k))
        encoded = {(rsm.record, "average_ranks"): [], (rsm.data, "rank_chain"): [], (rsm.record, "rank_space"): [],
                   (rsm.learner, "context_space"): [], (rsm.data, "paired_split"): []}
        for module, kernel in encoded:
            def counting_kernel(*args, real=getattr(module, kernel), calls=encoded[module, kernel]):
                calls.append(tuple(sorted(getattr(arg, "shape", (0,))[0] for arg in args)))  # each argument's length
                return real(*args)

            monkeypatch.setattr(module, kernel, counting_kernel)
        real_of_pairs, clustered = rsm.record.ContextRecord.of_pairs.__func__, []

        def counting_of_pairs(cls, pairs):
            clustered.append(len(pairs))
            return real_of_pairs(cls, pairs)

        monkeypatch.setattr(rsm.record.ContextRecord, "of_pairs", classmethod(counting_of_pairs))
        real_split, splits, after_first = rsm.record.ContextRecord.split, [], {}

        def snapshot_split(record, *args):
            splits.append(1)
            if len(splits) == 2:  # the second split starts: the first has ended
                after_first.update({key: len(calls) for key, calls in encoded.items()})
            return real_split(record, *args)

        monkeypatch.setattr(rsm.record.ContextRecord, "split", snapshot_split)
        models = [rsm_model(schema), least_squares_model(schema), fixed_weights_model(schema, weights)]
        run_experiment(pairs, models, num_splits=4, seed=7)
        # every row sits on one side of every split, so all rows are ranked, each once, one call per width, and
        # put in one space; the scorers solve in rank space and chain no ranks into n x n tensors
        assert sorted(encoded[rsm.record, "average_ranks"]) == [(6,), (6,), (12,)]
        assert encoded[rsm.record, "rank_space"] == [(6, 6, 12)]
        assert encoded[rsm.data, "rank_chain"] == encoded[rsm.learner, "context_space"] == []
        assert len(splits) == 4 and after_first == {key: len(calls) for key, calls in encoded.items()}
        assert clustered == [len(pairs)] and encoded[rsm.data, "paired_split"] == []

    def test_flip_accuracy_called_once_per_model_per_split(self, monkeypatch):
        """Benchmarks count ``run_experiment``'s calls through the module attribute."""
        calls = []
        real = rsm.evaluation.flip_accuracy

        def counting(scorer, pairs):
            calls.append(len(pairs))
            return real(scorer, pairs)

        monkeypatch.setattr(rsm.evaluation, "flip_accuracy", counting)
        inverted = Model(name="inverted", fit=lambda rows: per_item(lambda row, item: -item_ctr(row, item)))
        models = [Model(name="oracle", fit=lambda rows: ctr_scorer), constant_model(), inverted]
        report = run_experiment(build_pairs(10, seed=1), models, num_splits=4, seed=0)
        assert len(calls) == 12
        assert report.mean_accuracy == {"oracle": 1.0, "constant": 0.5, "inverted": 0.0}

    def test_the_counts_benchmarks_rely_on(self, monkeypatch, caplog):
        """One ``learner.fit`` per split and one ``flip_accuracy`` per model per split, both looked up
        on their modules, and exactly one ``scorer failed on`` warning per failed row."""
        fits, scored, failed = [], [], []
        real_fit, real_accuracy = rsm.learner.fit, rsm.evaluation.flip_accuracy

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        def counting_accuracy(scorer, pairs):
            scored.append(len(pairs))
            return real_accuracy(scorer, pairs)

        def flaky_scorer(rows):
            failed.extend(f"{row.query_id}/{row.context_id}" for row in rows if row.context_id == "c0")
            return [np.full(row.n, math.nan) if row.context_id == "c0" else row.clicks / row.clicks.sum() for row in rows]

        monkeypatch.setattr(rsm.learner, "fit", counting_fit)
        monkeypatch.setattr(rsm.evaluation, "flip_accuracy", counting_accuracy)
        schema = synthetic_schema(2)
        models = [rsm_model(schema), least_squares_model(schema), Model(name="flaky", fit=lambda rows: flaky_scorer)]
        with caplog.at_level(logging.WARNING, logger="rsm.evaluation"):
            report = run_experiment(random_flip_pairs(12, 2, seed=6), models, num_splits=3, seed=2)
        assert len(fits) == 3
        assert len(scored) == 9
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert all(message.startswith("scorer failed on ") for message in warnings)
        assert [message.split(":")[0].removeprefix("scorer failed on ") for message in warnings] == failed
        assert len(failed) == sum(scored[2::3]) > 0  # each held-out pair has one c0 row
        assert all(type(acc) is float for accs in report.per_split.values() for acc in accs)

    def test_accepts_raw_rows(self):
        """Once mined: ``run_experiment`` takes flip pairs, and the pairs of raw rows give their pairs' report."""
        pairs = build_pairs(5, seed=9)
        mined = mine_flip_pairs([row for pair in pairs for row in (pair.row_1, pair.row_2)])
        report = run_experiment(mined, [constant_model()], num_splits=3, seed=0)
        assert report.num_pairs == len(mined) == 5
        assert report.to_json() == run_experiment(pairs, [constant_model()], num_splits=3, seed=0).to_json()
        with pytest.raises(TypeError, match="mine_flip_pairs"):
            run_experiment([pair.row_1 for pair in pairs], [constant_model()], num_splits=3, seed=0)


def mixed_direction_schema():
    """Three features, the middle one lower-is-better."""
    directions = (Direction.HIGHER_IS_BETTER, Direction.LOWER_IS_BETTER, Direction.HIGHER_IS_BETTER)
    return DatasetSchema(features=tuple(FeatureSpec(f"f{i}", d) for i, d in enumerate(directions)))


def random_rows(rng, schema, widths, tie=False):
    """One row per width with random features; with ``tie``, items 0 and 1 are tied on every feature."""
    rows = []
    for c, n in enumerate(widths):
        feats = {name: rng.random(n) for name in schema.names}
        if tie:
            for values in feats.values():
                values[1] = values[0]
        rows.append(make_row("q", f"c{c}", [f"i{j}" for j in range(n)], rng.integers(0, 9, n), feats))
    return rows


class TestFixedWeightsModel:
    def test_scores_are_stationary_mass_one_solve_per_call(self, monkeypatch):
        k, lam = 2, 0.2
        schema = synthetic_schema(k)
        weights = WeightVector([0.7, 0.3])
        rows = [row for pair in random_flip_pairs(3, k, seed=2) for row in (pair.row_1, pair.row_2)]
        rows += [make_row("q", f"w{n}", [f"i{j}" for j in range(n)], [1] * n, {"f0": np.arange(n), "f1": -np.arange(n)})
                 for n in (2, 4, 4)]
        expected = {
            id(row): stationary(combine(topologies_from_row(row, schema), weights, lam)).probs
            for row in rows
        }
        solves = []
        real_rows = rsm.evaluation.rank_chain_rows

        def counting_rank_chain_rows(space, w_native, lam, gradients=True):
            solves.append(([ranks.shape for ranks in space.stacks], gradients))
            return real_rows(space, w_native, lam, gradients)

        monkeypatch.setattr(rsm.evaluation, "rank_chain_rows", counting_rank_chain_rows)
        scorer = fixed_weights_model(schema, weights, lam).fit([])
        for _ in range(2):
            for row, scores in zip(rows, scorer(rows)):
                assert_allclose(scores, expected[id(row)], rtol=1e-12, atol=0.0)
        assert solves == [([(6, 2, 3), (1, 2, 2), (2, 2, 4)], False)] * 2  # one space of every width per call

    @pytest.mark.parametrize("n", [2, 5, 64, 65, 200])
    def test_scores_match_combine_then_stationary(self, n):
        """The rank-space solve agrees with the dense mixture and solve on both sides of the direct-solve limit."""
        rng = np.random.default_rng(710 + n)
        schema = mixed_direction_schema()
        weights = random_reporting_weights(rng, 3)
        scorer = fixed_weights_model(schema, weights, 0.15).fit([])
        rows = random_rows(rng, schema, [n] * 4)
        for row, scores in zip(rows, scorer(rows)):
            expected = stationary(combine(topologies_from_row(row, schema), weights, 0.15)).probs
            assert_allclose(scores, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_a_mixed_width_batch_scores_like_single_rows(self, n):
        """Bit for bit at every width: a context's scores do not depend on its batch."""
        rng = np.random.default_rng(720 + n)
        schema = synthetic_schema(3)
        weights = random_reporting_weights(rng, 3)
        rows = random_rows(rng, schema, [n, 3, n, 2, n, 3, n])
        scorer = fixed_weights_model(schema, weights, 0.15).fit([])
        batch = scorer(rows)
        alone = [scorer([row])[0] for row in rows]
        for together, single in zip(batch, alone):
            assert together.tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_items_tied_on_every_feature_score_bit_equal(self, n):
        """Exchangeable items have exactly equal stationary mass, and score so."""
        rng = np.random.default_rng(730 + n)
        schema = mixed_direction_schema()
        weights = random_reporting_weights(rng, 3)
        rows = random_rows(rng, schema, [n] * 40, tie=True)
        for scores in fixed_weights_model(schema, weights, 0.15).fit([])(rows):
            assert scores[0] == scores[1]

    def test_scoring_allocates_no_dense_tensor(self):
        """30 contexts at n = 200: scoring allocates nothing the size of their (B, k, n, n) tensor."""
        rng = np.random.default_rng(740)
        schema = synthetic_schema(3)
        scorer = fixed_weights_model(schema, WeightVector([0.5, 0.3, 0.2]), 0.15).fit([])
        rows = random_rows(rng, schema, [200] * 30)
        tensor_bytes = 30 * 3 * 200 * 200 * 8
        tracemalloc.start()
        try:
            scores = scorer(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scores) == 30
        assert peak < tensor_bytes / 4

    def test_weights_checked_when_the_scorer_is_built(self):
        schema = synthetic_schema(3)
        with pytest.raises(ValueError):
            fixed_weights_model(schema, WeightVector([0.5, 0.5])).fit([])
        native = WeightVector([0.5, 0.3, 0.2]).as_native(0.15)
        with pytest.raises(ValueError):
            fixed_weights_model(schema, native).fit([])

    def test_rows_with_repeated_ids_scored_separately(self):
        schema = synthetic_schema(2)
        weights = WeightVector([0.5, 0.5])
        feats = [{"f0": [0.1, 0.5, 0.9], "f1": [0.2, 0.3, 0.4]}, {"f0": [0.9, 0.5, 0.1], "f1": [0.4, 0.3, 0.2]}]
        rows = [make_row("q00000", "c00000", ["a", "b", "c"], [3, 2, 1], f) for f in feats]
        scorer = fixed_weights_model(schema, weights).fit([])
        first, second = (scores.tolist() for scores in scorer(rows))
        assert first[0] < first[2]
        assert second == pytest.approx(first[::-1], rel=1e-12)


class TestLeastSquaresModel:
    def test_scores_equal_predict_to_roundoff(self):
        """The scorer's one product per call agrees with ``predict`` item by item, up to roundoff."""
        rng = np.random.default_rng(99)
        schema = synthetic_schema(3)
        rows = []
        for c in range(14):
            n = int(rng.integers(2, 7))
            clicks = rng.integers(0, 9, n) if c % 5 else np.zeros(n)
            feats = {name: rng.random(n) * 10 for name in schema.names}
            rows.append(make_row("q", f"c{c}", [f"i{j}" for j in range(n)], clicks, feats, rng.permutation(n) + 1))
        train = rows[:10]
        scorer = least_squares_model(schema).fit(train)
        model = fit_least_squares(feature_rows_from_logs(train, schema))
        for row, scores in zip(rows, scorer(rows)):
            for i, item in enumerate(row.items):
                values = [row.features[name][i] for name in schema.names] + [float(row.positions[i])]
                probe = FeatureRow(query_id=row.query_id, item_id=item, features=np.array(values), ctr=0.0)
                assert scores[i] == pytest.approx(predict(model, probe), rel=1e-13, abs=1e-15)

    def test_needs_clicked_training_rows(self):
        quiet = make_row("q", "c", ["a", "b"], [0, 0], {name: [1.0, 2.0] for name in synthetic_schema(2).names})
        with pytest.raises(ValueError, match="at least one row"):
            least_squares_model(synthetic_schema(2)).fit([quiet])


class TestReportSerialization:
    def report(self):
        pairs = build_pairs(6, seed=6)
        models = [Model(name="oracle", fit=lambda rows: ctr_scorer), constant_model()]
        return run_experiment(pairs, models, num_splits=4, seed=5)

    def test_json_round_trips(self):
        report = self.report()
        payload = json.loads(report.to_json())
        assert payload["models"] == ["oracle", "constant"]
        assert payload["num_splits"] == 4
        assert payload["mean_accuracy"]["oracle"] == 1.0

    def test_splits_csv_shape(self):
        report = self.report()
        lines = report.splits_csv().strip().split("\n")
        assert lines[0] == "split,oracle,constant"
        assert len(lines) == 1 + 4

    def test_text_mentions_every_model(self):
        text = self.report().to_text()
        assert "oracle" in text and "constant" in text
