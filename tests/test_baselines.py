"""Least-squares CTR regression and the context-oblivious ``train_ctr`` baseline."""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rsm import FeatureRow, ShapeError, fit_least_squares, predict, true_ctr_model
from rsm import config
from rsm.baselines import fit_least_squares_arrays
from rsm.record import ContextRecord, RecordView

from conftest import make_row


def rows_from_design(design, targets):
    return [
        FeatureRow(query_id="q", item_id=f"i{j}", features=design[j], ctr=float(targets[j]))
        for j in range(len(targets))
    ]


class TestLeastSquares:
    def test_exact_affine_recovery(self):
        rng = np.random.default_rng(12)
        beta = np.array([0.04, -0.03, 0.02])
        intercept = 0.3
        design = rng.random((30, 3))
        targets = design @ beta + intercept
        model = fit_least_squares(rows_from_design(design, targets))
        assert_allclose(model.coefficients, beta, atol=1e-8)
        assert abs(model.intercept - intercept) < 1e-8
        assert not model.used_ridge
        for j in range(5):
            probe = FeatureRow("q", "p", design[j], 0.0)
            assert abs(predict(model, probe) - targets[j]) < 1e-8

    def test_position_bias_yields_negative_coefficient(self):
        """Clicks driven by display position alone: the position weight is < 0."""
        rng = np.random.default_rng(44)
        rows = []
        for q in range(40):
            for pos in range(1, 6):
                ctr = max(0.0, 0.5 - 0.08 * pos + rng.normal(0.0, 0.01))
                features = np.array([rng.random(), float(pos)])
                rows.append(FeatureRow(f"q{q}", f"i{pos}", features, min(ctr, 1.0)))
        model = fit_least_squares(rows)
        assert model.coefficients[1] < 0.0

    def test_rank_deficient_falls_back_to_ridge(self):
        rng = np.random.default_rng(17)
        col = rng.random(12)
        design = np.column_stack([col, 2.0 * col, rng.random(12)])
        targets = 0.1 * col + 0.2
        model = fit_least_squares(rows_from_design(design, targets))
        assert model.used_ridge
        # predictions still track the targets despite the degenerate design
        preds = [predict(model, FeatureRow("q", "p", design[j], 0.0)) for j in range(12)]
        assert float(np.max(np.abs(np.array(preds) - targets))) < 1e-3

    def test_constant_column_is_harmless(self):
        rng = np.random.default_rng(23)
        design = np.column_stack([rng.random(15), np.full(15, 3.0)])
        targets = 0.2 * design[:, 0] + 0.1
        model = fit_least_squares(rows_from_design(design, targets))
        preds = [predict(model, FeatureRow("q", "p", design[j], 0.0)) for j in range(15)]
        assert float(np.max(np.abs(np.array(preds) - targets))) < 1e-8

    def test_nested_fit_never_fits_worse(self):
        """Adding a column cannot increase the residual sum of squares."""
        rng = np.random.default_rng(99)
        for _ in range(10):
            m = int(rng.integers(10, 25))
            design = rng.random((m, 3))
            targets = rng.random(m)
            small = fit_least_squares(rows_from_design(design[:, :2], targets))
            big = fit_least_squares(rows_from_design(design, targets))
            ssr_small = sum(
                (predict(small, FeatureRow("q", "p", design[j, :2], 0.0)) - targets[j]) ** 2
                for j in range(m)
            )
            ssr_big = sum(
                (predict(big, FeatureRow("q", "p", design[j], 0.0)) - targets[j]) ** 2
                for j in range(m)
            )
            assert ssr_big <= ssr_small + 1e-10

    def test_demands_enough_rows(self):
        rng = np.random.default_rng(1)
        design = rng.random((3, 3))
        with pytest.raises(ValueError):
            fit_least_squares(rows_from_design(design, [0.1, 0.2, 0.3]))

    def test_predict_arity_guard(self):
        rng = np.random.default_rng(2)
        design = rng.random((6, 2))
        model = fit_least_squares(rows_from_design(design, rng.random(6)))
        with pytest.raises(ShapeError):
            predict(model, FeatureRow("q", "p", np.array([1.0, 2.0, 3.0]), 0.0))

    def test_mixed_arity_rejected(self):
        rows = [
            FeatureRow("q", "a", np.array([1.0, 2.0]), 0.1),
            FeatureRow("q", "b", np.array([1.0]), 0.2),
        ]
        with pytest.raises(ShapeError):
            fit_least_squares(rows)


    def test_array_core_checks_its_input(self):
        rng = np.random.default_rng(3)
        design, target = rng.random((8, 3)), rng.random(8)
        model = fit_least_squares_arrays(design, target)
        reference = fit_least_squares(rows_from_design(design, target))
        assert model.coefficients.tobytes() == reference.coefficients.tobytes()
        assert model.intercept == reference.intercept
        with pytest.raises(ValueError, match="at least one row"):
            fit_least_squares_arrays(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValueError, match="at least 4 rows"):
            fit_least_squares_arrays(design[:3], target[:3])
        with pytest.raises(ShapeError):
            fit_least_squares_arrays(design, target[:7])
        with pytest.raises(ShapeError):
            fit_least_squares_arrays(design[0], target[:1])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                fit_least_squares_arrays(design, np.where(np.arange(8) == 5, bad, target))
            with pytest.raises(ValueError, match="finite"):
                fit_least_squares_arrays(np.where(design > 0.9, bad, design), target)

    def test_a_rank_deficient_design_logs_one_ridge_warning(self, caplog):
        """A duplicated column falls back to ridge, flagged on the model and logged once; a full-rank design logs nothing."""
        rng = np.random.default_rng(8)
        design, target = rng.random((12, 2)), rng.random(12)
        with caplog.at_level(logging.WARNING, logger="rsm.baselines"):
            assert not fit_least_squares_arrays(design, target).used_ridge
            assert caplog.records == []
            assert fit_least_squares_arrays(np.column_stack([design, design[:, 1]]), target).used_ridge
        assert [(record.name, record.levelname) for record in caplog.records] == [("rsm.baselines", "WARNING")]
        assert "rank 2 of 3" in caplog.text and f"RIDGE_TAU = {config.RIDGE_TAU:g}" in caplog.text


class TestConstantScorer:
    """The context-oblivious mean training CTR per (query, item) of ``true_ctr_model``, on constructed rows."""

    @staticmethod
    def rows(rng, shown, clicks=None):
        """One row per entry of ``shown``, ``(query, items)``, with fractional clicks unless given."""
        return [
            make_row(query, f"c{c}", items, rng.random(len(items)) * 10 if clicks is None else clicks[c],
                     {"f0": rng.random(len(items))})
            for c, (query, items) in enumerate(shown)
        ]

    def test_averages_repeated_observations(self):
        """A (query, item) shown in several contexts scores its CTRs' sum in row order over their count, bit for bit;
        a context without clicks adds nothing."""
        rng = np.random.default_rng(5)
        shown = [("q1", "ab"), ("q1", "ca"), ("q1", "bac"), ("q2", "ab"), ("q1", "abcd"), ("q1", "ab")]
        rows = self.rows(rng, shown)
        rows[-1] = make_row("q1", "quiet", "ab", [0, 0], {"f0": [1.0, 2.0]})
        model = true_ctr_model()
        assert model.name == "train_ctr"
        scores = model.fit(rows)(rows)
        for query, item in [("q1", "a"), ("q1", "b"), ("q1", "c"), ("q1", "d"), ("q2", "a")]:
            ctrs = [(row.clicks / row.clicks.sum())[row.items.index(item)]
                    for row in rows[:-1] if row.query_id == query and item in row.items]
            total = 0.0
            for ctr in ctrs:
                total += ctr
            for row, row_scores in zip(rows, scores):
                if row.query_id == query and item in row.items:
                    assert row_scores[row.items.index(item)] == total / len(ctrs)
        assert len([row for row in rows if row.query_id == "q1" and "a" in row.items]) == 5

    def test_unseen_pairs_score_zero(self):
        rng = np.random.default_rng(6)
        scorer = true_ctr_model().fit(self.rows(rng, [("q1", "ab"), ("q1", "ab")]))
        seen, unseen_item, unseen_query = self.rows(rng, [("q1", "ab"), ("q1", ["a", "zz"]), ("q9", "ab")])
        scores = scorer([seen, unseen_item, unseen_query])
        assert (scores[0] > 0).all()
        assert scores[1][1] == 0.0 and scores[1][0] == scores[0][0]
        assert scores[2].tolist() == [0.0, 0.0]

    def test_a_records_view_scores_as_its_rows_do(self):
        """Fitted on a view of part of a record, in another order, or on the same rows as a plain list, which codes
        the (query, item) names afresh: the scores are bit-equal, on rows of either record and on rows of neither."""
        rows = self.rows(np.random.default_rng(9), [("q1", "ab"), ("q2", "ab"), ("q1", "bca"), ("q1", "ca"), ("q2", "ba")])
        record = ContextRecord.of_rows(rows)
        view = RecordView(record, np.array([4, 2, 3], dtype=np.intp), record.rows)
        others = self.rows(np.random.default_rng(10), [("q1", "abc"), ("q2", "ab"), ("q9", "ad")])
        for scored in (rows, others):
            from_view, from_list = true_ctr_model().fit(view)(scored), true_ctr_model().fit(list(view))(scored)
            assert [s.tobytes() for s in from_view] == [s.tobytes() for s in from_list]

    def test_same_item_same_score_everywhere(self):
        """No notion of context: one score per (query, item), however many contexts showed it, and whatever its
        CTR there."""
        rows = self.rows(np.random.default_rng(7), [("q", "ab"), ("q", "ac"), ("q", "abc"), ("q", "ba")],
                         clicks=[[1, 3], [3, 1], [1, 1, 2], [1, 1]])
        scores = true_ctr_model().fit(rows)(rows)
        a_scores = {row_scores[row.items.index("a")] for row, row_scores in zip(rows, scores)}
        assert len({(row.clicks / row.clicks.sum())[row.items.index("a")] for row in rows}) == 3  # a's CTR differs between contexts
        assert a_scores == {(0.25 + 0.75 + 0.25 + 0.5) / 4}
