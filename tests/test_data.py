"""Click-log parsing, flip mining, splitting and synthetic generation."""

import hashlib
import itertools
import logging
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rsm.data
from rsm import config
from rsm import (
    DatasetSchema,
    Direction,
    FeatureSpec,
    FlipPair,
    LogRow,
    SchemaError,
    SplitTooSmall,
    SyntheticSpec,
    TrainingInstance,
    WeightVector,
    batch_from_rows,
    combine,
    derive_seed,
    feature_rows_from_logs,
    generate_flip_dataset,
    generate_synthetic,
    load_csv,
    load_instances,
    encode_rank_topology,
    mine_flip_pairs,
    paired_split,
    save_csv,
    save_instances,
    stationary,
    synthetic_schema,
    topologies_from_row,
    training_instances_from_rows,
)
from rsm.data import topology_tensor

from conftest import make_row

SCHEMA = DatasetSchema(
    features=(
        FeatureSpec("price", Direction.LOWER_IS_BETTER),
        FeatureSpec("rating", Direction.HIGHER_IS_BETTER),
    )
)


def two_context_rows():
    r1 = make_row("q1", "c1", ["a", "b"], [6, 3], {"price": [10.0, 20.0], "rating": [3.0, 4.0]})
    r2 = make_row(
        "q1", "c2", ["a", "b", "c"], [2, 6, 1],
        {"price": [10.0, 20.0, 30.0], "rating": [3.0, 4.0, 5.0]},
    )
    return [r1, r2]


class TestLogRow:
    def test_ctrs_normalize(self):
        row = two_context_rows()[0]
        assert_allclose(row.ctrs(), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_zero_clicks_have_no_ctrs(self):
        row = make_row("q", "c", ["a", "b"], [0, 0], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        with pytest.raises(ValueError):
            row.ctrs()

    def test_click_total_and_ctrs_computed_once(self):
        row = make_row("q", "c", ["a", "b", "c"], [3, 0, 1], {"price": [1.0, 2.0, 3.0], "rating": [1.0, 2.0, 3.0]})
        assert row.total_clicks() == 4.0 and isinstance(row.total_clicks(), float)
        assert row.ctrs() is row.ctrs()
        assert row.ctrs().tolist() == [0.75, 0.0, 0.25]
        with pytest.raises(ValueError):
            row.ctrs()[0] = 0.5

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            make_row("q", "c", ["a", "a"], [1, 2], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})

    def test_single_item_rejected(self):
        with pytest.raises(ValueError):
            make_row("q", "c", ["a"], [1], {"price": [1.0], "rating": [1.0]})

    def test_negative_clicks_rejected(self):
        with pytest.raises(ValueError):
            make_row("q", "c", ["a", "b"], [1, -2], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_clicks_rejected(self, bad):
        with pytest.raises(ValueError, match="clicks must be finite"):
            make_row("q", "c", ["a", "b"], [1, bad], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="'rating' values must be finite"):
            make_row("q", "c", ["a", "b"], [1, 2], {"price": [1.0, 2.0], "rating": [bad, 2.0]})

    def test_features_are_read_only(self):
        row = two_context_rows()[0]
        with pytest.raises(TypeError):
            row.features["price"] = np.array([5.0, 6.0])
        with pytest.raises(ValueError):
            row.features["price"][0] = 5.0
        assert_allclose(row.features["price"], [10.0, 20.0], atol=0)


class TestCsvRoundTrip:
    def test_row_survive_save_and_load(self, tmp_path):
        rows = two_context_rows()
        path = tmp_path / "log.csv"
        save_csv(rows, path, SCHEMA)
        result = load_csv(path, SCHEMA)
        assert result.errors == []
        assert len(result.rows) == 2
        for orig, back in zip(rows, result.rows):
            assert back.items == orig.items
            assert back.query_id == orig.query_id
            assert_allclose(back.clicks, orig.clicks, atol=0)
            for name in SCHEMA.names:
                assert_allclose(back.features[name], orig.features[name], atol=0)

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("query_id,context_id,item_id,position,clicks,price\nq,c,a,1,2,1.0\n")
        with pytest.raises(SchemaError):
            load_csv(path, SCHEMA)

    def test_bad_line_drops_its_context_only(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "query_id,context_id,item_id,position,clicks,price,rating\n"
            "q,c1,a,1,3,1.0,2.0\n"
            "q,c1,b,2,4,2.0,3.0\n"
            "q,c2,a,1,oops,1.0,2.0\n"
            "q,c2,b,2,4,2.0,3.0\n"
            "q,c3,a,1,5,1.0,2.0\n"
            "q,c3,b,2,1,2.0,3.0\n"
        )
        result = load_csv(path, SCHEMA)
        assert [r.context_id for r in result.rows] == ["c1", "c3"]
        assert len(result.errors) == 1
        assert result.errors[0].line_number == 4

    def test_non_finite_cells_drop_their_context_only(self, tmp_path):
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            "query_id,context_id,item_id,position,clicks,price,rating\n"
            "q,c1,a,1,3,1.0,2.0\n"
            "q,c1,b,2,4,nan,3.0\n"
            "q,c2,a,1,inf,1.0,2.0\n"
            "q,c2,b,2,4,2.0,3.0\n"
            "q,c3,a,1,5,1.0,2.0\n"
            "q,c3,b,2,1,2.0,3.0\n"
        )
        result = load_csv(path, SCHEMA)
        assert [r.context_id for r in result.rows] == ["c3"]
        assert [e.line_number for e in result.errors] == [2, 4]
        assert "'price' values must be finite" in result.errors[0].message
        assert "clicks must be finite" in result.errors[1].message

    def test_single_line_context_reported(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "query_id,context_id,item_id,position,clicks,price,rating\n"
            "q,c1,a,1,3,1.0,2.0\n"
        )
        result = load_csv(path, SCHEMA)
        assert result.rows == []
        assert len(result.errors) == 1


HEADER = "query_id,context_id,item_id,position,clicks,price,rating\n"


def load_text(tmp_path, text):
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
    result = load_csv(path, SCHEMA)
    return result, [(e.line_number, e.message) for e in result.errors]


def summary(row):
    return (row.context_id, row.items, row.positions.tolist(), row.clicks.tolist(),
            {name: row.features[name].tolist() for name in SCHEMA.names})


class TestMalformedCsv:
    """Edge cases of the loader, pinned to exact line numbers, messages and surviving rows."""

    def test_short_line_reports_its_first_missing_cell(self, tmp_path):
        result, errors = load_text(
            tmp_path,
            HEADER + "q,c1,a,1,3,1.0,2.0\nq,c1,b,2,4,2.0\nq,c2,a,1,3,1.0,2.0\nq,c2,b,2,4,2.0,3.0\nq,c3,a\n",
        )
        assert errors == [(3, "line 3: empty 'rating' cell"), (6, "line 6: empty 'position' cell")]
        assert [summary(r) for r in result.rows] == [
            ("c2", ("a", "b"), [1, 2], [3.0, 4.0], {"price": [1.0, 2.0], "rating": [2.0, 3.0]})
        ]

    def test_extra_cells_are_ignored(self, tmp_path):
        result, errors = load_text(tmp_path, HEADER + "q,c1,a,1,3,1.0,2.0,x,y\nq,c1,b,2,4,2.0,3.0\n")
        assert errors == []
        assert [summary(r) for r in result.rows] == [
            ("c1", ("a", "b"), [1, 2], [3.0, 4.0], {"price": [1.0, 2.0], "rating": [2.0, 3.0]})
        ]

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        result, errors = load_text(
            tmp_path,
            HEADER
            + "q,c1,a,1,3,1.0,2.0\nq,c1,b,2,4,2.0,3.0\n\n\nq,c2,a,1,zz,1.0,2.0\nq,c2,b,2,4,2.0,3.0\n"
            + "\nq,c3,a,1,x,1.0,2.0\nq,c3,b,2,4,2.0,3.0\n\nq,c4,a,1,1,1.0,2.0\n\nq,c4,b,2,2,2.0,3.0\n",
        )
        assert errors == [(6, "line 6: non-numeric clicks 'zz'"), (9, "line 9: non-numeric clicks 'x'")]
        assert [r.context_id for r in result.rows] == ["c1", "c4"]
        assert result.rows[1].clicks.tolist() == [1.0, 2.0]

    def test_duplicated_feature_column_last_one_wins(self, tmp_path):
        result, errors = load_text(
            tmp_path,
            "query_id,context_id,item_id,position,clicks,price,rating,price\n"
            "q,c1,a,1,3,1.0,2.0,7.0\nq,c1,b,2,4,2.0,3.0,5.0\n",
        )
        assert errors == []
        assert [summary(r) for r in result.rows] == [
            ("c1", ("a", "b"), [1, 2], [3.0, 4.0], {"price": [7.0, 5.0], "rating": [2.0, 3.0]})
        ]

    def test_quoted_item_id_keeps_its_comma(self, tmp_path):
        result, errors = load_text(tmp_path, HEADER + 'q,c1,"a,1",1,3,1.0,2.0\nq,c1,b,2,4,2.0,3.0\n')
        assert errors == []
        assert result.rows[0].items == ("a,1", "b")

    def test_header_only_file_has_no_rows(self, tmp_path):
        result, errors = load_text(tmp_path, HEADER)
        assert result.rows == [] and errors == []

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(SchemaError, match="file is empty"):
            load_text(tmp_path, "")

    def test_byte_order_mark_hides_the_first_column(self, tmp_path):
        with pytest.raises(SchemaError, match=r"^missing columns: query_id$"):
            load_text(tmp_path, "﻿" + HEADER + "q,c1,a,1,3,1.0,2.0\nq,c1,b,2,4,2.0,3.0\n")

    def test_empty_and_whitespace_lines_are_malformed(self, tmp_path):
        result, errors = load_text(tmp_path, HEADER + "q,c1,a,1,3,1.0,2.0\nq,c1,b,2,4,2.0,3.0\n,,,,,,\n \n")
        assert errors == [(4, "line 4: empty 'query_id' cell"), (5, "line 5: empty 'context_id' cell")]
        assert [r.context_id for r in result.rows] == ["c1"]

    def test_nan_and_inf_cells(self, tmp_path):
        result, errors = load_text(
            tmp_path,
            HEADER
            + "q,c1,a,1,3,nan,2.0\nq,c1,b,2,4,2.0,3.0\n"
            + "q,c2,a,1,3,1.0,-inf\nq,c2,b,2,4,2.0,3.0\n"
            + "q,c3,a,nan,3,1.0,2.0\nq,c3,b,2,4,2.0,3.0\n"
            + "q,c4,a,1,Infinity,1.0,2.0\nq,c4,b,2,4,2.0,3.0\n"
            + "q,c5,a,1,3,1.0,2.0\nq,c5,b,2,4,2.0,3.0\n",
        )
        assert errors == [
            (6, "line 6: non-integer position 'nan'"),
            (2, "feature 'price' values must be finite"),
            (4, "feature 'rating' values must be finite"),
            (8, "clicks must be finite"),
        ]
        assert [summary(r) for r in result.rows] == [
            ("c5", ("a", "b"), [1, 2], [3.0, 4.0], {"price": [1.0, 2.0], "rating": [2.0, 3.0]})
        ]

    def test_quoted_newline_reports_the_record_end(self, tmp_path):
        result, errors = load_text(
            tmp_path, HEADER + 'q,c1,"a\nb",1,3,1.0,2.0\nq,c1,b,2,x,2.0,3.0\nq,c2,a,1,1,1.0,2.0\nq,c2,b,2,2,2.0,3.0\n'
        )
        assert errors == [(4, "line 4: non-numeric clicks 'x'")]
        assert [r.context_id for r in result.rows] == ["c2"]


class TestBundledSample:
    def test_shredder_csv_mines_one_pair(self):
        from importlib import resources

        with resources.as_file(resources.files("rsm") / "data_files" / "shredder.csv") as path:
            schema = DatasetSchema(
                features=(
                    FeatureSpec("price", Direction.LOWER_IS_BETTER),
                    FeatureSpec("sheet_capacity", Direction.HIGHER_IS_BETTER),
                )
            )
            result = load_csv(path, schema)
        assert result.errors == []
        assert len(result.rows) == 2
        pairs = mine_flip_pairs(result.rows)
        assert len(pairs) == 1
        pair = pairs[0]
        assert (pair.item_a, pair.item_b) == ("A", "B")
        assert pair.row_1.context_id == "ctx_small"
        assert pair.row_2.context_id == "ctx_large"


def oracle_mine_flip_pairs(rows, min_total_clicks=config.MIN_TOTAL_CLICKS, min_click_diff=config.MIN_CLICK_DIFF):
    """The miner as it was before it ordered pairs by index: ``sorted`` plus two ``index_of`` scans."""
    by_query = {}
    for row in rows:
        by_query.setdefault(row.query_id, []).append(row)
    pairs = []
    for query in sorted(by_query):
        qrows = [r for r in by_query[query] if r.total_clicks() > min_total_clicks]
        seen = {}
        for row in qrows:
            ctr = row.ctrs()
            for i in range(row.n):
                for j in range(i + 1, row.n):
                    a, b = sorted((row.items[i], row.items[j]))
                    ia, ib = row.index_of(a), row.index_of(b)
                    if abs(row.clicks[ia] - row.clicks[ib]) < min_click_diff:
                        continue
                    seen.setdefault((a, b), []).append(
                        (row, float(row.clicks[ia] - row.clicks[ib]), float(abs(ctr[ia] - ctr[ib])))
                    )
        for (a, b), entries in sorted(seen.items()):
            prefer_a = [(row, gap) for row, diff, gap in entries if diff > 0]
            prefer_b = [(row, gap) for row, diff, gap in entries if diff < 0]
            if not prefer_a or not prefer_b:
                continue
            row_1, gap_1 = max(prefer_a, key=lambda e: (e[1], e[0].context_id))
            row_2, gap_2 = max(prefer_b, key=lambda e: (e[1], e[0].context_id))
            pairs.append(FlipPair(row_1=row_1, row_2=row_2, item_a=a, item_b=b, strength=gap_1 + gap_2))
    return pairs


class TestMining:
    def test_canonical_flip(self):
        rows = [
            make_row("q", "c1", ["a", "b"], [7, 3], {"price": [1.0, 2.0], "rating": [1.0, 2.0]}),
            make_row("q", "c2", ["a", "b"], [3, 7], {"price": [1.0, 2.0], "rating": [1.0, 2.0]}),
        ]
        pairs = mine_flip_pairs(rows)
        assert len(pairs) == 1
        assert pairs[0].strength == pytest.approx(0.8)

    def test_total_clicks_threshold_is_strict(self):
        # 4 total clicks on one side kills the pair; 6 restores it
        lo = make_row("q", "c1", ["a", "b"], [3, 1], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        hi = make_row("q", "c2", ["a", "b"], [2, 6], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        assert mine_flip_pairs([lo, hi]) == []
        lo6 = make_row("q", "c1", ["a", "b"], [4, 2], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        assert len(mine_flip_pairs([lo6, hi])) == 1
        # exactly 5 is still excluded (strict inequality)
        lo5 = make_row("q", "c1", ["a", "b"], [4, 1], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        assert mine_flip_pairs([lo5, hi]) == []

    def test_click_difference_threshold(self):
        close = make_row("q", "c1", ["a", "b"], [4, 3], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        other = make_row("q", "c2", ["a", "b"], [2, 6], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        assert mine_flip_pairs([close, other]) == []

    def test_strongest_contexts_chosen(self):
        """With several qualifying contexts per side, the largest CTR gaps win."""
        feats = {"price": [1.0, 2.0], "rating": [1.0, 2.0]}
        rows = [
            make_row("q", "c1", ["a", "b"], [8, 2], feats),   # a-side gap 0.6
            make_row("q", "c2", ["a", "b"], [6, 3], feats),   # a-side gap 1/3
            make_row("q", "c3", ["a", "b"], [3, 9], feats),   # b-side gap 0.5
            make_row("q", "c4", ["a", "b"], [2, 5], feats),   # b-side gap 3/7
        ]
        pairs = mine_flip_pairs(rows)
        assert len(pairs) == 1
        assert pairs[0].row_1.context_id == "c1"
        assert pairs[0].row_2.context_id == "c3"
        assert pairs[0].strength == pytest.approx(0.6 + 0.5)

    def test_matches_exhaustive_oracle(self):
        """Mined choice equals brute force over all qualifying context pairs."""
        rng = np.random.default_rng(606)
        feats = {"price": [1.0, 2.0], "rating": [1.0, 2.0]}
        for trial in range(20):
            rows = []
            for c in range(6):
                clicks = rng.integers(0, 10, size=2)
                rows.append(make_row("q", f"c{c}", ["a", "b"], clicks.tolist(), feats))
            pairs = mine_flip_pairs(rows)
            qualifying = [
                r for r in rows
                if r.total_clicks() > 5 and abs(r.clicks[0] - r.clicks[1]) >= 2
            ]
            a_side = [r for r in qualifying if r.clicks[0] > r.clicks[1]]
            b_side = [r for r in qualifying if r.clicks[1] > r.clicks[0]]
            if not a_side or not b_side:
                assert pairs == []
                continue
            best = max(
                itertools.product(a_side, b_side),
                key=lambda pr: (
                    abs(pr[0].ctrs()[0] - pr[0].ctrs()[1]) + abs(pr[1].ctrs()[0] - pr[1].ctrs()[1]),
                ),
            )
            assert len(pairs) == 1
            got = pairs[0]
            expect_strength = abs(best[0].ctrs()[0] - best[0].ctrs()[1]) + abs(
                best[1].ctrs()[0] - best[1].ctrs()[1]
            )
            assert got.strength == pytest.approx(expect_strength)

    def test_matches_the_index_of_miner(self):
        """Random contexts shown out of id order, with equal click counts and click-less rows."""
        rng = np.random.default_rng(818)
        rows = []
        for q in range(12):
            pool = [f"i{j:02d}" for j in rng.permutation(8)]
            for c in range(int(rng.integers(2, 7))):
                n = int(rng.integers(2, 7))
                items = [pool[j] for j in rng.choice(8, size=n, replace=False)]
                clicks = rng.integers(0, 6, size=n) if rng.random() < 0.8 else np.zeros(n)
                feats = {"price": rng.random(n), "rating": rng.random(n)}
                rows.append(make_row(f"q{q}", f"c{c}", items, clicks, feats))
        assert any(list(r.items) != sorted(r.items) for r in rows)
        assert any(r.total_clicks() == 0 for r in rows)
        assert any(len(set(r.clicks.tolist())) < r.n for r in rows)
        for thresholds in [(), (0.0, 0.0), (3.0, 1.0)]:
            got, want = mine_flip_pairs(rows, *thresholds), oracle_mine_flip_pairs(rows, *thresholds)
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert (g.row_1, g.row_2, g.item_a, g.item_b) == (w.row_1, w.row_2, w.item_a, w.item_b)
                assert g.strength == w.strength

    def test_output_sorted_and_items_ordered(self):
        feats3 = {"price": [1.0, 2.0, 3.0], "rating": [1.0, 2.0, 3.0]}
        rows = [
            make_row("q2", "c1", ["z", "y"], [9, 2], {"price": [1.0, 2.0], "rating": [1.0, 2.0]}),
            make_row("q2", "c2", ["z", "y"], [2, 9], {"price": [1.0, 2.0], "rating": [1.0, 2.0]}),
            make_row("q1", "c1", ["m", "k", "p"], [8, 2, 0], feats3),
            make_row("q1", "c2", ["m", "k", "p"], [2, 8, 0], feats3),
        ]
        pairs = mine_flip_pairs(rows)
        keys = [(p.row_1.query_id, p.item_a, p.item_b) for p in pairs]
        assert keys == sorted(keys)
        for p in pairs:
            assert p.item_a < p.item_b


class TestPairedSplit:
    def make_pairs(self, count, prefix="q"):
        feats = {"price": [1.0, 2.0], "rating": [1.0, 2.0]}
        pairs = []
        for i in range(count):
            r1 = make_row(f"{prefix}{i}", "c1", ["a", "b"], [7, 2], feats)
            r2 = make_row(f"{prefix}{i}", "c2", ["a", "b"], [2, 7], feats)
            pairs.append(FlipPair(row_1=r1, row_2=r2, item_a="a", item_b="b", strength=1.0))
        return pairs

    def test_fraction_honored(self):
        pairs = self.make_pairs(10)
        train_rows, test_pairs = paired_split(pairs, train_fraction=0.8, seed=0)
        assert len(test_pairs) == 2
        assert len(train_rows) == 16  # 8 pairs x 2 distinct contexts

    def test_no_row_crosses_sides(self):
        pairs = self.make_pairs(12)
        train_rows, test_pairs = paired_split(pairs, train_fraction=0.75, seed=3)
        train_keys = {(r.query_id, r.context_id) for r in train_rows}
        for pair in test_pairs:
            assert (pair.row_1.query_id, pair.row_1.context_id) not in train_keys
            assert (pair.row_2.query_id, pair.row_2.context_id) not in train_keys

    def test_deterministic_and_order_insensitive(self):
        pairs = self.make_pairs(9)
        _, test_a = paired_split(pairs, seed=11)
        shuffled = [pairs[i] for i in (5, 2, 8, 0, 7, 1, 3, 6, 4)]
        _, test_b = paired_split(shuffled, seed=11)
        key = lambda p: (p.row_1.query_id, p.item_a, p.item_b)
        assert sorted(map(key, test_a)) == sorted(map(key, test_b))
        _, test_c = paired_split(pairs, seed=12)
        assert sorted(map(key, test_a)) != sorted(map(key, test_c)) or len(pairs) < 4

    def test_shared_context_pairs_stay_together(self):
        """Pairs that share a context row must land on the same side."""
        feats3 = {"price": [1.0, 2.0, 3.0], "rating": [1.0, 2.0, 3.0]}
        shared = make_row("q0", "hub", ["a", "b", "c"], [1, 8, 4], feats3)
        r_a = make_row("q0", "edge_a", ["a", "b", "c"], [9, 1, 3], feats3)
        r_c = make_row("q0", "edge_c", ["a", "b", "c"], [2, 3, 9], feats3)
        p1 = FlipPair(row_1=r_a, row_2=shared, item_a="a", item_b="b", strength=1.0)
        p2 = FlipPair(row_1=shared, row_2=r_c, item_a="b", item_b="c", strength=1.0)
        pairs = self.make_pairs(8, prefix="filler") + [p1, p2]
        for seed in range(12):
            train_rows, test_pairs = paired_split(pairs, train_fraction=0.7, seed=seed)
            test_set = {
                (p.row_1.query_id, p.item_a, p.item_b) for p in test_pairs
            }
            linked = {("q0", "a", "b") in test_set, ("q0", "b", "c") in test_set}
            assert linked in ({True}, {False})

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 6), contexts=st.integers(2, 4))
    def test_rows_never_cross_and_shuffles_change_nothing(self, seed, queries, contexts):
        """Random pair sets whose pairs share rows, split in several input orders."""
        rng = np.random.default_rng(seed)
        pairs = random_shared_row_pairs(rng, queries, contexts)
        assume(len(pairs) >= 2)
        key = lambda row: (row.query_id, row.context_id)
        try:
            train_rows, test_pairs = paired_split(pairs, 0.7, seed)
        except SplitTooSmall:
            for _ in range(3):
                with pytest.raises(SplitTooSmall):
                    paired_split([pairs[i] for i in rng.permutation(len(pairs))], 0.7, seed)
            return
        train_keys = {key(row) for row in train_rows}
        test_keys = {key(row) for pair in test_pairs for row in (pair.row_1, pair.row_2)}
        assert not train_keys & test_keys
        tested = set(map(id, test_pairs))
        for pair in pairs:
            assert id(pair) in tested or {key(pair.row_1), key(pair.row_2)} <= train_keys
        for _ in range(3):
            shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
            other_rows, other_pairs = paired_split(shuffled, 0.7, seed)
            assert list(map(id, other_rows)) == list(map(id, train_rows))
            assert set(map(id, other_pairs)) == tested

    def test_too_few_pairs(self):
        with pytest.raises(SplitTooSmall):
            paired_split(self.make_pairs(1))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            paired_split(self.make_pairs(4), train_fraction=1.0)


def random_shared_row_pairs(rng, queries, contexts):
    """Every flip pair among a few random contexts per query, about a quarter of them kept.

    Contexts are reused across pairs, so pairs share rows and the split has
    to keep such clusters together.
    """
    feats = {"price": [1.0, 2.0, 3.0], "rating": [3.0, 1.0, 2.0]}
    pairs = []
    for q in range(queries):
        rows = [make_row(f"q{q}", f"c{c}", ["a", "b", "c"], rng.integers(0, 6, 3), feats) for c in range(contexts)]
        for row_1, row_2 in itertools.permutations(rows, 2):
            for a, b in itertools.permutations(range(3), 2):
                if row_1.clicks[a] > row_1.clicks[b] and row_2.clicks[a] < row_2.clicks[b] and rng.random() < 0.25:
                    pairs.append(FlipPair(row_1=row_1, row_2=row_2, item_a="abc"[a], item_b="abc"[b], strength=1.0))
    return pairs


class TestSyntheticGeneration:
    def test_labels_are_stationary_distributions(self):
        spec = SyntheticSpec(k=3, num_queries=6, weights=WeightVector(np.array([0.5, 0.3, 0.2])), seed=5)
        data = generate_synthetic(spec)
        assert len(data.instances) == 6 * 5
        assert data.rows == []
        by_query = {}
        for inst in data.instances:
            by_query.setdefault(inst.query_id, []).append(inst.target_prob)
        for probs in by_query.values():
            assert abs(sum(probs) - 1.0) < 1e-10

    def test_click_noise_produces_rows(self):
        spec = SyntheticSpec(
            k=2, num_queries=4, weights=WeightVector(np.array([0.7, 0.3])),
            clicks_per_context=200, seed=9,
        )
        data = generate_synthetic(spec)
        assert len(data.rows) == 4
        for row in data.rows:
            assert row.total_clicks() == 200

    def test_seed_reproducibility(self):
        spec = SyntheticSpec(k=2, num_queries=5, weights=WeightVector(np.array([0.6, 0.4])),
                             clicks_per_context=50, seed=123)
        d1 = generate_synthetic(spec)
        d2 = generate_synthetic(spec)
        for a, b in zip(d1.instances, d2.instances):
            assert a.target_prob == b.target_prob
        for ra, rb in zip(d1.rows, d2.rows):
            assert np.array_equal(ra.clicks, rb.clicks)

    def test_multinomial_concentration(self):
        """Huge click counts pin the empirical CTRs to the true stationary."""
        spec = SyntheticSpec(
            k=2, num_queries=5, weights=WeightVector(np.array([0.6, 0.4])),
            clicks_per_context=1_000_000, seed=77,
        )
        data = generate_synthetic(spec)
        targets = {}
        for inst in data.instances:
            targets[(inst.query_id, inst.item_ids[inst.target_index])] = inst.target_prob
        for row in data.rows:
            ctr = row.ctrs()
            for i, item in enumerate(row.items):
                assert abs(ctr[i] - targets[(row.query_id, item)]) < 5e-3

    def test_flip_dataset_contains_real_flips(self):
        data = generate_flip_dataset(
            num_queries=12,
            weights=WeightVector(np.array([0.5, 0.3, 0.2])),
            clicks_per_context=10_000,
            margin=0.02,
            seed=4,
        )
        assert len(data.rows) % 2 == 0
        assert len(data.rows) >= 12  # rejection sampling found most queries
        pairs = mine_flip_pairs(data.rows)
        assert pairs
        # the engineered flip is between the two shared items of each query
        shared_pairs = [p for p in pairs if p.item_a.endswith("i0") or p.item_a.endswith("i1")]
        assert shared_pairs


# The object-path generators as they stood before they moved to the array
# kernels: every topology through encode_rank_topology, every chain through
# combine and stationary. The array path must reproduce them bit for bit.
def reference_synthetic(spec):
    rng = np.random.default_rng(spec.seed)
    schema = synthetic_schema(spec.k)
    instances, rows = [], []
    for q in range(spec.num_queries):
        query_id = f"q{q:05d}"
        items = tuple(f"{query_id}_i{j}" for j in range(spec.n))
        values = rng.random((spec.k, spec.n))
        topologies = tuple(
            encode_rank_topology(values[i], Direction.HIGHER_IS_BETTER, items, schema.names[i])
            for i in range(spec.k)
        )
        probs = stationary(combine(topologies, spec.weights, spec.lam)).probs
        instances += [TrainingInstance(query_id, items, topologies, u, float(p)) for u, p in enumerate(probs)]
        if spec.clicks_per_context is not None:
            clicks = rng.multinomial(spec.clicks_per_context, probs)
            features = {schema.names[i]: values[i] for i in range(spec.k)}
            rows.append(LogRow(query_id, f"c{q:05d}", items, np.arange(1, spec.n + 1), clicks, features))
    return instances, rows


def reference_flip_dataset(num_queries, weights, lam=config.DEFAULT_LAMBDA, n=5, shared_items=2,
                           clicks_per_context=10_000, margin=0.02, seed=0, max_attempts=500):
    k = weights.k
    rng = np.random.default_rng(seed)
    schema = synthetic_schema(k)
    instances, rows = [], []
    pool_size = 2 * n - shared_items
    for q in range(num_queries):
        query_id = f"q{q:05d}"
        pool_items = tuple(f"{query_id}_i{j}" for j in range(pool_size))
        idx_1 = list(range(n))
        idx_2 = list(range(shared_items)) + list(range(n, pool_size))
        accepted = None
        for _ in range(max_attempts):
            values = rng.random((k, pool_size))
            result = []
            for idx in (idx_1, idx_2):
                items = tuple(pool_items[j] for j in idx)
                subvals = values[:, idx]
                topologies = tuple(
                    encode_rank_topology(subvals[i], Direction.HIGHER_IS_BETTER, items, schema.names[i])
                    for i in range(k)
                )
                probs = stationary(combine(topologies, weights, lam)).probs
                result.append((items, subvals, topologies, probs))
            gap_1 = result[0][3][0] - result[0][3][1]
            gap_2 = result[1][3][0] - result[1][3][1]
            if gap_1 * gap_2 < 0 and min(abs(gap_1), abs(gap_2)) >= margin:
                accepted = result
                break
        if accepted is None:
            continue
        for c, (items, subvals, topologies, probs) in enumerate(accepted):
            clicks = rng.multinomial(clicks_per_context, probs)
            positions = rng.permutation(n) + 1
            features = {schema.names[i]: subvals[i] for i in range(k)}
            rows.append(LogRow(query_id, f"c{q:05d}_{c}", items, positions, clicks, features))
            instances += [TrainingInstance(query_id, items, topologies, u, float(p)) for u, p in enumerate(probs)]
    return instances, rows


def assert_same_dataset(data, reference):
    instances, rows = reference
    assert len(data.rows) == len(rows) and len(data.instances) == len(instances)
    for got, want in zip(data.rows, rows):
        assert (got.query_id, got.context_id, got.items) == (want.query_id, want.context_id, want.items)
        assert got.clicks.tobytes() == want.clicks.tobytes()
        assert got.positions.tobytes() == want.positions.tobytes()
        assert list(got.features) == list(want.features)
        for name in want.features:
            assert got.features[name].tobytes() == want.features[name].tobytes()
    tuples = {}
    for got, want in zip(data.instances, instances):
        assert (got.query_id, got.item_ids, got.target_index) == (want.query_id, want.item_ids, want.target_index)
        assert np.float64(got.target_prob).tobytes() == np.float64(want.target_prob).tobytes()
        assert [t.feature for t in got.topologies] == [t.feature for t in want.topologies]
        for t_got, t_want in zip(got.topologies, want.topologies):
            assert t_got.item_ids == t_want.item_ids
            assert t_got.matrix.entries.tobytes() == t_want.matrix.entries.tobytes()
        tuples.setdefault(got.item_ids, set()).add(id(got.topologies))
    # one topology tuple per context, shared by all of that context's instances
    assert all(len(ids) == 1 for ids in tuples.values())


class TestGeneratorOracle:
    WEIGHTS = WeightVector(np.array([0.5, 0.3, 0.2]))

    def test_flip_dataset_matches_the_object_path(self):
        kwargs = dict(num_queries=12, weights=self.WEIGHTS, clicks_per_context=2000, margin=0.02, seed=4)
        assert_same_dataset(generate_flip_dataset(**kwargs), reference_flip_dataset(**kwargs))

    def test_flip_dataset_with_three_shared_items_matches_the_object_path(self):
        kwargs = dict(num_queries=8, weights=WeightVector(np.array([0.2, 0.3, 0.5])), lam=0.3,
                      n=6, shared_items=3, clicks_per_context=500, margin=0.01, seed=3)
        data = generate_flip_dataset(**kwargs)
        assert data.rows
        assert_same_dataset(data, reference_flip_dataset(**kwargs))

    def test_wide_flip_dataset_matches_the_object_path(self):
        """Above DIRECT_SOLVE_MAX_N each context is solved alone, as before; a batched power solve moves bits."""
        kwargs = dict(num_queries=6, weights=self.WEIGHTS, n=65, clicks_per_context=500, margin=0.0, seed=0)
        assert_same_dataset(generate_flip_dataset(**kwargs), reference_flip_dataset(**kwargs))

    @pytest.mark.parametrize("n", [5, 70])
    @pytest.mark.parametrize("clicks", [None, 3000])
    def test_synthetic_matches_the_object_path(self, n, clicks):
        spec = SyntheticSpec(k=3, num_queries=4, weights=self.WEIGHTS, n=n, clicks_per_context=clicks, seed=n)
        assert_same_dataset(generate_synthetic(spec), reference_synthetic(spec))

    @pytest.mark.parametrize(
        "weights, lam",
        [(WEIGHTS, 1.5), (WEIGHTS, 0.0), (WEIGHTS.as_native(0.15), 0.15)],
        ids=["lam_above_one", "lam_zero", "native_weights"],
    )
    def test_bad_mixture_rejected_before_any_draw(self, monkeypatch, weights, lam):
        def no_draws(*args, **kwargs):
            raise AssertionError("the generator drew before validating")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError):
            generate_flip_dataset(num_queries=2, weights=weights, lam=lam)


class TestFlipGeneratorLog:
    WEIGHTS = WeightVector(np.array([0.5, 0.3, 0.2]))

    def test_dropped_queries_are_a_warning_with_counts(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="rsm.data"):
            data = generate_flip_dataset(num_queries=3, weights=self.WEIGHTS, margin=0.9, max_attempts=4, seed=1)
        assert data.rows == [] and data.instances == []
        records = [r for r in caplog.records if r.name == "rsm.data"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].getMessage() == "flip generator kept 0 of 3 requested queries from 12 candidates drawn"

    def test_a_full_dataset_is_info(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="rsm.data"):
            data = generate_flip_dataset(num_queries=3, weights=self.WEIGHTS, margin=0.0, seed=1)
        assert len(data.rows) == 6
        records = [r for r in caplog.records if r.name == "rsm.data"]
        assert len(records) == 1
        assert records[0].levelno == logging.INFO
        assert records[0].getMessage().startswith("flip generator kept 3 of 3 requested queries from ")


class TestInstanceFiles:
    def test_round_trip_and_topology_sharing(self, tmp_path):
        rng = np.random.default_rng(15)
        spec = SyntheticSpec(k=2, num_queries=3, weights=WeightVector(np.array([0.6, 0.4])), seed=2)
        data = generate_synthetic(spec)
        path = tmp_path / "inst.json"
        save_instances(data.instances, path)
        back = load_instances(path)
        assert len(back) == len(data.instances)
        for orig, copy in zip(data.instances, back):
            assert copy.query_id == orig.query_id
            assert copy.item_ids == orig.item_ids
            assert copy.target_index == orig.target_index
            assert copy.target_prob == pytest.approx(orig.target_prob, abs=1e-15)
            for t_orig, t_copy in zip(orig.topologies, copy.topologies):
                assert_allclose(t_copy.matrix.entries, t_orig.matrix.entries, atol=1e-15)
        # instances of one context share one topology tuple after loading
        assert back[0].topologies is back[1].topologies

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"instances": [{"query_id": "q"}]}')
        with pytest.raises(SchemaError):
            load_instances(path)


class TestBridges:
    def test_training_instances_use_ctr_targets(self):
        rows = two_context_rows()
        instances = training_instances_from_rows(rows, SCHEMA)
        assert len(instances) == 2 + 3
        assert instances[0].target_prob == pytest.approx(2.0 / 3.0)
        assert instances[0].topologies is instances[1].topologies

    def test_zero_click_contexts_skipped(self):
        quiet = make_row("q", "c0", ["a", "b"], [0, 0], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        instances = training_instances_from_rows([quiet] + two_context_rows(), SCHEMA)
        assert len(instances) == 5

    def test_batch_from_rows_skips_quiet_contexts(self):
        quiet = make_row("q", "c0", ["a", "b"], [0, 0], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        batch = batch_from_rows([quiet] + two_context_rows(), SCHEMA)
        assert batch.k == 2 and len(batch) == 5
        assert [b.tensor.shape for b in batch.buckets] == [(1, 2, 2, 2), (1, 2, 3, 3)]
        assert batch.buckets[0].targets.tolist() == pytest.approx([2 / 3, 1 / 3])
        assert batch.buckets[1].slots.tolist() == [2, 3, 4]
        assert len(batch_from_rows([quiet], SCHEMA)) == 0

    def test_mixed_widths_encode_once_per_width(self, monkeypatch):
        rng = np.random.default_rng(515)
        rows = []
        for c in range(8):
            n = (5, 70)[c % 2]
            clicks = np.zeros(n) if c in (2, 5) else rng.integers(0, 9, n)
            feats = {"price": rng.integers(0, 4, n).astype(float), "rating": rng.random(n)}
            rows.append(make_row("q", f"c{c}", [f"i{j}" for j in range(n)], clicks, feats))
        shapes = []
        real_kernel = rsm.data.rank_chain_entries

        def counting_kernel(values):
            shapes.append(values.shape)
            return real_kernel(values)

        monkeypatch.setattr(rsm.data, "rank_chain_entries", counting_kernel)
        batch = batch_from_rows(rows, SCHEMA)
        assert shapes == [(3, 2, 5), (3, 2, 70)]
        clicked = [row for row in rows if row.total_clicks() > 0]
        for bucket, n in zip(batch.buckets, (5, 70)):
            for tensor, row in zip(bucket.tensor, [row for row in clicked if row.n == n]):
                for entries, spec in zip(tensor, SCHEMA.features):
                    expected = encode_rank_topology(row.features[spec.name], spec.direction).matrix.entries
                    assert entries.tobytes() == expected.tobytes()
                assert topology_tensor(row, SCHEMA) is topology_tensor(row, SCHEMA)
                assert not topology_tensor(row, SCHEMA).flags.writeable
        assert len(shapes) == 2

    def test_feature_rows_append_position(self):
        logs = two_context_rows()
        rows = feature_rows_from_logs(logs, SCHEMA, include_position=True)
        assert rows[0].features.size == 3
        assert rows[0].features[-1] == 1.0
        # the same rows again, so each setting must find its own cached entry
        for include_position, arity in [(False, 2), (True, 3), (False, 2)]:
            out = feature_rows_from_logs(logs, SCHEMA, include_position=include_position)
            assert [r.features.size for r in out] == [arity] * 5
            assert [r.ctr for r in out] == pytest.approx([2 / 3, 1 / 3, 2 / 9, 6 / 9, 1 / 9])


class TestEncodingCache:
    def test_topologies_shared_across_equal_schemas(self):
        row = two_context_rows()[1]
        first = topologies_from_row(row, SCHEMA)
        equal = DatasetSchema(
            features=(
                FeatureSpec("price", Direction.LOWER_IS_BETTER),
                FeatureSpec("rating", Direction.HIGHER_IS_BETTER),
            )
        )
        assert topologies_from_row(row, equal) is first
        instances = training_instances_from_rows([row], equal)
        assert all(inst.topologies is first for inst in instances)

    def test_direction_change_encodes_afresh(self):
        row = two_context_rows()[1]
        cached_price = topologies_from_row(row, SCHEMA)[0].matrix.entries
        flipped = DatasetSchema(
            features=(
                FeatureSpec("price", Direction.HIGHER_IS_BETTER),
                FeatureSpec("rating", Direction.HIGHER_IS_BETTER),
            )
        )
        got = topologies_from_row(row, flipped)
        for spec, top in zip(flipped.features, got):
            fresh = encode_rank_topology(row.features[spec.name], spec.direction, row.items, spec.name)
            assert top.feature == spec.name
            assert np.array_equal(top.matrix.entries, fresh.matrix.entries)
        assert not np.array_equal(got[0].matrix.entries, cached_price)
        assert topologies_from_row(row, SCHEMA)[0].matrix.entries is cached_price


    def test_schema_hash_is_computed_once(self, monkeypatch):
        """Cache lookups reuse the schema's hash; equal schemas share one entry."""
        row = two_context_rows()[1]
        specs = [(spec.name, spec.direction) for spec in SCHEMA.features]
        tensor = topology_tensor(row, SCHEMA)
        calls = []
        real_hash = FeatureSpec.__hash__

        def counting_hash(spec):
            calls.append(spec)
            return real_hash(spec)

        monkeypatch.setattr(FeatureSpec, "__hash__", counting_hash)
        for _ in range(3):
            topologies_from_row(row, SCHEMA)
            topology_tensor(row, SCHEMA)
            feature_rows_from_logs([row], SCHEMA)
        assert calls == []
        equal = DatasetSchema(features=tuple(FeatureSpec(name, d) for name, d in specs))
        assert len(calls) == 2  # hashed once, when built
        assert equal == SCHEMA and hash(equal) == hash(SCHEMA)
        assert topology_tensor(row, equal) is tensor
        assert topologies_from_row(row, equal) is topologies_from_row(row, SCHEMA)
        flipped = DatasetSchema(
            features=(FeatureSpec("price", Direction.HIGHER_IS_BETTER), FeatureSpec("rating", Direction.HIGHER_IS_BETTER))
        )
        assert flipped != SCHEMA
        assert not np.array_equal(topology_tensor(row, flipped)[0], tensor[0])
        assert np.array_equal(topology_tensor(row, flipped)[1], tensor[1])
        restored = pickle.loads(pickle.dumps(SCHEMA))
        assert restored == SCHEMA and hash(restored) == hash(SCHEMA)

    def test_tensor_stacks_the_cached_topologies(self):
        row = two_context_rows()[1]
        tensor = topology_tensor(row, SCHEMA)
        assert tensor.shape == (2, 3, 3) and not tensor.flags.writeable
        for entries, top in zip(tensor, topologies_from_row(row, SCHEMA)):
            assert np.array_equal(entries, top.matrix.entries)


class TestDeriveSeed:
    def test_frozen_value(self):
        digest = hashlib.sha256(b"0:split:0").digest()
        assert derive_seed(0, "split:0") == int.from_bytes(digest[:8], "little")

    def test_labels_differ(self):
        seeds = {derive_seed(7, f"label{i}") for i in range(50)}
        assert len(seeds) == 50

    def test_base_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestSchema:
    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(SchemaError):
            DatasetSchema(features=(FeatureSpec("f"), FeatureSpec("f")))

    def test_base_column_collision_rejected(self):
        with pytest.raises(SchemaError):
            DatasetSchema(features=(FeatureSpec("clicks"),))

    def test_synthetic_schema_names(self):
        schema = synthetic_schema(3)
        assert schema.names == ("f0", "f1", "f2")
        assert all(f.direction is Direction.HIGHER_IS_BETTER for f in schema.features)
