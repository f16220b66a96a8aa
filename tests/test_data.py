"""Click-log parsing, flip mining, splitting and synthetic generation."""

import copy
import csv
import hashlib
import io
import itertools
import json
import logging
import operator
import pickle
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rsm.cli
import rsm.data
import rsm.learner
import rsm.record
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
from rsm.baselines import fit_least_squares_arrays
from rsm.data import LoadError, LoadResult, design_from_rows
from rsm.record import ContextRecord, RecordView
from rsm.evaluation import Model, constant_model, flip_accuracy, least_squares_model, rsm_model, run_experiment
from rsm.learner import ContextBatch, LearnerConfig, fit, linearized_row
from rsm.markov import rank_chain_rows, rank_space
from rsm.topology import average_ranks
from rsm.errors import ParseError, ShapeError
from rsm.learner import as_batch

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
    def test_click_total_and_ctrs_are_computed_from_the_clicks(self):
        """A row holds only its record and index: its click total and CTRs are computed from its clicks by the record."""
        row = make_row("q", "c", ["a", "b", "c"], [3, 0, 1], {"price": [1.0, 2.0, 3.0], "rating": [1.0, 2.0, 3.0]})
        assert LogRow.__slots__ == ("record", "index") and not hasattr(row, "__dict__")
        assert (row.record.totals.tolist(), row.record.ctrs.tolist()) == ([4.0], [0.75, 0.0, 0.25])

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

    def test_a_short_row_is_refused_in_the_loaders_words(self, tmp_path):
        message = "context 'c' of query 'q' has fewer than two items"
        with pytest.raises(ValueError) as info:
            make_row("q", "c", ["a"], [1], {"price": [1.0], "rating": [1.0]})
        assert str(info.value) == message
        _, errors = load_text(tmp_path, HEADER + "q,c,a,1,1,1.0,1.0\n")
        assert errors == [(2, message)]

    def test_features_are_read_only(self):
        row = two_context_rows()[0]
        with pytest.raises(TypeError):
            row.features["price"] = np.array([5.0, 6.0])
        with pytest.raises(ValueError):
            row.features["price"][0] = 5.0
        assert_allclose(row.features["price"], [10.0, 20.0], atol=0)


class TestContextErrors:
    ROWS = [  # items, positions, clicks, price, rating; and the first rule each breaks
        ((["a", "b"], [1, 2], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]), None),
        ((["a"], [1], [np.nan], [np.nan], [1.0]), "context 'c1' of query 'q' has fewer than two items"),
        ((["a", "b", "a"], [1, 2**63, 3], [np.nan, -1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]), "context items must be unique"),
        (([-1, -2], [1, 2], [1.0, 1.0], [1.0, 2.0], [1.0, 2.0]), None),  # equal hashes, distinct items
        ((["a", "b"], [2, -2**63 - 1], [np.nan, 1.0], [1.0, 2.0], [1.0, 2.0]), "positions must fit in 64-bit integers"),
        ((["a", "b"], [1, 2], [-1.0, np.inf], [np.nan, 2.0], [1.0, 2.0]), "clicks must be finite"),
        ((["a", "b"], [1, 2], [1.0, -1.0], [np.nan, 2.0], [1.0, 2.0]), "clicks must be nonnegative"),
        ((["a", "b"], [1, 2], [1.0, 1.0], [1.0, np.inf], [np.nan, 1.0]), "feature 'price' values must be finite"),
        (([], [], [], [], []), "context 'c8' of query 'q' has fewer than two items"),
    ]

    def test_each_bad_row_once_in_row_order_with_its_first_rule(self):
        """One call checks every row; an item may repeat across rows, and the constructor refuses each bad row alone
        with the same message."""
        columns = [list(itertools.chain.from_iterable(column)) for column in zip(*(row for row, _ in self.ROWS))]
        sizes = np.array([len(row[0]) for row, _ in self.ROWS])
        ids = [np.array(["q"] * sizes.size, object), np.array([f"c{r}" for r in range(sizes.size)], object)]
        record = ContextRecord(*ids, sizes, np.fromiter(columns[0], object, len(columns[0])), columns[1],
                               np.array(columns[2]), {"price": np.array(columns[3]), "rating": np.array(columns[4])})
        errors = rsm.record.context_errors(record)
        assert errors == [(r, message) for r, (_, message) in enumerate(self.ROWS) if message]
        for r, ((items, positions, clicks, price, rating), message) in enumerate(self.ROWS):
            if message:
                with pytest.raises(ValueError) as info:
                    LogRow("q", f"c{r}", items, positions, clicks, {"price": price, "rating": rating})
                assert str(info.value) == message


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

    @pytest.mark.parametrize("bad, message", [
        (("a,1,nan,1.0,2.0", "b,2,4,2.0,3.0"), "clicks must be finite"),
        (("a,1,3,1.0,2.0", "b,2,4,2.0,-inf"), "feature 'rating' values must be finite"),
        (("a,1,-3,1.0,2.0", "b,2,4,2.0,3.0"), "clicks must be nonnegative"),
        ((f"a,{2**63},3,1.0,2.0", "b,2,4,2.0,3.0"), "positions must fit in 64-bit integers"),
        (("a,1,3,1.0,2.0", "a,2,4,2.0,3.0"), "context items must be unique"),
    ], ids=["nan_clicks", "inf_feature", "negative_clicks", "int64_position", "duplicate_item"])
    def test_a_context_flagged_in_bulk_is_one_error_and_no_row(self, tmp_path, bad, message):
        """Each kind of context the bulk checks flag is one error, at its first line with the public constructor's
        text, and no row; the record holds exactly the other contexts, column for column as they load alone."""
        good = ["q,c0,a,1,3,1.0,2.0", "q,c0,b,2,4,2.0,3.0", "q,c2,b,1,5,1.0,2.0", "q,c2,c,2,1,2.0,3.0", "q,c2,a,3,0,3.0,1.0"]
        path = tmp_path / "flagged.csv"
        path.write_text(HEADER + "\n".join(good[:2] + [f"q,c1,{line}" for line in bad] + good[2:]) + "\n")
        (tmp_path / "good.csv").write_text(HEADER + "\n".join(good) + "\n")
        result, alone = load_csv(path, SCHEMA), load_csv(tmp_path / "good.csv", SCHEMA)
        assert [(e.line_number, e.message) for e in result.errors] == [(4, message)] and alone.errors == []
        assert [summary(row) for row in result.rows] == [summary(row) for row in alone.rows] != []
        record, alone = result.rows.record, alone.rows.record
        assert record.rows == result.rows and record.context_ids.tolist() == ["c0", "c2"]
        for name in ("query_ids", "context_ids", "sizes", "item_ids", "positions", "clicks", "totals", "ctrs"):
            assert getattr(record, name).tolist() == getattr(alone, name).tolist(), name
        for name in SCHEMA.names:
            assert record.features[name].tolist() == alone.features[name].tolist(), name


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

    @pytest.mark.parametrize("column", ["price", "clicks", "query_id"])
    def test_a_repeated_column_it_reads_is_refused(self, tmp_path, column):
        """A header that names a column the loader reads twice is refused, naming the file and the column; a column
        it does not read may repeat."""
        header = HEADER.rstrip("\n") + f",{column}\n"
        with pytest.raises(SchemaError, match=rf"log.csv repeats the column '{column}'"):
            load_text(tmp_path, header + "q,c1,a,1,3,1.0,2.0,7\nq,c1,b,2,4,2.0,3.0,5\n")
        result, errors = load_text(tmp_path, HEADER.rstrip("\n") + ",note,note\nq,c1,a,1,3,1.0,2.0,x,y\nq,c1,b,2,4,2.0,3.0,x,y\n")
        assert errors == [] and [summary(r) for r in result.rows] == [
            ("c1", ("a", "b"), [1, 2], [3.0, 4.0], {"price": [1.0, 2.0], "rating": [2.0, 3.0]})
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

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        text = HEADER + "q,c1,a,1,3,1.0,2.0\nq,c1,b,2,4,2.0,3.0\n"
        marked, plain = load_text(tmp_path, "\ufeff" + text), load_text(tmp_path, text)
        assert marked[1] == plain[1] == [] and [summary(r) for r in marked[0].rows] == [summary(r) for r in plain[0].rows]

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


def reference_load_csv(path, schema):
    """``load_csv`` as it was when every line was parsed alone and every row built by ``LogRow(...)``."""
    columns = rsm.data.BASE_COLUMNS + schema.names
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: file is empty; a header line is required")
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns: {', '.join(missing)}")
        where = {name: i for i, name in enumerate(header)}
        indices = [where[c] for c in columns]
        width = len(header)
        errors = []
        contexts = {}
        for cells in reader:
            if not cells:
                continue
            line = reader.line_num
            if len(cells) < width:
                cells += [""] * (width - len(cells))
            values = [cells[i] for i in indices]
            ctx = contexts.get((values[0], values[1]))
            if ctx is None:
                ctx = contexts[values[0], values[1]] = [line, False, []]
            try:
                ctx[2].append(reference_parse_line(values, columns, line))
            except ParseError as exc:
                errors.append(LoadError(line_number=line, message=str(exc)))
                ctx[1] = True
    rows = []
    for (query_id, context_id), (first_line, broken, lines) in contexts.items():
        if broken:
            continue
        if len(lines) < 2:
            message = f"context {context_id!r} of query {query_id!r} has fewer than two items"
            errors.append(LoadError(line_number=first_line, message=message))
            continue
        items, positions, clicks, *features = zip(*lines)
        try:
            rows.append(LogRow(query_id, context_id, items, positions, clicks, dict(zip(schema.names, features))))
        except (ValueError, ShapeError) as exc:
            errors.append(LoadError(line_number=first_line, message=str(exc)))
    return LoadResult(rows=rows, errors=errors)


def reference_parse_line(values, columns, line):
    if "" in values:
        column = columns[values.index("")]
        raise ParseError(f"line {line}: empty {column!r} cell", line_number=line)
    try:
        position = int(values[3])
    except ValueError as exc:
        raise ParseError(f"line {line}: non-integer position {values[3]!r}", line) from exc
    try:
        clicks = float(values[4])
    except ValueError as exc:
        raise ParseError(f"line {line}: non-numeric clicks {values[4]!r}", line) from exc
    features = []
    for name, value in zip(columns[5:], values[5:]):
        try:
            features.append(float(value))
        except ValueError as exc:
            raise ParseError(f"line {line}: non-numeric value {value!r} in feature {name!r}", line) from exc
    return (values[2], position, clicks, *features)


def array_state(array):
    """Everything of an array a reader could tell apart: dtype, shape, bytes and writeability."""
    return (array.dtype.str, array.shape, array.tobytes(), array.flags.writeable)


def row_state(row):
    """A row bit for bit: ids, items, arrays with their flags, features in order, click total and CTRs."""
    total = row.clicks.sum()
    ctrs = array_state(row.clicks / total) if total > 0 else None
    features = [(name, array_state(values)) for name, values in row.features.items()]
    return (row.query_id, row.context_id, row.items, array_state(row.positions), array_state(row.clicks),
            type(row.features), features, type(total), np.float64(total).tobytes(), ctrs)


def rebuilt_row(row):
    return LogRow(row.query_id, row.context_id, row.items, row.positions, row.clicks, dict(row.features))


BAD_CELLS = ["", "x", "nan", "inf", "-inf", "1e999", "NaN", " "]


@st.composite
def click_log_texts(draw):
    """CSV text with interleaved contexts and injected defects, and the chunk size to load it with."""
    columns = list(rsm.data.BASE_COLUMNS + SCHEMA.names) + draw(st.sampled_from([[], ["note"]]))
    columns = draw(st.permutations(columns))
    lines = []
    for q in range(draw(st.integers(1, 3))):
        for c in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 4))
            items = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "a,b", "e f"]), min_size=n, max_size=n))
            for position, item in enumerate(items, start=1):
                cells = {
                    "query_id": f"q{q}", "context_id": f"c{c}", "item_id": item,
                    "position": draw(st.sampled_from([str(position), f" {position}", f"+{position}", "1_0", "-2"])),
                    "clicks": draw(st.sampled_from(["0", "3", "7", "12", "2.5", "-1", " 4", "1_0", "1e1"])),
                    "price": repr(draw(st.floats(-1e3, 1e3))), "rating": draw(st.sampled_from(["1", "2.0", "3.5", "4"])),
                    "note": "x",
                }
                if draw(st.integers(0, 9)) == 0:  # one defective cell
                    cells[draw(st.sampled_from(columns))] = draw(st.sampled_from(BAD_CELLS))
                lines.append([cells[name] for name in columns])
    lines = draw(st.permutations(lines))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for cells in lines:
        shape = draw(st.integers(0, 12))
        if shape == 0:
            buffer.write("\n")  # a blank line
        elif shape == 1:
            cells = cells[: draw(st.integers(1, len(cells) - 1))]  # a short line
        elif shape == 2:
            cells = cells + ["extra", "9"]  # extra cells
        writer.writerow(cells)
    return buffer.getvalue(), draw(st.integers(1, 6))


class TestLoaderOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=click_log_texts())
    def test_equals_the_per_line_loader(self, case):
        """Same rows bit for bit and the same errors, whatever the chunk size."""
        text, chunk = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            path.write_text(text, encoding="utf-8")
            with mock.patch.object(rsm.data, "_CSV_CHUNK", chunk):
                got = load_csv(path, SCHEMA)
            want = reference_load_csv(path, SCHEMA)
        assert got.errors == want.errors
        assert [row_state(row) for row in got.rows] == [row_state(row) for row in want.rows]
        assert [row_state(rebuilt_row(row)) for row in got.rows] == [row_state(row) for row in got.rows]

    def test_a_position_beyond_int64_is_a_load_error(self, tmp_path):
        """A position ``int`` accepts but int64 cannot hold fails its context, reported at the context's line."""
        path = tmp_path / "log.csv"
        big = str(2**63)
        path.write_text(HEADER + f"q,c1,a,{big},3,1.0,2.0\nq,c1,b,x,4,2.0,3.0\nq,c2,a,{big},3,1.0,2.0\n")
        assert load_csv(path, SCHEMA).errors == reference_load_csv(path, SCHEMA).errors
        lines = ["q,c0,a,1,3,1.0,2.0", "q,c0,b,2,4,2.0,3.0", f"q,c1,a,{big},3,1.0,2.0", "q,c1,b,2,4,2.0,3.0",
                 "q,c2,a,1,3,1.0,2.0", f"q,c2,b,-{2**63 + 1},4,2.0,3.0", f"q,c3,a,{big},3,1.0,2.0", "q,c3,b,3,x,2.0,3.0"]
        path.write_text(HEADER + "\n".join(lines) + "\n")
        message = "positions must fit in 64-bit integers"
        for loader in (load_csv, reference_load_csv):
            result = loader(path, SCHEMA)
            assert [row.context_id for row in result.rows] == ["c0"]
            assert [(e.line_number, e.message) for e in result.errors] == [
                (9, "line 9: non-numeric clicks 'x'"), (4, message), (6, message),
            ]
        with pytest.raises(ValueError, match=message):
            LogRow("q", "c", ["a", "b"], [1, 2**63], [1.0, 2.0], {})

    def test_rows_and_pairs_pass_the_public_constructors(self, tmp_path):
        """The trusted paths build nothing the validating constructors would change."""
        dataset = generate_flip_dataset(40, WeightVector(np.array([0.5, 0.3, 0.2])), margin=0.01, seed=3)
        path = tmp_path / "flips.csv"
        save_csv(dataset.rows, path, dataset.schema)
        rows = load_csv(path, dataset.schema).rows
        assert len(rows) == 80
        assert [row_state(rebuilt_row(row)) for row in rows] == [row_state(row) for row in rows]
        pairs = mine_flip_pairs(rows)
        assert len(pairs) == 38  # two of the 40 queries' flips do not survive the click noise
        for pair in pairs:
            fields = (pair.row_1, pair.row_2, pair.item_a, pair.item_b, pair.strength)
            assert (again := FlipPair(*fields)) is not pair
            assert (again.row_1, again.row_2, again.item_a, again.item_b, again.strength) == fields
            assert type(pair.strength) is float

    def test_a_large_file_loads_in_bounded_memory(self, tmp_path):
        """Cells are converted a chunk at a time: the peak stays within twice what the rows keep."""
        spec = SyntheticSpec(k=3, num_queries=4000, weights=WeightVector(np.array([0.5, 0.3, 0.2])),
                             clicks_per_context=100, seed=5)
        dataset = generate_synthetic(spec)
        path = tmp_path / "large.csv"
        save_csv(dataset.rows, path, dataset.schema)
        del dataset
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = load_csv(path, synthetic_schema(3))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.rows) == 4000 and not result.errors
        assert peak - before <= 2 * (kept - before)


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
    """The miner as it was before it ordered pairs by index: ``sorted`` plus two ``items.index`` scans."""
    by_query = {}
    for row in rows:
        by_query.setdefault(row.query_id, []).append(row)
    pairs = []
    for query in sorted(by_query):
        qrows = [r for r in by_query[query] if r.clicks.sum() > min_total_clicks]
        seen = {}
        for row in qrows:
            ctr = row.clicks / row.clicks.sum()
            for i in range(row.n):
                for j in range(i + 1, row.n):
                    a, b = sorted((row.items[i], row.items[j]))
                    ia, ib = row.items.index(a), row.items.index(b)
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


def mined_with_thresholds(rows, thresholds):
    """``mine_flip_pairs(rows)`` with ``config``'s total-click and click-gap thresholds set to ``thresholds`` (left as
    they are if empty), and the oracle's pairs at the same thresholds."""
    with pytest.MonkeyPatch.context() as patch:
        if thresholds:
            patch.setattr(config, "MIN_TOTAL_CLICKS", thresholds[0])
            patch.setattr(config, "MIN_CLICK_DIFF", thresholds[1])
        return mine_flip_pairs(rows), oracle_mine_flip_pairs(rows, *thresholds)


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
        assert mine_flip_pairs([close]) == []  # no pair's gap counts anywhere

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
                if r.clicks.sum() > 5 and abs(r.clicks[0] - r.clicks[1]) >= 2
            ]
            a_side = [r for r in qualifying if r.clicks[0] > r.clicks[1]]
            b_side = [r for r in qualifying if r.clicks[1] > r.clicks[0]]
            if not a_side or not b_side:
                assert pairs == []
                continue
            def ctr_gap(row):
                ctrs = row.clicks / row.clicks.sum()
                return abs(ctrs[0] - ctrs[1])

            best = max(itertools.product(a_side, b_side), key=lambda pr: (ctr_gap(pr[0]) + ctr_gap(pr[1]),))
            assert len(pairs) == 1
            got = pairs[0]
            expect_strength = ctr_gap(best[0]) + ctr_gap(best[1])
            assert got.strength == pytest.approx(expect_strength)

    def test_matches_the_index_of_miner(self, tmp_path):
        """Random contexts shown out of id order, with equal click counts and click-less rows, built by the
        constructor and by the loader."""
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
        assert any(r.clicks.sum() == 0 for r in rows)
        assert any(len(set(r.clicks.tolist())) < r.n for r in rows)
        save_csv(rows, tmp_path / "log.csv", SCHEMA)
        loaded = load_csv(tmp_path / "log.csv", SCHEMA).rows
        assert len(loaded) == len(rows)
        list(loaded)  # the loaded rows exist before mining, so the mined pairs hold them, as the oracle's do
        for source, thresholds in itertools.product((rows, loaded), [(), (0.0, 0.0), (3.0, 1.0)]):
            got, want = mined_with_thresholds(source, thresholds)
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert (g.row_1, g.row_2, g.item_a, g.item_b) == (w.row_1, w.row_2, w.item_a, w.item_b)
                assert g.strength == w.strength

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_index_of_miner_with_ties(self, data):
        """Mixed widths, repeated context ids, equal CTR gaps and items shown out of id order."""
        rows = []
        for q in range(data.draw(st.integers(1, 3))):
            for _ in range(data.draw(st.integers(1, 5))):
                n = data.draw(st.integers(2, 5))
                items = data.draw(st.permutations(["b", "a", "d", "c", "e", "a b"]))[:n]
                clicks = data.draw(st.lists(st.sampled_from([0, 1, 2, 4, 8]), min_size=n, max_size=n))
                context = data.draw(st.sampled_from(["c0", "c1", "c2", "c10"]))
                rows.append(make_row(f"q{q}", context, items, clicks, {"price": np.arange(n), "rating": np.ones(n)}))
        thresholds = data.draw(st.sampled_from([(), (0.0, 0.0), (3.0, 1.0), (1.0, 0.5)]))
        got, want = mined_with_thresholds(rows, thresholds)
        assert [(p.row_1, p.row_2, p.item_a, p.item_b, p.strength) for p in got] == [
            (p.row_1, p.row_2, p.item_a, p.item_b, p.strength) for p in want
        ]
        assert all(type(p.strength) is float for p in got)

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


def oracle_rank_vectors(rows, schema):
    """Each row's ``(k, n)`` average ranks, feature values negated where lower is better, ranked alone."""
    lower = [i for i, spec in enumerate(schema.features) if spec.direction is Direction.LOWER_IS_BETTER]
    out = []
    for row in rows:
        values = np.array([row.features[name] for name in schema.names])
        values[lower] = -values[lower]
        out.append(average_ranks(values))
    return out


def oracle_batch_from_rows(rows, schema):
    """``batch_from_rows`` as it was before the context record: per-row ranks stacked per width, in order of first
    appearance, and every item a target, its place found by hand."""
    clicked = [row for row in rows if row.clicks.sum() > 0]
    ranks = oracle_rank_vectors(clicked, schema)
    by_n = {}
    for pos, row in enumerate(clicked):
        by_n.setdefault(row.n, []).append(pos)
    order = [pos for group in by_n.values() for pos in group]
    starts = dict(zip(order, itertools.accumulate([clicked[p].n for p in order], initial=0)))  # each row's first place
    space = rank_space(*(np.stack([ranks[p] for p in group]) for group in by_n.values()))
    targets = np.concatenate([row.clicks / row.clicks.sum() for row in clicked] or [np.zeros(0)])
    at = np.array([starts[p] + u for p, row in enumerate(clicked) for u in range(row.n)], dtype=np.intp)
    return ContextBatch(schema.k, space, targets, at)


def oracle_design_from_rows(rows, schema):
    """``design_from_rows`` as it was before the context record: one stacked block per clicked row."""
    clicked = [row for row in rows if row.clicks.sum() > 0]
    if not clicked:
        return np.empty((0, schema.k + 1)), np.empty(0)
    blocks = []
    for row in clicked:
        columns = [row.features[name] for name in schema.names] + [row.positions]
        blocks.append(np.column_stack(columns))
    return np.concatenate(blocks), np.concatenate([row.clicks / row.clicks.sum() for row in clicked])


def oracle_paired_split(pairs, train_fraction=config.DEFAULT_TRAIN_FRACTION, seed=0):
    """``paired_split`` as it was before the context record: union-find over row keys on every call."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise SplitTooSmall(f"need at least two flip pairs, got {len(pairs)}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    indexed = sorted(range(len(pairs)), key=lambda i: (
        pairs[i].row_1.query_id, pairs[i].item_a, pairs[i].item_b, pairs[i].row_1.context_id, pairs[i].row_2.context_id,
    ))
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    key = lambda row: (row.query_id, row.context_id)
    owner = {}
    for i in indexed:
        for row in (pairs[i].row_1, pairs[i].row_2):
            if key(row) in owner:
                ra, rb = find(owner[key(row)]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                owner[key(row)] = i
    clusters, cluster_order = {}, []
    for i in indexed:
        root = find(i)
        if root not in clusters:
            clusters[root] = []
            cluster_order.append(root)
        clusters[root].append(i)
    perm = np.random.default_rng(seed).permutation(len(cluster_order))
    target = min(max(int(round(train_fraction * len(pairs))), 1), len(pairs) - 1)
    train_idx, test_idx, count = [], [], 0
    for pos in perm:
        members = clusters[cluster_order[pos]]
        if count < target:
            train_idx.extend(members)
            count += len(members)
        else:
            test_idx.extend(members)
    if not test_idx:
        raise SplitTooSmall("pairs are too entangled to produce a nonempty test set")
    train_rows, seen = [], set()
    for i in train_idx:
        for row in (pairs[i].row_1, pairs[i].row_2):
            if key(row) not in seen:
                seen.add(key(row))
                train_rows.append(row)
    return train_rows, [pairs[i] for i in sorted(test_idx)]


def oracle_models(schema, cfg):
    """The rsm and least-squares models fitted through the oracles, scoring as the record-based models do."""

    def rsm_fit(train_rows):
        native = rsm.learner.fit(oracle_batch_from_rows(train_rows, schema), cfg).weights.values * (1.0 - cfg.lam)

        def scorer(rows):
            ranks, scores, by_n = oracle_rank_vectors(rows, schema), [None] * len(rows), {}
            for pos, row in enumerate(rows):
                by_n.setdefault(row.n, []).append(pos)
            for n, group in by_n.items():
                probs, _ = rank_chain_rows(rank_space(np.stack([ranks[p] for p in group])), native, cfg.lam, gradients=False)
                for p, values in zip(group, probs.reshape(-1, n)):
                    scores[p] = values
            return scores

        return scorer

    def least_squares_fit(train_rows):
        model = fit_least_squares_arrays(*oracle_design_from_rows(train_rows, schema))

        def scorer(rows):
            blocks = [np.column_stack([row.features[name] for name in schema.names] + [row.positions]) for row in rows]
            design = np.concatenate(blocks)
            return np.split(model.intercept + design @ model.coefficients, np.cumsum([row.n for row in rows]))[:-1]

        return scorer

    return [Model("rsm", rsm_fit), Model("least_squares", least_squares_fit), constant_model()]


def record_case(rng, queries, contexts, loaded):
    """Random click-log rows of widths 2 to 7 over a pool of eight items per query, and flip pairs among them.

    About a third of the pairs of each query's contexts that flip are kept,
    so rows are shared by several pairs. The rows of queries where
    ``loaded`` is set come back through ``save_csv`` and ``load_csv``.
    Returns ``(pairs, quiet)``, ``quiet`` holding rows without clicks.
    """
    rows = []
    for q in range(queries):
        for c in range(contexts):
            n = int(rng.integers(2, 8))
            clicks = rng.integers(0, 6, n) * (rng.random() > 0.15)
            feats = {"price": rng.integers(0, 3, n).astype(float), "rating": rng.random(n).round(1)}
            items = [f"i{j}" for j in rng.choice(8, n, replace=False)]
            rows.append(make_row(f"q{q}", f"c{c}", items, clicks, feats, rng.permutation(n) + 1))
    with tempfile.TemporaryDirectory() as tmp:
        save_csv(rows, Path(tmp) / "log.csv", SCHEMA)
        result = load_csv(Path(tmp) / "log.csv", SCHEMA)
    assert not result.errors and len(result.rows) == len(rows)
    rows = [back if loaded[int(row.query_id[1:]) % len(loaded)] else row for row, back in zip(rows, result.rows)]
    pairs = []
    for row_1, row_2 in itertools.permutations(rows, 2):
        if row_1.query_id != row_2.query_id:
            continue
        for a, b in itertools.permutations(sorted(set(row_1.items) & set(row_2.items)), 2):
            ctr_1 = row_1.clicks[row_1.items.index(a)] - row_1.clicks[row_1.items.index(b)]
            ctr_2 = row_2.clicks[row_2.items.index(a)] - row_2.clicks[row_2.items.index(b)]
            if ctr_1 > 0 > ctr_2 and rng.random() < 0.3:
                pairs.append(FlipPair(row_1=row_1, row_2=row_2, item_a=a, item_b=b, strength=1.0))
    return pairs, [row for row in rows if row.clicks.sum() == 0]


class TestRecordOracle:
    """The context record's gathers against the per-split rebuilds it replaced, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 4), contexts=st.integers(2, 4),
           loaded=st.lists(st.booleans(), min_size=1, max_size=3))
    def test_splits_batches_designs_and_reports_equal_the_oracles(self, seed, queries, contexts, loaded):
        rng = np.random.default_rng(seed)
        pairs, quiet = record_case(rng, queries, contexts, loaded)
        assume(len(pairs) >= 2)
        record = ContextRecord.of_pairs(pairs)
        for split_seed in range(3):
            try:
                want_train, want_test = oracle_paired_split(pairs, 0.7, split_seed)
            except SplitTooSmall:
                for split in (lambda: paired_split(pairs, 0.7, split_seed), lambda: record.split(0.7, split_seed)):
                    with pytest.raises(SplitTooSmall):
                        split()
                continue
            for train, test in (paired_split(pairs, 0.7, split_seed), record.split(0.7, split_seed)):
                assert list(map(id, train)) == list(map(id, want_train))
                assert list(map(id, test)) == list(map(id, want_test))
            train, _ = record.split(0.7, split_seed)
            for rows in (train, quiet + list(train) + quiet):
                assert_same_batch(batch_from_rows(rows, SCHEMA), oracle_batch_from_rows(list(rows), SCHEMA))
                for a, b in zip(design_from_rows(rows, SCHEMA), oracle_design_from_rows(list(rows), SCHEMA)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        cfg = LearnerConfig(max_iters=6)
        models = [rsm_model(SCHEMA, cfg), least_squares_model(SCHEMA), constant_model()]
        try:
            report = run_experiment(pairs, models, num_splits=3, seed=seed % 1000)
        except SplitTooSmall:
            return
        for name, model in zip(report.model_names, oracle_models(SCHEMA, cfg)):
            want = []
            for s in range(3):
                train, test = oracle_paired_split(pairs, config.DEFAULT_TRAIN_FRACTION, derive_seed(seed % 1000, f"split:{s}"))
                want.append(flip_accuracy(model.fit(train), test))
            assert report.per_split[name] == tuple(want)


class TestRecordArrays:
    """The record derives every row's click totals and CTRs, and groups contexts by width through ``by_width``."""

    def test_ctrs_and_clicked_equal_each_rows_own(self, tmp_path):
        """Fractional clicks at n = 5, 9 and 70 (numpy sums nine or more in pairs), rows without clicks
        interleaved, built by the constructor and by the loader: the record's clicks, totals and CTRs are each
        row's own ``clicks``, ``clicks.sum()`` and ``clicks / clicks.sum()``."""
        rng = np.random.default_rng(17)
        rows = []
        for c, n in enumerate([9, 5, 70, 5, 9, 70, 5, 70, 9]):
            clicks = rng.random(n) * 10 ** rng.integers(0, 6) if c % 4 != 3 else np.zeros(n)
            feats = {name: rng.random(n) for name in SCHEMA.names}
            rows.append(make_row(f"q{c % 2}", f"c{c}", [f"i{j}" for j in range(n)], clicks, feats))
        save_csv(rows, tmp_path / "log.csv", SCHEMA)
        for source in (rows, load_csv(tmp_path / "log.csv", SCHEMA).rows):
            record = ContextRecord.of_rows(source)
            assert record.clicked.tolist() == [row.clicks.sum() > 0 for row in source] == [c % 4 != 3 for c in range(9)]
            for row, start, total, clicked in zip(source, record.starts.tolist(), record.totals, record.clicked.tolist()):
                want = row.clicks / row.clicks.sum() if clicked else np.zeros(row.n)
                assert record.ctrs[start:start + row.n].tobytes() == want.tobytes()
                assert record.clicks[start:start + row.n].tobytes() == row.clicks.tobytes()
                assert total.tobytes() == row.clicks.sum().tobytes()

    @settings(max_examples=200, deadline=None)
    @given(shown=st.lists(st.tuples(st.sampled_from("pq"), st.lists(st.sampled_from("abcde"), min_size=2, max_size=5,
                                                                   unique=True)), max_size=12))
    def test_item_keys_code_each_query_and_item_in_order_of_first_appearance(self, shown):
        """Two places share a code exactly when they share (query, item), and codes count up from 0 as new
        (query, item) names first appear; each code's key is its places' (query, item)."""
        rows = [make_row(query, f"c{c}", items, np.ones(len(items)), {name: np.zeros(len(items)) for name in SCHEMA.names})
                for c, (query, items) in enumerate(shown)]
        codes, keys = ContextRecord.of_rows(rows).item_keys
        places = [(row.query_id, item) for row in rows for item in row.items]
        first = list(dict.fromkeys(places))  # each (query, item) once, in order of first appearance
        assert keys == first
        assert codes.dtype == np.intp and codes.tolist() == [first.index(place) for place in places]

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(2, 6), max_size=30))
    def test_by_width_equals_a_dict_oracle(self, sizes):
        """Widths in order of first appearance, each with its positions ascending, every position exactly once."""
        want = {}
        for pos, n in enumerate(sizes):
            want.setdefault(n, []).append(pos)
        got = rsm.record.by_width(np.array(sizes, dtype=np.intp))
        assert [(n, members.tolist()) for n, members in got] == list(want.items())
        assert all(members.dtype == np.intp for _, members in got)


FLIPS_24 = Path(__file__).resolve().parent / "data" / "flips_24.csv"


class TestRecordView:
    """A view's ``index`` says which of its record's rows or pairs it holds, so a view has no in-place edit: an edit
    method is missing and item assignment is unsupported."""

    EDITS = {
        "setitem": (TypeError, lambda view: operator.setitem(view, slice(None), view[:2])),
        "delitem": (TypeError, lambda view: operator.delitem(view, 0)),
        "iadd": (TypeError, lambda view: operator.iadd(view, view[:1])),
        "imul": (TypeError, lambda view: operator.imul(view, 2)),
        "append": (AttributeError, lambda view: view.append(view[0])),
        "extend": (AttributeError, lambda view: view.extend(view[:1])),
        "insert": (AttributeError, lambda view: view.insert(0, view[0])),
        "pop": (AttributeError, lambda view: view.pop()),
        "remove": (AttributeError, lambda view: view.remove(view[0])),
        "clear": (AttributeError, lambda view: view.clear()),
        "sort": (AttributeError, lambda view: view.sort(key=id)),
        "reverse": (AttributeError, lambda view: view.reverse()),
    }

    @pytest.mark.parametrize("kind", ["rows", "pairs"])
    @pytest.mark.parametrize("edit", EDITS)
    def test_every_edit_in_place_raises_and_changes_nothing(self, edit, kind):
        rows = load_csv(FLIPS_24, synthetic_schema(3)).rows
        view = rows if kind == "rows" else mine_flip_pairs(rows)
        held, index = list(view), view.index.copy()
        error, apply = self.EDITS[edit]
        with pytest.raises(error):
            apply(view)
        assert list(view) == held and view.index.tolist() == index.tolist()
        assert len(mine_flip_pairs(rows)) == 15

    def test_a_filtered_copy_is_mined_and_batched_as_its_own_rows(self):
        """The stale-index repro: assigning a filtered list into the loaded view raises, and the list itself holds
        one query's two contexts, one flip pair and eight targets."""
        schema = synthetic_schema(3)
        rows = load_csv(FLIPS_24, schema).rows
        with pytest.raises(TypeError, match="does not support item assignment"):
            rows[:] = [r for r in rows if r.query_id == "q00001"]
        kept = [r for r in rows if r.query_id == "q00001"]
        assert len(rows) == 48 and len(kept) == 2
        assert len(mine_flip_pairs(kept)) == 1 and len(batch_from_rows(kept, schema)) == 8

    def test_copies_comparisons_and_slices_are_views_of_the_record(self, tmp_path):
        """A copy or a slice is a view of the same record, which holds the same objects; a view equals a list or view
        of those objects, in order, and ``+`` is left to ``list(view)``."""
        rows = load_csv(FLIPS_24, synthetic_schema(3)).rows
        copied, head = copy.copy(rows), rows[:3]
        assert copied is not rows and copied == rows and copied.record is rows.record
        assert type(head) is RecordView and head.record is rows.record and head.index.tolist() == [0, 1, 2]
        assert head == list(rows)[:3] and list(rows)[:3] == head and head != list(rows)[1:4] and rows[-1] is rows[47]
        assert list(rows) + [] == list(rows)
        with pytest.raises(TypeError):
            rows + []
        (tmp_path / "empty.csv").write_text(",".join(rsm.data.BASE_COLUMNS + synthetic_schema(3).names) + "\n")
        empty = load_csv(tmp_path / "empty.csv", synthetic_schema(3)).rows
        assert empty == [] and mine_flip_pairs(empty) == [] and not empty

    def test_rows_and_pairs_are_made_on_access_and_then_held(self):
        """Loading and mining make no row and no pair; each is made when first read, by index or iteration, and is
        the same object from then on in every view of its record. A record gathered after rows were made holds them."""
        rows = load_csv(FLIPS_24, synthetic_schema(3)).rows
        pairs = mine_flip_pairs(rows)
        assert rows.record.views == {"rows": {}, "pairs": {}} and pairs.record.views == {"rows": {}, "pairs": {}}
        pair = pairs[4]
        assert pair is pairs[4] and list(pairs.record.views["pairs"]) == [4] and list(pairs)[4] is pair
        assert pair.row_1 is pairs.record.rows[pairs.record.pair_rows[4, 0]] and pair.row_1.record is pairs.record
        assert all(a is b for a, b in zip(rows, rows)) and len(rows.record.views["rows"]) == 48
        again = mine_flip_pairs(rows)
        assert [(p.row_1.record, p.row_2.record) for p in again] == [(rows.record, rows.record)] * 15

    def test_a_hand_built_pair_is_a_view_of_its_one_pair_record(self):
        """``FlipPair(...)`` keeps its row objects in a record of its two rows, reads its fields back from it, and is
        frozen as a row is."""
        feats = {"price": [1.0, 2.0, 3.0], "rating": [3.0, 1.0, 2.0]}
        one, two = (make_row("q", c, ["a", "b", "c"], clicks, feats) for c, clicks in (("c1", [9, 3, 1]), ("c2", [2, 8, 1])))
        pair = FlipPair(one, two, "a", "b", 1)
        assert (pair.record.rows[0], pair.record.rows[1], pair.index) == (one, two, 0) and pair.record.pairs[0] is pair
        assert (pair.row_1, pair.row_2, pair.item_a, pair.item_b, pair.strength) == (one, two, "a", "b", 1.0)
        assert pair.record.pair_items.tolist() == [[[0, 1], [1, 0]]]
        with pytest.raises(AttributeError, match="read-only view"):
            pair.strength = 2.0


class TestLoadedRowsAreViews:
    def test_a_loaded_row_reads_its_record_and_holds_nothing_else(self):
        """Each row's arrays share memory with its record's columns and are read-only, every attribute refuses an
        assignment, and ``LogRow(...)`` rebuilt from a row gives the same state."""
        rows = load_csv(FLIPS_24, synthetic_schema(3)).rows
        record = rows.record
        for index, row in enumerate(rows):
            assert row.record is record and row.index == index
            arrays = [(row.positions, record.positions), (row.clicks, record.clicks)]
            arrays += [(values, record.features[name]) for name, values in row.features.items()]
            for array, column in arrays:
                assert np.shares_memory(array, column) and not array.flags.writeable
            for name in ("record", "index", "query_id", "items", "clicks", "features", "n", "anything"):
                with pytest.raises(AttributeError, match="read-only view"):
                    setattr(row, name, None)
            assert row_state(rebuilt_row(row)) == row_state(row)


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
            assert row.clicks.sum() == 200

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
            ctr = row.clicks / row.clicks.sum()
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


# The generators through the object path: every topology through
# encode_rank_topology, every chain through combine and stationary, one
# candidate at a time, on the same random streams. Items, features,
# positions, topologies and counts must match bit for bit and targets within
# roundoff; clicks are drawn from each side's own targets, so a target moved
# in its last bits may move a click.
def reference_synthetic(spec):
    rng = np.random.default_rng(spec.seed)
    schema = synthetic_schema(spec.k)
    values = rng.random((spec.num_queries, spec.k, spec.n))
    instances, rows = [], []
    for q in range(spec.num_queries):
        query_id = f"q{q:05d}"
        items = tuple(f"{query_id}_i{j}" for j in range(spec.n))
        topologies = tuple(
            encode_rank_topology(values[q, i], Direction.HIGHER_IS_BETTER, items, schema.names[i])
            for i in range(spec.k)
        )
        probs = stationary(combine(topologies, spec.weights, spec.lam)).probs
        instances += [TrainingInstance(query_id, items, topologies, u, float(p)) for u, p in enumerate(probs)]
        if spec.clicks_per_context is not None:
            clicks = rng.multinomial(spec.clicks_per_context, probs)
            features = {schema.names[i]: values[q, i] for i in range(spec.k)}
            rows.append(LogRow(query_id, f"c{q:05d}", items, np.arange(1, spec.n + 1), clicks, features))
    return instances, rows, spec.num_queries


def reference_flip_dataset(num_queries, weights, lam=config.DEFAULT_LAMBDA, n=5, clicks_per_context=10_000, margin=0.02,
                           seed=0):
    k = weights.k
    schema = synthetic_schema(k)
    instances, rows, drawn = [], [], 0
    pool_size = 2 * n - 2
    for q in range(num_queries):
        rng = np.random.default_rng(derive_seed(seed, f"query:{q}"))
        query_id = f"q{q:05d}"
        pool_items = tuple(f"{query_id}_i{j}" for j in range(pool_size))
        idx_1 = list(range(n))
        idx_2 = [0, 1] + list(range(n, pool_size))
        accepted = None
        for _ in range(rsm.data.MAX_CANDIDATES):
            drawn += 1
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
        rng = np.random.default_rng(derive_seed(seed, f"clicks:{q}"))
        positions = [rng.permutation(n) + 1 for _ in accepted]
        for c, (items, subvals, topologies, probs) in enumerate(accepted):
            clicks = rng.multinomial(clicks_per_context, probs)
            features = {schema.names[i]: subvals[i] for i in range(k)}
            rows.append(LogRow(query_id, f"c{q:05d}_{c}", items, positions[c], clicks, features))
            instances += [TrainingInstance(query_id, items, topologies, u, float(p)) for u, p in enumerate(probs)]
    return instances, rows, drawn


def assert_same_dataset(data, reference):
    instances, rows, drawn = reference
    assert data.candidates_drawn == drawn
    assert len(data.rows) == len(rows) and len(data.instances) == len(instances)
    for got, want in zip(data.rows, rows):
        assert (got.query_id, got.context_id, got.items) == (want.query_id, want.context_id, want.items)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.clicks.sum() == want.clicks.sum()
        assert np.abs(got.clicks - want.clicks).sum() <= 2
        assert list(got.features) == list(want.features)
        for name in want.features:
            assert got.features[name].tobytes() == want.features[name].tobytes()
    tuples = {}
    for got, want in zip(data.instances, instances):
        assert (got.query_id, got.item_ids, got.target_index) == (want.query_id, want.item_ids, want.target_index)
        assert abs(got.target_prob - want.target_prob) <= 1e-12
        assert [t.feature for t in got.topologies] == [t.feature for t in want.topologies]
        for t_got, t_want in zip(got.topologies, want.topologies):
            assert t_got.item_ids == t_want.item_ids
            assert t_got.matrix.entries.tobytes() == t_want.matrix.entries.tobytes()
        tuples.setdefault(got.item_ids, set()).add(id(got.topologies))
    # one topology tuple per context, shared by all of that context's instances
    assert all(len(ids) == 1 for ids in tuples.values())


def dataset_bytes(data):
    """Every bit of a generated dataset: rows, targets, topologies and the candidate count."""
    parts = [str(data.candidates_drawn).encode()]
    for row in data.rows:
        parts += [repr((row.query_id, row.context_id, row.items)).encode(), row.clicks.tobytes(), row.positions.tobytes()]
        parts += [values.tobytes() for values in row.features.values()]
    for inst in data.instances:
        parts += [np.float64(inst.target_prob).tobytes()] + [t.matrix.entries.tobytes() for t in inst.topologies]
    return b"".join(parts)


class TestGeneratorOracle:
    WEIGHTS = WeightVector(np.array([0.5, 0.3, 0.2]))

    def test_flip_dataset_matches_the_object_path(self):
        kwargs = dict(num_queries=12, weights=self.WEIGHTS, clicks_per_context=2000, margin=0.02, seed=4)
        assert_same_dataset(generate_flip_dataset(**kwargs), reference_flip_dataset(**kwargs))

    def test_wide_flip_dataset_matches_the_object_path(self):
        """Above DIRECT_SOLVE_MAX_N the object path solves by power iteration; the kernel has no switch on n."""
        kwargs = dict(num_queries=6, weights=self.WEIGHTS, n=65, clicks_per_context=500, margin=0.0, seed=0)
        assert_same_dataset(generate_flip_dataset(**kwargs), reference_flip_dataset(**kwargs))

    @pytest.mark.parametrize("n", [5, 70])
    @pytest.mark.parametrize("clicks", [None, 3000])
    def test_synthetic_matches_the_object_path(self, n, clicks):
        spec = SyntheticSpec(k=3, num_queries=4, weights=self.WEIGHTS, n=n, clicks_per_context=clicks, seed=n)
        assert_same_dataset(generate_synthetic(spec), reference_synthetic(spec))

    @pytest.mark.parametrize("n, margin", [(5, 0.02), (65, 0.0)])
    def test_candidate_block_size_changes_no_bit(self, monkeypatch, n, margin):
        """150 candidates, a multiple of neither block, drop some of the queries at n = 5."""
        monkeypatch.setattr(rsm.data, "MAX_CANDIDATES", 150)
        kwargs = dict(num_queries=6, weights=self.WEIGHTS, n=n, clicks_per_context=5000, margin=margin, seed=9)
        default = generate_flip_dataset(**kwargs)
        assert default.rows
        if n == 5:
            assert len(default.rows) < 2 * 6
        for block in (1, 7):
            monkeypatch.setattr(rsm.data, "CANDIDATE_BLOCK", block)
            assert dataset_bytes(generate_flip_dataset(**kwargs)) == dataset_bytes(default)

    @pytest.mark.parametrize(
        "weights, lam",
        [(WEIGHTS, 1.5), (WEIGHTS, 0.0), (WEIGHTS.as_native(0.15), 0.15), (WeightVector(np.array([1.0])), 0.15)],
        ids=["lam_above_one", "lam_zero", "native_weights", "one_feature"],
    )
    def test_bad_mixture_rejected_before_any_draw(self, monkeypatch, weights, lam):
        def no_draws(*args, **kwargs):
            raise AssertionError("the generator drew before validating")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError):
            generate_flip_dataset(num_queries=2, weights=weights, lam=lam)

    @pytest.mark.parametrize("bad", [{"num_queries": 0}, {"num_queries": -2}, {"n": 2}, {"n": 1},
                                     {"clicks_per_context": 0}, {"margin": -0.01}, {"margin": float("nan")}])
    def test_bad_counts_rejected_before_any_draw(self, monkeypatch, bad):
        """Counts below 1, n below 3 or a negative margin raise, as SyntheticSpec's do, and draw nothing."""
        def no_draws(*args, **kwargs):
            raise AssertionError("the generator drew before validating")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        message = "needs n of at least 3, the two flip candidates" if "n" in bad else "must be positive and margin nonnegative"
        with pytest.raises(ValueError, match=message):
            generate_flip_dataset(**{"num_queries": 2, "weights": self.WEIGHTS, **bad})


class TestFlipGeneratorLog:
    WEIGHTS = WeightVector(np.array([0.5, 0.3, 0.2]))

    def test_dropped_queries_are_a_warning_with_counts(self, caplog, monkeypatch):
        monkeypatch.setattr(rsm.data, "MAX_CANDIDATES", 4)
        with caplog.at_level(logging.DEBUG, logger="rsm.data"):
            data = generate_flip_dataset(num_queries=3, weights=self.WEIGHTS, margin=0.9, seed=1)
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


def target_contexts(batch: ContextBatch) -> list:
    """Per target of a batch, in dataset order, all the kernel reads for it, as bytes, whatever order the space holds
    its widths in: the target, its item's place in its context, and the context's ranks and their products."""
    stacks, forms, forms_v, sums = batch.space
    contexts = [(ranks, form) for stack, form_stack in zip(stacks, forms) for ranks, form in zip(stack, form_stack)]
    starts = np.cumsum([0] + [ranks.shape[1] for ranks, _ in contexts])
    owner = np.searchsorted(starts, batch.at, side="right") - 1
    return [(target.tobytes(), int(at - starts[c]), *(part.tobytes() for part in (*contexts[c], forms_v[:, c], sums[c])))
            for target, at, c in zip(batch.targets, batch.at, owner.tolist())]


def assert_same_batch(got: ContextBatch, want: ContextBatch) -> None:
    """Two batches hold the same targets over the same contexts, bit for bit, in the same dataset order, and spaces
    of as many contexts of each width."""
    assert (got.k, len(got), got.targets.dtype) == (want.k, len(want), want.targets.dtype)
    assert sorted(ranks.shape for ranks in got.space.stacks) == sorted(ranks.shape for ranks in want.space.stacks)
    assert target_contexts(got) == target_contexts(want)


class TestInstanceFiles:
    def test_round_trip_and_topology_sharing(self, tmp_path):
        spec = SyntheticSpec(k=2, num_queries=3, weights=WeightVector(np.array([0.6, 0.4])), seed=2)
        data = generate_synthetic(spec)
        path = tmp_path / "inst.json"
        save_instances(data.instances, path)
        back = load_instances(path)
        assert len(back) == len(data.instances)
        assert_same_batch(back, as_batch(data.instances))
        # each context is stored once, as its ranks, and its instances' targets point at it
        payload = json.loads(path.read_text())
        assert payload["format"] == 2 and len(payload["contexts"]) == 3
        first = data.instances[0]
        assert payload["contexts"][0] == {
            "query_id": first.query_id, "items": list(first.item_ids), "features": ["f0", "f1"],
            "ranks": [top.ranks.tolist() for top in first.topologies],
        }
        assert payload["targets"] == [
            [q, u, inst.target_prob] for q in range(3) for u, inst in enumerate(data.instances[5 * q:5 * q + 5])
        ]

    @staticmethod
    def context_file(tmp_path, order):
        """Instances of the contexts ``order`` names, their saved payload and their loaded batch.

        Contexts 0 and 1 share query and items but not ranks.
        """
        items = ("a", "b", "c")
        contexts = [
            tuple(encode_rank_topology(v, item_ids=items, feature=f"f{i}") for i, v in enumerate(values))
            for values in ([[1, 2, 3], [3, 1, 2]], [[3, 2, 1], [3, 1, 2]])
        ]
        instances = [TrainingInstance("q", items, contexts[c], u % 3, 1 / 3) for u, c in enumerate(order)]
        path = tmp_path / "contexts.json"
        save_instances(instances, path)
        return instances, json.loads(path.read_text()), load_instances(path)

    def test_equal_items_with_other_ranks_load_as_two_contexts(self, tmp_path):
        instances, payload, back = self.context_file(tmp_path, [0, 1])
        assert [c["ranks"] for c in payload["contexts"]] == [[[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]],
                                                              [[3.0, 2.0, 1.0], [3.0, 1.0, 2.0]]]
        assert [ranks.shape for ranks in back.space.stacks] == [(2, 2, 3)]
        assert_same_batch(back, as_batch(instances))

    def test_scattered_instances_of_one_context_are_stored_once(self, tmp_path):
        instances, payload, back = self.context_file(tmp_path, [0, 1, 0, 1, 0])
        assert len(payload["contexts"]) == 2
        assert [target[:2] for target in payload["targets"]] == [[0, 0], [1, 1], [0, 2], [1, 0], [0, 1]]
        assert back.targets.size == 5 and back.at.tolist() == [0, 4, 2, 3, 1]  # dataset order: contexts 0, 1, 0, 1, 0
        assert_same_batch(back, as_batch(instances))

    def test_malformed_file_rejected(self, tmp_path):
        """A format 1 file, which stored every instance's topology matrices, is refused with a way out."""
        path = tmp_path / "junk.json"
        path.write_text('{"instances": [{"query_id": "q"}]}')
        with pytest.raises(SchemaError, match="format 1.*regenerate it with `rsm synth`"):
            load_instances(path)


def valid_instance_payload() -> dict:
    """A small valid format 2 payload: contexts of widths 3 and 2 (with tied ranks), three targets."""
    return {
        "format": 2,
        "contexts": [
            {"query_id": "q", "items": ["a", "b", "c"], "features": ["f0", "f1"], "ranks": [[1.0, 2.0, 3.0], [2.5, 2.5, 1.0]]},
            {"query_id": "q", "items": ["a", "d"], "features": ["f0", "f1"], "ranks": [[1.0, 2.0], [1.5, 1.5]]},
        ],
        "targets": [[0, 0, 0.25], [1, 1, 0.5], [0, 2, 1]],
    }


_DROP = object()


def _set(path, value):
    """An edit that sets the payload entry at ``path`` (keys and indices) to ``value``, or drops it for ``_DROP``."""
    def edit(payload):
        entry = payload
        for key in path[:-1]:
            entry = entry[key]
        if value is _DROP:
            del entry[path[-1]]
        else:
            entry[path[-1]] = value
        return payload
    return edit


# each entry makes the file's JSON value from the valid payload
MALFORMED_INSTANCE_FILES = {
    "not an object": lambda payload: [payload],
    "format 1": lambda payload: {"instances": []},
    "format 3": _set(["format"], 3),
    "no targets": _set(["targets"], _DROP),
    "contexts not an array": _set(["contexts"], {"0": {}}),
    "context without ranks": _set(["contexts", 0, "ranks"], _DROP),
    "context not an object": _set(["contexts", 0], [["a", "b"]]),
    "repeated item": _set(["contexts", 0, "items"], ["a", "b", "a"]),
    "one item": _set(["contexts", 1], {"query_id": "q", "items": ["a"], "features": ["f0", "f1"], "ranks": [[1.0], [1.0]]}),
    "items not a list": _set(["contexts", 1, "items"], "ad"),
    "ranks not average ranks": _set(["contexts", 0, "ranks", 1], [2.0, 2.0, 1.0]),
    "rank moved by roundoff": _set(["contexts", 0, "ranks", 0, 0], 1.0 + 1e-13),
    "NaN rank": _set(["contexts", 0, "ranks", 0, 0], float("nan")),
    "ranks over other items": _set(["contexts", 0, "ranks"], [[1.0, 2.0], [1.0, 2.0]]),
    "fewer rank vectors than features": _set(["contexts", 0, "ranks"], [[1.0, 2.0, 3.0]]),
    "ragged ranks": _set(["contexts", 0, "ranks", 1], [1.0, 2.0]),
    "non-numeric rank": _set(["contexts", 0, "ranks", 0, 1], "two"),
    "contexts disagree on k": _set(["contexts", 1], {"query_id": "q", "items": ["a", "d"], "features": ["f0"], "ranks": [[1.0, 2.0]]}),
    "target not a triple": _set(["targets", 0], [0, 0]),
    "context out of range": _set(["targets", 1, 0], 2),
    "negative context": _set(["targets", 1, 0], -1),
    "huge context": _set(["targets", 1, 0], 2**70),
    "index out of range": _set(["targets", 1, 1], 2),
    "negative index": _set(["targets", 0, 1], -1),
    "float context": _set(["targets", 0, 0], 0.0),
    "boolean index": _set(["targets", 0, 1], True),
    "string probability": _set(["targets", 0, 2], "0.5"),
    "probability above one": _set(["targets", 0, 2], 1.5),
    "negative probability": _set(["targets", 0, 2], -0.1),
    "NaN probability": _set(["targets", 0, 2], float("nan")),
}


class TestMalformedInstanceFiles:
    def test_the_valid_payload_loads(self, tmp_path):
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(valid_instance_payload()))
        batch = load_instances(path)
        assert len(batch) == 3 and batch.k == 2
        assert [ranks.shape for ranks in batch.space.stacks] == [(1, 2, 2), (1, 2, 3)]
        assert batch.at.tolist() == [2, 1, 4] and batch.targets.tolist() == [0.25, 0.5, 1.0]  # the 2-wide context first

    @pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCE_FILES))
    def test_is_refused(self, case, tmp_path):
        """Each file raises SchemaError at load, and ``rsm train`` exits 3 on it without writing weights."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED_INSTANCE_FILES[case](valid_instance_payload())))
        with pytest.raises(SchemaError):
            load_instances(path)
        assert rsm.cli.main(["train", str(path), "--out-dir", str(tmp_path / "fit")]) == 3
        assert not (tmp_path / "fit" / "weights.json").exists()


@st.composite
def instance_sets(draw):
    """Instances of 2 to 4 contexts, at widths on both sides of 64, with tied ranks, part of their targets, interleaved."""
    k = draw(st.integers(1, 3))
    widths = [draw(st.integers(2, 8)), draw(st.integers(63, 70))]
    widths += draw(st.lists(st.sampled_from([2, 5, 64, 65]), max_size=2))
    instances = []
    for c, n in enumerate(widths):
        items = tuple(f"c{c}_i{j}" for j in range(n))
        top = draw(st.sampled_from([2, 1000]))  # few distinct values force ties
        topologies = tuple(
            encode_rank_topology(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), item_ids=items, feature=f"f{i}")
            for i in range(k)
        )
        targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        instances += [TrainingInstance(f"q{c % 2}", items, topologies, u, draw(st.floats(0.0, 1.0))) for u in targets]
    return draw(st.permutations(instances))


@settings(max_examples=25, deadline=None)
@given(instances=instance_sets())
def test_a_saved_file_fits_bit_equal_to_its_instances(instances):
    """The batch ``load_instances`` reads back gives ``fit`` and ``linearized_row`` the bits of the instances' own batch."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instances.json"
        save_instances(instances, path)
        back = load_instances(path)
    assert_same_batch(back, as_batch(instances))
    cfg = LearnerConfig(max_iters=5)
    got, want = fit(back, cfg), fit(instances, cfg)
    assert got.weights.values.tobytes() == want.weights.values.tobytes()
    assert (got.per_iteration_loss, got.qp_steps) == (want.per_iteration_loss, want.qp_steps)
    weights = WeightVector(np.arange(1.0, back.k + 1.0) / sum(range(1, back.k + 1)))
    for a, b in zip(linearized_row(back, weights), linearized_row(instances, weights)):
        assert a.tobytes() == b.tobytes()


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

    def test_per_row_bridges_take_their_targets_from_the_record(self):
        """Click-less contexts interleaved at n = 5 and 9: the instances' targets and the feature rows' CTRs are the
        same from a list as from its record view, the clicked rows' ``record.ctrs`` bit for bit, in row order."""
        rng = np.random.default_rng(23)
        rows = []
        for c, n in enumerate([5, 9, 5, 9, 9, 5, 5]):
            clicks = rng.random(n) * 100 if c % 3 != 1 else np.zeros(n)
            rows.append(make_row("q", f"c{c}", [f"i{j}" for j in range(n)], clicks, {name: rng.random(n) for name in SCHEMA.names}))
        view = rsm.record.record_view(rows)
        want = view.record.ctrs[view.record.items(np.flatnonzero(view.record.clicked))]
        assert want.size == 5 + 5 + 9 + 5 + 5 and (want > 0).all()  # the two 9-wide rows at 1 and 4 have no clicks
        for source in (rows, view):
            instances = training_instances_from_rows(source, SCHEMA)
            assert [inst.query_id for inst in instances] == ["q"] * want.size
            targets = np.array([inst.target_prob for inst in instances])
            ctrs = np.array([row.ctr for row in feature_rows_from_logs(source, SCHEMA)])
            assert targets.tobytes() == ctrs.tobytes() == want.tobytes()

    def test_batch_from_rows_skips_quiet_contexts(self, monkeypatch, tmp_path):
        """A context without clicks has no targets, and it is never ranked, in a list or in a loaded file."""
        quiet = make_row("q", "c0", ["a", "b"], [0, 0], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        ranked, real = [], rsm.record.feature_ranks
        monkeypatch.setattr(rsm.record, "feature_ranks", lambda rows, schema: ranked.extend(rows) or real(rows, schema))
        batch = batch_from_rows([quiet] + two_context_rows(), SCHEMA)
        assert len(ranked) == 2 and quiet not in ranked
        assert batch.k == 2 and len(batch) == 5
        assert [ranks.shape for ranks in batch.space.stacks] == [(1, 2, 2), (1, 2, 3)]
        assert batch.targets.tolist() == pytest.approx([2 / 3, 1 / 3, 2 / 9, 6 / 9, 1 / 9])
        assert batch.at.tolist() == [0, 1, 2, 3, 4]
        assert len(batch_from_rows([quiet], SCHEMA)) == 0
        save_csv([quiet] + two_context_rows(), tmp_path / "log.csv", SCHEMA)
        loaded, ranked[:] = load_csv(tmp_path / "log.csv", SCHEMA).rows, []
        assert len(batch_from_rows(loaded, SCHEMA)) == 5 and len(ranked) == 2 and loaded[0] not in ranked

    def test_design_bridges_never_rank_quiet_contexts(self, monkeypatch):
        """A list's click-less context is left out of the record its design is read from, as it is for the batch."""
        quiet = make_row("q", "c0", ["a", "b"], [0, 0], {"price": [1.0, 2.0], "rating": [1.0, 2.0]})
        ranked, real = [], rsm.record.feature_ranks
        monkeypatch.setattr(rsm.record, "feature_ranks", lambda rows, schema: ranked.extend(rows) or real(rows, schema))
        design, ctrs = design_from_rows([quiet] + two_context_rows(), SCHEMA)
        assert len(feature_rows_from_logs([quiet] + two_context_rows(), SCHEMA)) == len(ctrs) == len(design) == 5
        assert len(ranked) == 4 and quiet not in ranked

    def test_mixed_widths_encode_once_per_width(self, monkeypatch):
        rng = np.random.default_rng(515)
        rows = []
        for c in range(8):
            n = (5, 70)[c % 2]
            clicks = np.zeros(n) if c in (2, 5) else rng.integers(0, 9, n)
            feats = {"price": rng.integers(0, 4, n).astype(float), "rating": rng.random(n)}
            rows.append(make_row("q", f"c{c}", [f"i{j}" for j in range(n)], clicks, feats))
        shapes = []
        real_kernel = rsm.record.average_ranks

        def counting_kernel(values):
            shapes.append(values.shape)
            return real_kernel(values)

        monkeypatch.setattr(rsm.record, "average_ranks", counting_kernel)
        batch = batch_from_rows(rows, SCHEMA)
        assert shapes == [(3, 2, 5), (3, 2, 70)]
        clicked = [row for row in rows if row.clicks.sum() > 0]
        for stack, n in zip(batch.space.stacks, (5, 70)):
            group = [row for row in clicked if row.n == n]
            assert stack.shape == (len(group), 2, n) and len(group) == 3
            for ranks, row in zip(stack, group):
                for got, spec in zip(ranks, SCHEMA.features):
                    expected = encode_rank_topology(row.features[spec.name], spec.direction).ranks
                    assert got.tobytes() == expected.tobytes()
        assert len(shapes) == 2

    def test_feature_rows_append_position(self):
        logs = two_context_rows()
        rows = feature_rows_from_logs(logs, SCHEMA)
        assert [r.features.size for r in rows] == [3] * 5
        assert rows[0].features[-1] == 1.0
        assert [r.ctr for r in rows] == pytest.approx([2 / 3, 1 / 3, 2 / 9, 6 / 9, 1 / 9])


class TestEncodingCache:
    """``topologies_from_row`` encodes afresh on every call and leaves nothing on the row."""

    def test_direction_change_encodes_afresh(self):
        row = two_context_rows()[1]
        price = topologies_from_row(row, SCHEMA)[0].matrix.entries
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
        assert not np.array_equal(got[0].matrix.entries, price)
        assert np.array_equal(topologies_from_row(row, SCHEMA)[0].matrix.entries, price)

    @pytest.mark.parametrize("n", [3, 65])
    def test_topologies_equal_encode_rank_topology_bit_for_bit(self, n):
        """Under both directions of every feature, and the row stays the same view, its record encoding nothing."""
        rng = np.random.default_rng(930 + n)
        feats = {"price": rng.integers(0, 4, n).astype(float), "rating": rng.random(n)}
        row = make_row("q", "c", [f"i{j}" for j in range(n)], rng.integers(0, 9, n), feats)
        attributes = (row.record, row.index)
        for direction in Direction:
            schema = DatasetSchema(features=tuple(FeatureSpec(spec.name, direction) for spec in SCHEMA.features))
            topologies = topologies_from_row(row, schema)
            for top, spec in zip(topologies, schema.features):
                fresh = encode_rank_topology(row.features[spec.name], spec.direction, row.items, spec.name)
                assert (top.feature, top.item_ids) == (fresh.feature, fresh.item_ids)
                assert top.matrix.entries.tobytes() == fresh.matrix.entries.tobytes()
        assert (row.record, row.index) == attributes and row.record._encodings == {}


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

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        restored = pickle.loads(pickle.dumps(SCHEMA))
        assert restored == SCHEMA and hash(restored) == hash(SCHEMA)
        assert restored.names == SCHEMA.names

    def test_synthetic_schema_names(self):
        schema = synthetic_schema(3)
        assert schema.names == ("f0", "f1", "f2")
        assert all(f.direction is Direction.HIGHER_IS_BETTER for f in schema.features)
