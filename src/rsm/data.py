"""Click-log rows, flip-pair mining, splits and synthetic data.

The on-disk format is a CSV with one line per (query, context, item):
``query_id, context_id, item_id, position, clicks`` followed by one column
per feature. Malformed lines are collected into an error report rather than
silently dropped. A JSON instance file (format 2) stores each context of
some training instances once, as its ``k`` average-rank vectors, and reads
straight into the learner's ``ContextBatch``; format 1 (per-instance
matrices) is refused.

Rows are validated once, where they enter: ``load_csv`` checks a file's
cells and contexts in bulk at the CSV boundary and builds the file's one
``rsm.record.ContextRecord`` from its flat columns without a second check;
its rows are ``LogRow`` views of that record, each holding only the record
and its index (``LogRow`` lives in ``rsm.record`` and is re-exported here).
The public ``LogRow`` and ``FlipPair`` constructors check everything built
any other way. The miner mines that record's arrays and gathers the record
of its flip pairs' rows, which each split of an ``rsm eval`` run indexes.

The synthetic generators rank their drawn feature values and take each
context's targets from the learner's and the scorer's kernel,
``rsm.markov.rank_chain_rows``, which forms no ``n x n`` chain. They build
topology objects only for the contexts they keep, one tuple per context,
and gather the kept contexts' clicks into one record, whose view is the
dataset's rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import operator
from dataclasses import dataclass
from itertools import chain, count
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config
from .baselines import FeatureRow
from .errors import ParseError, SchemaError, ShapeError
from .learner import ContextBatch, TrainingInstance, group_instances
from .markov import StochasticMatrix, rank_chain_rows, rank_space
from .record import ContextRecord, LogRow, RecordView, by_width, clicked_view, feature_ranks, first_seen, pairs_view, record_view
from .markov import stationary  # noqa: F401 - perfbench's tracer patches rsm.data.stationary
from .topology import (
    Direction,
    FeatureSpec,
    Topology,
    WeightVector,
    average_ranks,
    rank_chain,
)

log = logging.getLogger(__name__)

BASE_COLUMNS = ("query_id", "context_id", "item_id", "position", "clicks")


def derive_seed(base: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named purpose under one base seed."""
    digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class DatasetSchema:
    """Ordered feature columns of a dataset, compared, hashed and pickled by value; ``names`` are computed once."""

    features: Tuple[FeatureSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        for name in names:
            if name in BASE_COLUMNS:
                raise SchemaError(f"feature name {name!r} collides with a base column")
        object.__setattr__(self, "names", tuple(names))  # the column names, in feature order

    @property
    def k(self) -> int:
        return len(self.features)


def _unchecked(cls, *values):
    """A frozen dataclass ``cls`` with its fields set to ``values``, in order (so all share attribute keys), unchecked:
    the pairs of :func:`mine_flip_pairs` are mined from rows validated in bulk."""
    instance = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(instance, name, value)
    return instance


@dataclass(frozen=True, eq=False)
class FlipPair:
    """Two contexts of one query in which items a and b swap preference.

    ``row_1`` is the context where a out-clicks b; in ``row_2`` b out-clicks
    a. ``strength`` is the summed absolute CTR gap across the two rows.
    """

    row_1: LogRow
    row_2: LogRow
    item_a: str
    item_b: str
    strength: float

    def __post_init__(self):
        if self.row_1.query_id != self.row_2.query_id:
            raise ValueError("a flip pair must come from a single query")
        for row in (self.row_1, self.row_2):
            if self.item_a not in row.items or self.item_b not in row.items:
                raise ValueError("both items must appear in both contexts")
        gap_1, gap_2 = (row.clicks[row.items.index(self.item_a)] - row.clicks[row.items.index(self.item_b)]
                        for row in (self.row_1, self.row_2))
        if not (gap_1 > 0 and gap_2 < 0):
            raise ValueError("row_1 must prefer item_a and row_2 must prefer item_b")


@dataclass(frozen=True)
class LoadError:
    """One rejected CSV line (or context) with its location."""

    line_number: int
    message: str


@dataclass(frozen=True, eq=False)
class LoadResult:
    """What :func:`load_csv` read. ``rows.record`` holds exactly the file's valid contexts, as columns, in the order
    of their first lines; ``rows`` is the read-only view of all of its rows in that order (edit ``list(rows)``), each
    a :class:`LogRow` view ``(rows.record, index)`` that holds no data of its own. ``errors`` lists the lines that
    did not parse, in file order, then the contexts refused whole."""

    rows: RecordView
    errors: List[LoadError]


def load_csv(path, schema: DatasetSchema) -> LoadResult:
    """Parse a click-log CSV.

    The file is read as UTF-8, with or without a byte-order mark. Raises
    ``SchemaError``, naming the file, if the header is missing a column it
    reads (the base columns and the schema's features) or repeats one; other
    columns may repeat. Lines that fail to parse are reported in ``errors``
    together with any context they leave incomplete; everything else is
    returned as rows, grouped by (query_id, context_id) in file order.
    Columns are found by header name; a short line reads its missing cells
    as empty, extra cells are ignored and blank lines are skipped, as with
    ``csv.DictReader``.

    This is where a file's rows are validated, once: cells are converted
    with ``int`` and ``float`` a chunk of lines at a time, and the contexts
    are checked in bulk (at least two items, unique items, finite and
    nonnegative clicks, finite features). A line with a cell that does not
    convert is parsed again alone, for its own error; a context that fails a
    check goes to the public :class:`LogRow` constructor, whose error is
    reported. The other contexts become the record, without a second check,
    and its row views the result's rows.
    """
    columns = BASE_COLUMNS + schema.names
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError("file is empty; a header line is required")
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")
        repeated = [c for c in columns if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"{path} repeats the column {repeated[0]!r}, which it reads")
        where = {name: i for i, name in enumerate(header)}
        loader = _CsvLines(columns, [where[c] for c in columns], len(header))
        records: List[List[str]] = []
        numbers: List[int] = []
        for cells in reader:
            if cells:
                records.append(cells)
                numbers.append(reader.line_num)
                if len(records) == _CSV_CHUNK:
                    loader.add(records, numbers)
                    records, numbers = [], []
        loader.add(records, numbers)
    return loader.result(schema)


# CSV lines converted per pass; bounds the raw cell strings held at once
_CSV_CHUNK = 512


class _CsvLines:
    """The lines of one click-log CSV, converted a chunk at a time, then grouped into rows."""

    def __init__(self, columns: Tuple[str, ...], indices: List[int], width: int):
        self.columns = columns
        self.pick = operator.itemgetter(*indices)
        self.width = width
        self.contexts: Dict[Tuple[str, str], int] = {}  # (query_id, context_id) -> index of its first line
        self.line_index = count()  # hands each line its index, the code of a context it opens
        self.items: List[str] = []
        self.positions: List[int] = []  # Python ints: a row's constructor rejects one beyond int64
        # per chunk: context codes, line numbers, clicks and features, failed lines; the first chunk is empty
        self.chunks: List[tuple] = [(np.zeros(0, np.int64),) * 2 + (np.zeros((len(columns) - 4, 0)), np.zeros(0, bool))]
        self.errors: List[LoadError] = []

    def add(self, records: List[List[str]], numbers: List[int]) -> None:
        """Convert one chunk of records column by column, or line by line if a cell does not convert."""
        if not records:
            return
        if min(map(len, records)) < self.width:  # a short line reads its missing cells as empty
            records = [cells + [""] * (self.width - len(cells)) for cells in records]
        picked = list(map(self.pick, records))
        query, context, items, positions, *numeric = zip(*picked)
        codes = np.fromiter(map(self.contexts.setdefault, zip(query, context), self.line_index), np.int64, len(picked))
        values = np.zeros((len(numeric), len(picked)))  # clicks, then the features in schema order
        failed = np.zeros(len(picked), dtype=bool)
        try:
            if "" in query or "" in context or "" in items:
                raise ValueError("empty cell")
            positions = list(map(int, positions))
            for row, cells in zip(values, numeric):
                row[:] = list(map(float, cells))
        except ValueError:
            positions = [0] * len(picked)
            for i, (cells, line) in enumerate(zip(picked, numbers)):
                try:
                    parsed = _parse_line(cells, self.columns, line)
                except ParseError as exc:
                    self.errors.append(LoadError(line_number=line, message=str(exc)))
                    failed[i] = True
                else:
                    positions[i] = parsed[1]
                    values[:, i] = parsed[2:]
        self.items += items
        self.positions += positions
        self.chunks.append((codes, np.array(numbers), values, failed))

    def result(self, schema: DatasetSchema) -> LoadResult:
        """Group the lines into contexts, check them in bulk and build the record of the valid ones in file order."""
        codes, numbers, values, failed = (np.concatenate(part, axis=-1) for part in zip(*self.chunks))
        self.chunks = []
        first, context, counts = np.unique(codes, return_inverse=True, return_counts=True)
        clicks, features = values[0], values[1:]
        broken = np.bincount(context, weights=failed, minlength=first.size) > 0
        bad = ~np.isfinite(values).all(axis=0) | (clicks < 0)
        int64 = np.iinfo(np.int64)
        if self.positions and not int64.min <= min(self.positions) <= max(self.positions) <= int64.max:
            bad |= np.array([not int64.min <= p <= int64.max for p in self.positions])
        flagged = np.bincount(context, weights=bad, minlength=first.size) > 0
        items = np.fromiter(self.items, object, len(self.items))
        shown = np.argsort(items, kind="stable")
        shown = shown[np.argsort(context[shown], kind="stable")]  # the lines by context, then by item
        repeated = (np.diff(context[shown]) == 0) & (items[shown[1:]] == items[shown[:-1]])  # an item twice in a context
        flagged[context[shown[1:][repeated]]] = True
        order = np.argsort(context, kind="stable")  # each context's lines together, in file order
        starts = np.cumsum(counts) - counts
        valid = ~broken & ~flagged & (counts >= 2)
        # the valid contexts, in first-line order as ``first`` is, and their lines, context after context
        queries, contexts = (np.fromiter((key[i] for key in self.contexts), object, first.size)[valid] for i in (0, 1))
        lines = order[np.repeat(valid, counts)]
        items = items[lines]
        positions = np.fromiter(map(self.positions.__getitem__, lines.tolist()), np.int64, lines.size)
        record = ContextRecord(queries, contexts, counts[valid], items, positions, clicks[lines],
                               dict(zip(schema.names, features[:, lines])))
        keys = list(self.contexts)
        for c in np.flatnonzero(~broken & ~valid).tolist():
            (query_id, context_id), size, line = keys[c], int(counts[c]), int(numbers[first[c]])
            if size < 2:
                self.errors.append(LoadError(line, f"context {context_id!r} of query {query_id!r} has fewer than two items"))
                continue
            at = order[starts[c]:starts[c] + size].tolist()
            feats = dict(zip(schema.names, features[:, at]))
            try:  # flagged in bulk, so refused here; the public constructor says how
                LogRow(query_id, context_id, [self.items[i] for i in at], [self.positions[i] for i in at], clicks[at], feats)
            except (ValueError, ShapeError) as exc:
                self.errors.append(LoadError(line_number=line, message=str(exc)))
        return LoadResult(rows=record.view(), errors=self.errors)


def _parse_line(values: Sequence[str], columns: Tuple[str, ...], line: int) -> tuple:
    """``(item_id, position, clicks, *feature values)`` of one line's cells, in ``columns`` order."""
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


def save_csv(rows: Sequence[LogRow], path, schema: DatasetSchema) -> None:
    """Write rows in the load_csv format (UTF-8, header line first), column by column from their record: whole
    clicks as integers, other numbers as their shortest ``repr``."""
    view = record_view(rows)
    record, places, sizes = view.record, view.record.items(view.index), view.record.sizes[view.index]
    columns = [np.repeat(record.query_ids[view.index], sizes), np.repeat(record.context_ids[view.index], sizes),
               record.item_ids[places], record.positions[places]]
    clicks = [int(c) if c.is_integer() else c for c in record.clicks[places].tolist()]
    features = [record.features[name][places].tolist() for name in schema.names]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(BASE_COLUMNS + schema.names)
        writer.writerows(zip(*(column.tolist() for column in columns), clicks, *features))


# ---------------------------------------------------------------------------
# Flip mining and splitting.
# ---------------------------------------------------------------------------


def mine_flip_pairs(rows: Sequence[LogRow]) -> RecordView:
    """Find item pairs whose click preference reverses across contexts.

    A context qualifies for a pair (a, b) if its total clicks are strictly
    above ``config.MIN_TOTAL_CLICKS`` and the click gap between a and b is at
    least ``config.MIN_CLICK_DIFF``. When several qualifying contexts exist
    on a side, the one with the largest CTR gap is chosen (ties by context
    id). Output is sorted by (query, item_a, item_b); item_a precedes item_b
    lexicographically and row_1 is the context preferring item_a.

    Every item pair of the qualifying contexts is enumerated with index
    arrays, one width at a time, from the clicks, totals, CTRs and (query,
    item) codes of the rows' record; only the chosen pairs' items are compared
    as strings, so the pairs do not depend on code order. Returns the view of
    the pairs of the record gathered from their rows, clustered for splitting.
    """
    view = record_view(rows)
    record, index = view.record, view.index
    # the tie rank: a larger context id first, then an earlier row
    tie = np.arange(index.size) - index.size * np.unique(record.context_ids[index], return_index=True, return_inverse=True)[2]
    entries = [_pair_entries(record, index[at], tie[at], n) for n, at in by_width(record.sizes[index])]
    lo_code, hi_code, side, gap, tie, row, lo, hi = [np.concatenate(part) for part in zip(*entries)] or [np.zeros(0, np.intp)] * 8
    # per pair and side, the entry with the largest gap, then the best tie rank
    key = (lo_code * len(record.item_keys[1]) + hi_code) * 2 + side
    order = np.lexsort((tie, -gap, key))
    best = order[np.diff(key[order], prepend=-1) != 0]
    # a pair with both sides has its two best entries as neighbours: side False (lower code preferred), then True
    both = np.flatnonzero(key[best][1:] // 2 == key[best][:-1] // 2)
    one, two = best[both], best[both + 1]
    # the rows preferring the lower-coded item and the other, and the places of (a, b) in row_1 and (b, a) in row_2
    pair_rows, pair_items = np.stack((row[one], row[two]), 1), np.stack((lo[one], hi[one], hi[two], lo[two]), 1).reshape(-1, 2, 2)
    item_lo, item_hi = (record.item_ids[record.starts[row[one]] + place] for place in (lo[one], hi[one]))
    swap = item_lo > item_hi  # then item_a is the higher-coded item, and row_1 the row preferring it
    pair_rows[swap], pair_items[swap] = pair_rows[swap, ::-1], pair_items[swap, ::-1]
    item_a, item_b = np.where(swap, item_hi, item_lo).tolist(), np.where(swap, item_lo, item_hi).tolist()
    names = list(zip(record.query_ids[pair_rows[:, 0]].tolist(), item_a, item_b))
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__), dtype=np.intp)
    # the record of the pairs' distinct rows, in order of first appearance, and each pair's two rows in it
    first, sides = first_seen(pair_rows[by_name].ravel())
    pairs_record, pair_rows = record.take(pair_rows[by_name].ravel()[first]), sides.reshape(-1, 2)
    pairs = [_unchecked(FlipPair, pairs_record.rows[i], pairs_record.rows[j], *names[p][1:], strength) for (i, j), p, strength
             in zip(pair_rows.tolist(), by_name.tolist(), (gap[one] + gap[two])[by_name].tolist())]
    return pairs_record.pair(pairs, pair_rows, pair_items[by_name], np.arange(len(pairs))).view("pairs")


def _pair_entries(record, group, tie, n) -> tuple:
    """The item pairs of the record's rows at ``group``, all ``n`` wide with tie ranks ``tie``, with more than
    ``config.MIN_TOTAL_CLICKS`` clicks, whose click gap counts, as columns: the pair's lower and higher (query,
    item) code, its side (True when the higher-coded item has more clicks), its CTR gap, the row's tie rank, the
    row and the two items' indices in the row, lower code first."""
    keep = record.totals[group] > config.MIN_TOTAL_CLICKS
    group, tie, items = group[keep], tie[keep], record.items(group[keep])
    clicks, ctrs = record.clicks[items].reshape(-1, n), record.ctrs[items].reshape(-1, n)
    codes = record.item_keys[0][items].reshape(-1, n)
    i, j = np.triu_indices(n, 1)
    # name the pair by item code, so it reads the same in every context
    swap = codes[:, i] > codes[:, j]
    lo, hi = np.where(swap, j, i), np.where(swap, i, j)
    r = np.arange(group.size)[:, None]
    diff = clicks[r, lo] - clicks[r, hi]
    r, c = np.nonzero(~(np.abs(diff) < config.MIN_CLICK_DIFF) & (diff != 0))
    lo, hi = lo[r, c], hi[r, c]
    return codes[r, lo], codes[r, hi], diff[r, c] < 0, np.abs(ctrs[r, lo] - ctrs[r, hi]), tie[r], group[r], lo, hi


def paired_split(
    pairs: Sequence[FlipPair],
    train_fraction: float = config.DEFAULT_TRAIN_FRACTION,
    seed: int = 0,
) -> Tuple[List[LogRow], List[FlipPair]]:
    """Split flip pairs into training rows and test pairs.

    A pair's two rows always land on the same side, and no row appears on
    both sides: pairs sharing a row are clustered first and clusters are
    assigned whole. The split is deterministic in (pairs, seed) and
    insensitive to input order. Returns ``(train_rows, test_pairs)`` as
    :meth:`ContextRecord.split` gives them.
    """
    return pairs_view(pairs).record.split(train_fraction, seed)


# ---------------------------------------------------------------------------
# Bridges to the learner and the baselines.
# ---------------------------------------------------------------------------


def topologies_from_row(row: LogRow, schema: DatasetSchema) -> Tuple[Topology, ...]:
    """Rank-encode every schema feature of one context as :class:`Topology` objects, afresh on every call.

    Bit-equal to ``encode_rank_topology`` of each feature. The pipeline itself
    ranks through a :class:`ContextRecord` and forms no ``n x n`` chain.
    """
    return _topologies(schema, rank_chain(feature_ranks(record_view([row]), schema)[1][0]), row.items)


def _topologies(schema: DatasetSchema, tensor: np.ndarray, items: tuple) -> Tuple[Topology, ...]:
    """One :class:`Topology` per schema feature over ``items``, from a fresh ``(k, n, n)`` :func:`rank_chain` tensor.

    Rank chains are stochastic by construction and no one else holds the
    tensor, so its slices are frozen without a copy and check.
    """
    return tuple(
        Topology(feature=name, matrix=StochasticMatrix._trusted(entries), item_ids=items)
        for name, entries in zip(schema.names, tensor)
    )


def batch_from_rows(rows: Sequence[LogRow], schema: DatasetSchema) -> ContextBatch:
    """The learner's batch of :func:`training_instances_from_rows`, built without the instances.

    One target per (context, item), the within-context CTR, with each
    context's ranks taken straight from its feature values; contexts without
    clicks are skipped. Gathered from the :func:`clicked_view` of ``rows``.
    """
    view = clicked_view(rows)
    space, at = view.record.space(view.index, schema)
    return ContextBatch(schema.k, space, view.record.ctrs[view.record.items(view.index)], at)


def training_instances_from_rows(
    rows: Sequence[LogRow], schema: DatasetSchema
) -> List[TrainingInstance]:
    """One instance per (context, item) with the within-context CTR of the rows' record as target.

    Contexts without any clicks are skipped; their targets are undefined.
    """
    view, instances = clicked_view(rows), []
    for row, start in zip(view, view.record.starts[view.index].tolist()):
        instances += _instances(row.query_id, row.items, topologies_from_row(row, schema), view.record.ctrs[start:start + row.n])
    return instances


def _instances(query_id, items, topologies, probs) -> List[TrainingInstance]:
    return [TrainingInstance(query_id, items, topologies, u, float(p)) for u, p in enumerate(probs)]


def design_from_rows(rows: Sequence[LogRow], schema: DatasetSchema) -> Tuple[np.ndarray, np.ndarray]:
    """The clicked rows' items' least-squares regressors, ``(m, k + 1)``, and CTRs, ``(m,)``, rows in order:
    the schema features in order, then the display position."""
    view = clicked_view(rows)
    items = view.record.items(view.index)
    return view.record.encoding(schema)[2][items], view.record.ctrs[items]


def feature_rows_from_logs(rows: Sequence[LogRow], schema: DatasetSchema) -> List[FeatureRow]:
    """Flatten contexts into per-item rows for the score-based baselines.

    The display position is appended as the last feature. Contexts without
    clicks are skipped. The features and CTRs are those of
    :func:`design_from_rows`.
    """
    view = clicked_view(rows)
    design, ctrs = design_from_rows(view, schema)
    names = ((row.query_id, item) for row in view for item in row.items)
    return [FeatureRow(query_id=q, item_id=i, features=x, ctr=float(c)) for (q, i), x, c in zip(names, design, ctrs)]


# ---------------------------------------------------------------------------
# Synthetic data.
# ---------------------------------------------------------------------------


def synthetic_schema(k: int) -> DatasetSchema:
    """Schema of the synthetic generators: features f0..f{k-1}, higher better."""
    return DatasetSchema(
        features=tuple(FeatureSpec(name=f"f{i}", direction=Direction.HIGHER_IS_BETTER) for i in range(k))
    )


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Parameters of the basic synthetic generator.

    ``clicks_per_context`` of None produces noise-free targets only;
    an integer draws that many multinomial clicks per context and also
    materializes click-log rows.
    """

    k: int
    num_queries: int
    weights: WeightVector
    n: int = 5
    lam: float = config.DEFAULT_LAMBDA
    clicks_per_context: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.n < 2 or self.num_queries < 1:
            raise ValueError("k, n and num_queries must be positive (n at least 2)")
        if self.weights.as_native(self.lam).k != self.k:
            raise ShapeError("weights length must equal k")
        if self.clicks_per_context is not None and self.clicks_per_context < 1:
            raise ValueError("clicks_per_context must be positive when given")


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """A generator's output: one instance per item and, when clicks were drawn, ``rows``, the view of all the rows
    of one record of the kept contexts (else an empty list); ``candidates_drawn`` counts its candidate draws, kept
    or not."""

    instances: List[TrainingInstance]
    rows: Sequence[LogRow]
    schema: DatasetSchema
    candidates_drawn: int = 0


# Flip candidates are drawn and solved this many at a time; the output does not depend on it.
CANDIDATE_BLOCK = 64
# A flip query is dropped if none of its first this many candidates flips.
MAX_CANDIDATES = 20_000


def _targets(values: np.ndarray, native: np.ndarray, lam: float) -> Tuple[np.ndarray, np.ndarray]:
    """The ranks of a ``(B, k, n)`` value stack and its ``(B, n)`` targets at ``native`` weights, the same bits in any batch."""
    ranks = average_ranks(values)
    probs, _ = rank_chain_rows(rank_space(ranks), native, lam, gradients=False)
    return ranks, probs.reshape(-1, ranks.shape[2])


def generate_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Draw random contexts and label items with their true stationary mass.

    Per query: n items with k independent Uniform(0, 1) feature values, one
    rank topology per feature, and one instance per item whose target is the
    stationary probability under the requested weights. All values are drawn
    in one call and solved in one kernel call; with multinomial noise
    enabled, the clicks are drawn after them and click-log rows are produced.
    """
    rng = np.random.default_rng(spec.seed)
    values = rng.random((spec.num_queries, spec.k, spec.n))
    ranks, probs = _targets(values, spec.weights.as_native(spec.lam).values, spec.lam)
    clicks = [None] * spec.num_queries
    if spec.clicks_per_context is not None:
        clicks = rng.multinomial(spec.clicks_per_context, probs)
    positions = np.arange(1, spec.n + 1)
    contexts = []
    for q in range(spec.num_queries):
        query_id = f"q{q:05d}"
        items = tuple(f"{query_id}_i{j}" for j in range(spec.n))
        contexts.append((query_id, f"c{q:05d}", items, values[q], ranks[q], probs[q], clicks[q], positions))
    return _dataset(synthetic_schema(spec.k), contexts, spec.num_queries)


def generate_flip_dataset(
    num_queries: int,
    weights: WeightVector,
    lam: float = config.DEFAULT_LAMBDA,
    n: int = 5,
    clicks_per_context: int = 10_000,
    margin: float = 0.02,
    seed: int = 0,
) -> SyntheticDataset:
    """Synthesize click logs rich in genuine preference flips.

    Each query gets two contexts of ``n`` items sharing the two flip
    candidates a and b, with the remaining slots filled by different
    decoys. Feature values are redrawn until the true stationary
    preference between a and b reverses across the two contexts with at
    least ``margin`` separation on both sides, so multinomial noise at
    ``clicks_per_context`` cannot wash the flip out. Display order is
    shuffled per context; positions carry no signal. Query ``q`` draws its
    candidates from the stream ``derive_seed(seed, f"query:{q}")`` and its
    positions and clicks from ``derive_seed(seed, f"clicks:{q}")``. It keeps
    its first candidate that flips and is dropped if none of the first
    ``MAX_CANDIDATES`` does; candidates are counted up to the kept one. One
    log record on ``rsm.data`` counts the queries kept and the candidates
    drawn, a warning when any query was dropped. A count below 1, ``n``
    below 3, a negative ``margin`` or one feature raises ``ValueError``:
    one rank chain keeps the shared items' order everywhere, so never flips.
    """
    if min(num_queries, clicks_per_context) < 1 or not margin >= 0.0:
        raise ValueError("num_queries and clicks_per_context must be positive and margin nonnegative")
    if weights.k < 2:
        raise ValueError(f"the flip generator needs at least two features, got {weights.k}")
    if n < 3:
        raise ValueError(f"the flip generator needs n of at least 3, the two flip candidates and a decoy, got {n}")
    native = weights.as_native(lam).values
    k, pool_size, contexts = weights.k, 2 * n - 2, []
    # the pool columns each context shows: the two flip candidates, then its own decoys
    index = np.array([np.arange(n), np.r_[:2, n:pool_size]])
    drawn = 0
    for q in range(num_queries):
        rng = np.random.default_rng(derive_seed(seed, f"query:{q}"))
        for start in range(0, MAX_CANDIDATES, CANDIDATE_BLOCK):
            block = min(CANDIDATE_BLOCK, MAX_CANDIDATES - start)
            # each candidate's two contexts, (2 * block, k, n) and C-ordered by the reshape
            values = np.take(rng.random((block, k, pool_size)), index, axis=2).swapaxes(1, 2).reshape(-1, k, n)
            ranks, probs = _targets(values, native, lam)
            gaps = (probs[:, 0] - probs[:, 1]).reshape(block, 2)
            flips = np.flatnonzero((gaps[:, 0] * gaps[:, 1] < 0) & (np.abs(gaps).min(axis=1) >= margin))
            if flips.size:
                break
        else:
            drawn += MAX_CANDIDATES
            continue
        drawn += start + int(flips[0]) + 1
        pick = 2 * flips[0] + np.arange(2)  # copies, so the kept contexts do not hold the candidate block
        values, ranks, probs = values[pick], ranks[pick], probs[pick]
        query_id = f"q{q:05d}"
        rng = np.random.default_rng(derive_seed(seed, f"clicks:{q}"))
        positions = [rng.permutation(n) + 1 for _ in range(2)]
        clicks = rng.multinomial(clicks_per_context, probs)
        for c in range(2):
            items = tuple(f"{query_id}_i{j}" for j in index[c].tolist())
            contexts.append((query_id, f"c{q:05d}_{c}", items, values[c], ranks[c], probs[c], clicks[c], positions[c]))
    kept = len(contexts) // 2
    log.log(logging.WARNING if kept < num_queries else logging.INFO,
            "flip generator kept %d of %d requested queries from %d candidates drawn", kept, num_queries, drawn)
    return _dataset(synthetic_schema(weights.k), contexts, drawn)


def _dataset(schema: DatasetSchema, contexts: list, candidates_drawn: int) -> SyntheticDataset:
    """The dataset of the kept ``contexts``, each (query id, context id, items, ``(k, n)`` values, ranks, targets,
    clicks or None, positions): their instances, a context's sharing one topology tuple, and, when clicks were
    drawn, the view of one record of all of them as its rows."""
    instances = [instance for query_id, _, items, _, ranks, probs, _, _ in contexts
                 for instance in _instances(query_id, items, _topologies(schema, rank_chain(ranks), items), probs)]
    if not contexts or contexts[0][6] is None:  # no clicks were drawn
        return SyntheticDataset(instances, [], schema, candidates_drawn)
    query_ids, context_ids, items, values, _, _, clicks, positions = zip(*contexts)
    record = ContextRecord(np.array(query_ids, dtype=object), np.array(context_ids, dtype=object),
                           np.fromiter(map(len, items), np.intp, len(items)), np.fromiter(chain.from_iterable(items), object),
                           np.concatenate(positions).astype(np.int64), np.concatenate(clicks).astype(np.float64),
                           dict(zip(schema.names, np.concatenate(values, axis=1))))
    return SyntheticDataset(instances, record.view(), schema, candidates_drawn)


# ---------------------------------------------------------------------------
# JSON instance files: each context once, as its ranks.
# ---------------------------------------------------------------------------

INSTANCE_FORMAT = 2


def save_instances(instances: Sequence[TrainingInstance], path) -> None:
    """Write training instances as JSON: each context of :func:`rsm.learner.group_instances` once, with its
    first instance's query id and items, its feature names and ranks; each target as ``[context, index, prob]``."""
    heads, ranks, context, index, prob = group_instances(instances)
    contexts = [{"query_id": head.query_id, "items": list(head.item_ids), "ranks": r.tolist(),
                 "features": [top.feature for top in head.topologies]} for head, r in zip(heads, ranks)]
    targets = list(map(list, zip(context.tolist(), index.tolist(), prob.tolist())))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"format": INSTANCE_FORMAT, "contexts": contexts, "targets": targets}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_instances(path) -> ContextBatch:
    """Read a file of :func:`save_instances` into the learner's batch, whose ``len`` counts its targets.

    The file is checked here, and anything malformed raises ``SchemaError``:
    each context needs at least two distinct items and per feature a rank
    vector over them equal bit for bit to its own ``average_ranks``, all
    contexts the same features count; each target an integer context and
    index in range and a probability in [0, 1]. Format 1 is refused.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line_number=exc.lineno) from exc
    if not isinstance(payload, dict):
        raise SchemaError("an instance file must be a JSON object")
    if payload.get("format", 1) != INSTANCE_FORMAT:
        raise SchemaError(f"{path} is an instance file of format {payload.get('format', 1)!r}, and only format "
                          f"{INSTANCE_FORMAT} is read; regenerate it with `rsm synth`")
    contexts, targets = payload.get("contexts"), payload.get("targets")
    if not isinstance(contexts, list) or not isinstance(targets, list):
        raise SchemaError("an instance file needs a 'contexts' array and a 'targets' array")
    ranks: List[np.ndarray] = []
    for c, entry in enumerate(contexts):
        try:
            ranks.append(_context_ranks(entry, ranks[0].shape[0] if ranks else None))
        except KeyError as exc:
            raise SchemaError(f"context {c} has no {exc} entry") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"context {c} is malformed: {exc}") from exc
    for t, target in enumerate(targets):
        if not (isinstance(target, list) and len(target) == 3 and type(target[0]) is type(target[1]) is int
                and type(target[2]) in (int, float) and 0 <= target[0] < len(ranks)
                and 0 <= target[1] < ranks[target[0]].shape[1] and 0.0 <= target[2] <= 1.0):
            raise SchemaError(f"target {t} is not [context, index, probability] with the context and index in range "
                              f"and the probability in [0, 1]: {target!r}")
    context, index, prob = zip(*targets) if targets else ((), (), ())
    return ContextBatch.from_targets(ranks, np.array(context, np.intp), np.array(index, np.intp), np.array(prob, np.float64))


def _context_ranks(entry: dict, k: Optional[int]) -> np.ndarray:
    """A stored context's ``(k, n)`` ranks, checked against its items, ``k`` when given and its own ``average_ranks``."""
    items, features, ranks = entry["items"], entry["features"], np.array(entry["ranks"], dtype=np.float64)
    if not isinstance(items, list) or len(items) < 2 or len(set(items)) != len(items):
        raise ValueError("a context needs a list of at least two distinct items")
    if (not features or not isinstance(features, list) or k not in (None, len(features))
            or ranks.shape != (len(features), len(items))):
        raise ValueError(f"expected {k or 'one or more'} rank vectors over its {len(items)} items, got shape {ranks.shape}")
    bad = ~(average_ranks(ranks) == ranks).all(axis=1)
    if bad.any():
        raise ValueError(f"the ranks of feature {features[np.argmax(bad)]!r} are not the average ranks of their values")
    return ranks
