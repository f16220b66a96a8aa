"""Click-log rows, flip-pair mining, splits and synthetic data.

The on-disk format is a CSV with one line per (query, context, item):
``query_id, context_id, item_id, position, clicks`` followed by one column
per feature. Malformed lines are collected into an error report rather than
silently dropped. A JSON format carries pre-encoded training instances with
explicit topologies.

A loaded row is validated once, at construction, and then feeds the learner
and the baselines through arrays cached on it: its CTRs, its ``(k, n, n)``
topology tensor (rows of one width encoded together by one
``rank_chain_entries`` call) and its least-squares design block.

The synthetic generators draw through the same kernels, on arrays:
``rank_chain_entries``, ``mix_chains`` and ``stationary_rows``. They build
topology objects only for the contexts they keep, one tuple per context.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import config
from .baselines import FeatureRow
from .errors import ParseError, SchemaError, ShapeError, SplitTooSmall
from .learner import ContextBatch, TrainingInstance
from .markov import StochasticMatrix, stationary_rows
from .markov import stationary  # noqa: F401 - perfbench's tracer patches rsm.data.stationary
from .topology import (
    Direction,
    FeatureSpec,
    Normalization,
    Topology,
    WeightVector,
    mix_chains,
    rank_chain_entries,
)

log = logging.getLogger(__name__)

BASE_COLUMNS = ("query_id", "context_id", "item_id", "position", "clicks")


def derive_seed(base: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named purpose under one base seed."""
    digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class DatasetSchema:
    """Ordered feature columns of a dataset; compared by value.

    Its hash (for the row caches) and ``names`` are computed once, at construction.
    """

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
        object.__setattr__(self, "_hash", hash(self.features))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # string hashes differ between interpreters: rehash on unpickling
        return (type(self), (self.features,))

    @property
    def k(self) -> int:
        return len(self.features)


@dataclass(frozen=True, eq=False)
class LogRow:
    """One displayed context: a query, its items, clicks and feature values.

    A row is immutable: its arrays are read-only and ``features`` is a
    read-only mapping. Its click total and CTR vector are computed once, and
    the encodings derived from it (the ``(k, n, n)`` rank tensor, the
    least-squares design block) are arrays cached on the row, keyed by the
    schema that produced them, living exactly as long as the row.
    """

    query_id: str
    context_id: str
    items: tuple
    positions: np.ndarray
    clicks: np.ndarray
    features: Mapping[str, np.ndarray]
    _encodings: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _total: float = field(init=False, repr=False, compare=False)
    _ctrs: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        n = len(items)
        if n < 2:
            raise ValueError("a context needs at least two items")
        if len(set(items)) != n:
            raise ValueError("context items must be unique")
        positions = np.array(self.positions, dtype=np.int64)
        clicks = np.array(self.clicks, dtype=np.float64)
        if positions.shape != (n,) or clicks.shape != (n,):
            raise ShapeError("positions and clicks must have one entry per item")
        if not np.isfinite(clicks).all():
            raise ValueError("clicks must be finite")
        if (clicks < 0).any():
            raise ValueError("clicks must be nonnegative")
        feats = {}
        for name, values in self.features.items():
            arr = np.array(values, dtype=np.float64)
            if arr.shape != (n,):
                raise ShapeError(f"feature {name!r} must have one value per item")
            if not np.isfinite(arr).all():
                raise ValueError(f"feature {name!r} values must be finite")
            arr.flags.writeable = False
            feats[name] = arr
        positions.flags.writeable = False
        clicks.flags.writeable = False
        total = clicks.sum()
        ctrs = None
        if total > 0:
            ctrs = clicks / total
            ctrs.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "clicks", clicks)
        object.__setattr__(self, "features", MappingProxyType(feats))
        object.__setattr__(self, "_total", float(total))
        object.__setattr__(self, "_ctrs", ctrs)

    @property
    def n(self) -> int:
        return len(self.items)

    def total_clicks(self) -> float:
        return self._total

    def ctrs(self) -> np.ndarray:
        """Within-context click-through rates (clicks normalized to sum 1), read-only."""
        if self._ctrs is None:
            raise ValueError("ctrs are undefined for a context with no clicks")
        return self._ctrs

    def index_of(self, item_id) -> int:
        return self.items.index(item_id)


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
        gap_1 = self.row_1.clicks[self.row_1.index_of(self.item_a)] - self.row_1.clicks[
            self.row_1.index_of(self.item_b)
        ]
        gap_2 = self.row_2.clicks[self.row_2.index_of(self.item_a)] - self.row_2.clicks[
            self.row_2.index_of(self.item_b)
        ]
        if not (gap_1 > 0 and gap_2 < 0):
            raise ValueError("row_1 must prefer item_a and row_2 must prefer item_b")


@dataclass(frozen=True)
class LoadError:
    """One rejected CSV line (or context) with its location."""

    line_number: int
    message: str


@dataclass(frozen=True, eq=False)
class LoadResult:
    rows: List[LogRow]
    errors: List[LoadError]


def load_csv(path, schema: DatasetSchema) -> LoadResult:
    """Parse a click-log CSV.

    Raises ``SchemaError`` if the header is missing required columns.
    Lines that fail to parse are reported in ``errors`` together with any
    context they leave incomplete; everything else is returned as rows,
    grouped by (query_id, context_id) in file order. Columns are found by
    header name, the last of duplicated names winning; a short line reads
    its missing cells as empty, extra cells are ignored and blank lines are
    skipped, as with ``csv.DictReader``.
    """
    columns = BASE_COLUMNS + schema.names
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError("file is empty; a header line is required")
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")
        where = {name: i for i, name in enumerate(header)}
        indices = [where[c] for c in columns]
        width = len(header)
        errors: List[LoadError] = []
        # (query_id, context_id) -> [first line, broken, parsed lines], in file order
        contexts: Dict[Tuple[str, str], list] = {}
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
                ctx[2].append(_parse_line(values, columns, line))
            except ParseError as exc:
                errors.append(LoadError(line_number=line, message=str(exc)))
                ctx[1] = True
    rows: List[LogRow] = []
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


def _parse_line(values: List[str], columns: Tuple[str, ...], line: int) -> tuple:
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
    """Write rows in the load_csv format (UTF-8, header line first)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(BASE_COLUMNS + schema.names)
        for row in rows:
            for i, item in enumerate(row.items):
                clicks = row.clicks[i]
                clicks_cell = int(clicks) if float(clicks).is_integer() else clicks
                writer.writerow(
                    [row.query_id, row.context_id, item, int(row.positions[i]), clicks_cell]
                    + [repr(float(row.features[name][i])) for name in schema.names]
                )


# ---------------------------------------------------------------------------
# Flip mining and splitting.
# ---------------------------------------------------------------------------


def mine_flip_pairs(
    rows: Sequence[LogRow],
    min_total_clicks: float = config.MIN_TOTAL_CLICKS,
    min_click_diff: float = config.MIN_CLICK_DIFF,
) -> List[FlipPair]:
    """Find item pairs whose click preference reverses across contexts.

    A context qualifies for a pair (a, b) if its total clicks are strictly
    above ``min_total_clicks`` and the click gap between a and b is at least
    ``min_click_diff``. When several qualifying contexts exist on a side,
    the one with the largest CTR gap is chosen (ties by context id). Output
    is sorted by (query, item_a, item_b); item_a precedes item_b
    lexicographically and row_1 is the context preferring item_a.
    """
    by_query: Dict[str, List[LogRow]] = {}
    for row in rows:
        by_query.setdefault(row.query_id, []).append(row)
    pairs: List[FlipPair] = []
    for query in sorted(by_query):
        qrows = [r for r in by_query[query] if r.total_clicks() > min_total_clicks]
        seen: Dict[Tuple[str, str], List[Tuple[LogRow, float, float]]] = {}
        for row in qrows:
            items, clicks, ctr = row.items, row.clicks.tolist(), row.ctrs().tolist()
            for i in range(row.n):
                for j in range(i + 1, row.n):
                    # name the pair by item id, so it reads the same in every context
                    ia, ib = (i, j) if items[i] < items[j] else (j, i)
                    diff = clicks[ia] - clicks[ib]
                    if abs(diff) < min_click_diff:
                        continue
                    seen.setdefault((items[ia], items[ib]), []).append((row, diff, abs(ctr[ia] - ctr[ib])))
        for (a, b), entries in sorted(seen.items()):
            prefer_a = [(row, gap) for row, diff, gap in entries if diff > 0]
            prefer_b = [(row, gap) for row, diff, gap in entries if diff < 0]
            if not prefer_a or not prefer_b:
                continue
            row_1, gap_1 = max(prefer_a, key=lambda e: (e[1], e[0].context_id))
            row_2, gap_2 = max(prefer_b, key=lambda e: (e[1], e[0].context_id))
            pairs.append(
                FlipPair(row_1=row_1, row_2=row_2, item_a=a, item_b=b, strength=gap_1 + gap_2)
            )
    return pairs


def _row_key(row: LogRow) -> Tuple[str, str]:
    return (row.query_id, row.context_id)


def paired_split(
    pairs: Sequence[FlipPair],
    train_fraction: float = config.DEFAULT_TRAIN_FRACTION,
    seed: int = 0,
) -> Tuple[List[LogRow], List[FlipPair]]:
    """Split flip pairs into training rows and test pairs.

    A pair's two rows always land on the same side, and no row appears on
    both sides: pairs sharing a row are clustered first and clusters are
    assigned whole. The split is deterministic in (pairs, seed) and
    insensitive to input order. Returns ``(train_rows, test_pairs)``.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise SplitTooSmall(f"need at least two flip pairs, got {len(pairs)}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    indexed = sorted(
        range(len(pairs)),
        key=lambda i: (
            pairs[i].row_1.query_id,
            pairs[i].item_a,
            pairs[i].item_b,
            pairs[i].row_1.context_id,
            pairs[i].row_2.context_id,
        ),
    )
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: Dict[Tuple[str, str], int] = {}
    for i in indexed:
        for row in (pairs[i].row_1, pairs[i].row_2):
            key = _row_key(row)
            if key in owner:
                ra, rb = find(owner[key]), find(i)
                if ra != rb:
                    parent[rb] = ra
            else:
                owner[key] = i
    clusters: Dict[int, List[int]] = {}
    cluster_order: List[int] = []
    for i in indexed:
        root = find(i)
        if root not in clusters:
            clusters[root] = []
            cluster_order.append(root)
        clusters[root].append(i)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(cluster_order))
    target = int(round(train_fraction * len(pairs)))
    target = min(max(target, 1), len(pairs) - 1)
    train_idx: List[int] = []
    test_idx: List[int] = []
    count = 0
    for pos in perm:
        members = clusters[cluster_order[pos]]
        if count < target:
            train_idx.extend(members)
            count += len(members)
        else:
            test_idx.extend(members)
    if not test_idx:
        raise SplitTooSmall("pairs are too entangled to produce a nonempty test set")
    train_rows: List[LogRow] = []
    seen_rows = set()
    for i in train_idx:
        for row in (pairs[i].row_1, pairs[i].row_2):
            key = _row_key(row)
            if key not in seen_rows:
                seen_rows.add(key)
                train_rows.append(row)
    return train_rows, [pairs[i] for i in sorted(test_idx)]


# ---------------------------------------------------------------------------
# Bridges to the learner and the baselines.
# ---------------------------------------------------------------------------


def topologies_from_row(row: LogRow, schema: DatasetSchema) -> Tuple[Topology, ...]:
    """Rank-encode every schema feature of one context as :class:`Topology` objects.

    The tuple is built from the row's cached tensor on first use and cached
    on the row under the schema, so every caller shares one object.
    """
    topologies = row._encodings.get(schema)
    if topologies is None:
        topologies = row._encodings[schema] = _topologies(schema, topology_tensor(row, schema), row.items)
    return topologies


def _topologies(schema: DatasetSchema, tensor: np.ndarray, items: tuple) -> Tuple[Topology, ...]:
    """One :class:`Topology` per schema feature over ``items``, from a ``(k, n, n)`` tensor."""
    return tuple(
        Topology(feature=name, matrix=StochasticMatrix(entries), item_ids=items)
        for name, entries in zip(schema.names, tensor)
    )


def topology_tensor(row: LogRow, schema: DatasetSchema) -> np.ndarray:
    """The row's rank topologies as one read-only ``(k, n, n)`` array, encoded once and cached."""
    return topology_tensors([row], schema)[0]


def topology_tensors(rows: Sequence[LogRow], schema: DatasetSchema) -> List[np.ndarray]:
    """Each row's cached ``(k, n, n)`` tensor; rows without one are encoded one kernel call per width.

    A width's ``(B, k, n)`` feature values, negated where lower is better,
    go through :func:`rank_chain_entries` at once, and each row keeps a
    read-only view of its slice under ``(schema, "tensor")``.
    """
    key = (schema, "tensor")
    tensors = [row._encodings.get(key) for row in rows]
    pending: Dict[int, Dict[LogRow, None]] = {}
    for row, tensor in zip(rows, tensors):
        if tensor is None:
            pending.setdefault(row.n, {})[row] = None
    if not pending:
        return tensors
    lower = [i for i, spec in enumerate(schema.features) if spec.direction is Direction.LOWER_IS_BETTER]
    for n, group in pending.items():
        values = np.array([[row.features[name] for name in schema.names] for row in group])
        values = values.reshape(len(group), schema.k, n)
        values[:, lower] = -values[:, lower]
        tensors = rank_chain_entries(values)
        tensors.flags.writeable = False
        for row, tensor in zip(group, tensors):
            row._encodings[key] = tensor
    return [row._encodings[key] for row in rows]


def batch_from_rows(rows: Sequence[LogRow], schema: DatasetSchema) -> ContextBatch:
    """The learner's batch of :func:`training_instances_from_rows`, built without the instances.

    One target per (context, item), the within-context CTR; contexts without clicks are skipped.
    """
    clicked = [row for row in rows if row.total_clicks() > 0]
    tensors = topology_tensors(clicked, schema)
    sizes = [row.n for row in clicked]
    starts = list(accumulate(sizes, initial=0))  # each context's first slot
    by_n: Dict[int, List[int]] = {}
    for pos, n in enumerate(sizes):
        by_n.setdefault(n, []).append(pos)
    widths = [
        (
            np.concatenate([tensors[p] for p in group]).reshape(len(group), schema.k, n, n),
            np.concatenate([clicked[p].ctrs() for p in group]).reshape(len(group), n),
            np.array([starts[p] for p in group])[:, None] + np.arange(n),
        )
        for n, group in by_n.items()
    ]
    return ContextBatch.from_widths(schema.k, widths)


def training_instances_from_rows(
    rows: Sequence[LogRow], schema: DatasetSchema
) -> List[TrainingInstance]:
    """One instance per (context, item) with the within-context CTR as target.

    Contexts without any clicks are skipped; their targets are undefined.
    """
    instances: List[TrainingInstance] = []
    for row in rows:
        if row.total_clicks() > 0:
            instances += _instances(row.query_id, row.items, topologies_from_row(row, schema), row.ctrs())
    return instances


def _instances(query_id, items, topologies, probs) -> List[TrainingInstance]:
    return [TrainingInstance(query_id, items, topologies, u, float(p)) for u, p in enumerate(probs)]


def design_block(row: LogRow, schema: DatasetSchema, include_position: bool) -> np.ndarray:
    """The row's least-squares regressors: a read-only ``(n, d)`` array, built once and cached.

    Columns are the schema features in order, then the display position
    when ``include_position`` is set.
    """
    key = (schema, include_position)
    block = row._encodings.get(key)
    if block is None:
        columns = [row.features[name] for name in schema.names]
        if include_position:
            columns.append(row.positions)
        block = row._encodings[key] = np.column_stack(columns) if columns else np.empty((row.n, 0))
        block.flags.writeable = False
    return block


def design_from_rows(
    rows: Sequence[LogRow], schema: DatasetSchema, include_position: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """The stacked design blocks and CTRs of the clicked rows, ``(m, d)`` and ``(m,)``."""
    clicked = [row for row in rows if row.total_clicks() > 0]
    if not clicked:
        return np.empty((0, schema.k + int(include_position))), np.empty(0)
    design = np.concatenate([design_block(row, schema, include_position) for row in clicked])
    return design, np.concatenate([row.ctrs() for row in clicked])


def feature_rows_from_logs(
    rows: Sequence[LogRow], schema: DatasetSchema, include_position: bool = True
) -> List[FeatureRow]:
    """Flatten contexts into per-item rows for the score-based baselines.

    The display position is appended as the last feature when
    ``include_position`` is set. Contexts without clicks are skipped. Each
    row's features are its cached :func:`design_block`.
    """
    out: List[FeatureRow] = []
    for row in rows:
        if row.total_clicks() > 0:
            block = design_block(row, schema, include_position)
            out += [
                FeatureRow(query_id=row.query_id, item_id=item, features=x, ctr=float(ctr))
                for item, x, ctr in zip(row.items, block, row.ctrs())
            ]
    return out


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
        if self.weights.normalization is not Normalization.SUMS_TO_ONE:
            raise ValueError("spec weights must be in reporting form")
        if self.weights.k != self.k:
            raise ShapeError("weights length must equal k")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if self.clicks_per_context is not None and self.clicks_per_context < 1:
            raise ValueError("clicks_per_context must be positive when given")


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    instances: List[TrainingInstance]
    rows: List[LogRow]
    schema: DatasetSchema


def generate_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Draw random contexts and label items with their true stationary mass.

    Per query: n items with k independent Uniform(0, 1) feature values, one
    rank topology per feature, and one instance per item whose target is the
    stationary probability under the requested weights. With multinomial
    noise enabled, click-log rows are produced alongside.
    """
    rng = np.random.default_rng(spec.seed)
    dataset = SyntheticDataset([], [], synthetic_schema(spec.k))
    positions = np.arange(1, spec.n + 1)
    for q in range(spec.num_queries):
        query_id = f"q{q:05d}"
        values = rng.random((spec.k, spec.n))
        tensor = rank_chain_entries(values)
        probs = stationary_rows(mix_chains(tensor, spec.weights.values, spec.lam))
        clicks = None if spec.clicks_per_context is None else rng.multinomial(spec.clicks_per_context, probs)
        items = tuple(f"{query_id}_i{j}" for j in range(spec.n))
        _emit_context(dataset, query_id, f"c{q:05d}", items, values, tensor, probs, clicks, positions)
    return dataset


def generate_flip_dataset(
    num_queries: int,
    weights: WeightVector,
    lam: float = config.DEFAULT_LAMBDA,
    n: int = 5,
    shared_items: int = 2,
    clicks_per_context: int = 10_000,
    margin: float = 0.02,
    seed: int = 0,
    max_attempts: int = 500,
) -> SyntheticDataset:
    """Synthesize click logs rich in genuine preference flips.

    Each query gets two contexts sharing ``shared_items`` items (the first
    two are the flip candidates a and b) with the remaining slots filled by
    different decoys. Feature values are redrawn until the true stationary
    preference between a and b reverses across the two contexts with at
    least ``margin`` separation on both sides, so multinomial noise at
    ``clicks_per_context`` cannot wash the flip out. Display order is
    shuffled per context; positions carry no signal. Queries that find no
    such draw in ``max_attempts`` are dropped; one log record on
    ``rsm.data`` counts the queries kept and the candidates drawn, a
    warning when any query was dropped.
    """
    if not 2 <= shared_items < n:
        raise ValueError("shared_items must be at least 2 and below n")
    if weights.normalization is not Normalization.SUMS_TO_ONE:
        raise ValueError("the flip generator expects reporting-form weights; convert with as_reporting()")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    dataset = SyntheticDataset([], [], synthetic_schema(weights.k))
    pool_size = 2 * n - shared_items
    # the pool columns each context shows: the shared items, then its own decoys
    index = np.array([np.arange(n), np.r_[:shared_items, n:pool_size]])
    # batched power iteration runs until both chains converge; solve wide chains one at a time
    direct = n <= config.DIRECT_SOLVE_MAX_N
    candidates = 0
    for q in range(num_queries):
        for _ in range(max_attempts):
            candidates += 1
            # (k, 2, n); np.take returns it C-ordered, unlike [:, index], and the rank kernel runs ~4x faster on that
            values = np.take(rng.random((weights.k, pool_size)), index, axis=1)
            tensors = rank_chain_entries(values)
            mixed = mix_chains(tensors, weights.values, lam)
            probs = stationary_rows(mixed) if direct else np.array([stationary_rows(m) for m in mixed])
            gap_1, gap_2 = probs[:, 0] - probs[:, 1]
            if gap_1 * gap_2 < 0 and min(abs(gap_1), abs(gap_2)) >= margin:
                break
        else:
            continue
        query_id = f"q{q:05d}"
        for c in range(2):
            clicks = rng.multinomial(clicks_per_context, probs[c])
            positions = rng.permutation(n) + 1
            items = tuple(f"{query_id}_i{j}" for j in index[c].tolist())
            context_id = f"c{q:05d}_{c}"
            _emit_context(dataset, query_id, context_id, items, values[:, c], tensors[:, c], probs[c], clicks, positions)
    kept = len(dataset.rows) // 2
    log.log(logging.WARNING if kept < num_queries else logging.INFO,
            "flip generator kept %d of %d requested queries from %d candidates drawn", kept, num_queries, candidates)
    return dataset


def _emit_context(dataset, query_id, context_id, items, values, tensor, probs, clicks, positions) -> None:
    """Append one kept context: its instances, sharing one topology tuple, and its row when clicks were drawn."""
    dataset.instances.extend(_instances(query_id, items, _topologies(dataset.schema, tensor, items), probs))
    if clicks is not None:
        features = dict(zip(dataset.schema.names, values))
        dataset.rows.append(LogRow(query_id, context_id, items, positions, clicks, features))


# ---------------------------------------------------------------------------
# JSON instance files (pre-encoded topologies).
# ---------------------------------------------------------------------------


def save_instances(instances: Sequence[TrainingInstance], path) -> None:
    """Write training instances with explicit topology matrices as JSON."""
    payload = []
    for inst in instances:
        payload.append(
            {
                "query_id": inst.query_id,
                "items": list(inst.item_ids),
                "target_index": inst.target_index,
                "target_prob": inst.target_prob,
                "topologies": [
                    {"feature": top.feature, "matrix": top.matrix.entries.tolist()}
                    for top in inst.topologies
                ],
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"instances": payload}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_instances(path) -> List[TrainingInstance]:
    """Read a JSON instance file written by :func:`save_instances`.

    Topology tuples are shared between instances of the same context so the
    learner can group them.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line_number=exc.lineno) from exc
    if not isinstance(payload, dict) or "instances" not in payload:
        raise SchemaError("instance file must be an object with an 'instances' array")
    cache: Dict[str, Tuple] = {}
    out: List[TrainingInstance] = []
    for i, entry in enumerate(payload["instances"]):
        try:
            items = tuple(entry["items"])
            key = json.dumps([entry["query_id"], list(items)] + [t["matrix"] for t in entry["topologies"]])
            topologies = cache.get(key)
            if topologies is None:
                topologies = tuple(
                    Topology(
                        feature=t["feature"],
                        matrix=StochasticMatrix(np.array(t["matrix"], dtype=np.float64)),
                        item_ids=items,
                    )
                    for t in entry["topologies"]
                )
                cache[key] = topologies
            out.append(
                TrainingInstance(
                    query_id=entry["query_id"],
                    item_ids=items,
                    topologies=topologies,
                    target_index=int(entry["target_index"]),
                    target_prob=float(entry["target_prob"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"instance {i} is malformed: {exc}") from exc
    return out
