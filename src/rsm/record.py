"""The context record: contexts as columns, built once and gathered by index from the CSV to the scorer.

``load_csv`` builds a file's record, the miner gathers the record of its flip pairs' rows from it, and each split
is index arrays into that one. A :class:`LogRow` is a view of one row of a record, its record and index and nothing
else; a record makes its row views on first use. Models get rows as a :class:`RecordView`, a list that also carries
their indices, so the batch, the design and the scorers gather the record's arrays. Integer arrays are sorted stably
and ``np.unique`` always returns an index: numpy's default integer sort is 0.3 MB of code a run never needs, and a
plain ``np.unique`` imports ``numpy.ma``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .errors import ShapeError, SplitTooSmall
from .markov import RankSpace, gather, rank_space
from .topology import Direction, average_ranks

if TYPE_CHECKING:
    from .data import DatasetSchema, FlipPair


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(start, start + size)`` of each ``(start, size)``."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + sizes, sizes)


def first_seen(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each distinct code first appears, ascending, and for each entry its code's rank in that order."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    return first[order], np.argsort(order, kind="stable")[inverse]


def coded(keys: Iterable, size: int) -> Tuple[np.ndarray, list]:
    """Each of ``size`` keys' code, numbered from 0 in order of first appearance, and each code's key."""
    ids: dict = {}  # each key's first place
    return first_seen(np.fromiter(map(ids.setdefault, keys, count()), np.intp, size))[1], list(ids)


def by_width(sizes: np.ndarray) -> list:
    """Each distinct width of ``sizes``, in order of first appearance, with the positions that hold it, ascending."""
    first, width = first_seen(sizes)
    return [(n, np.flatnonzero(width == j)) for j, n in enumerate(sizes[first].tolist())]


def feature_ranks(rows: RecordView, schema: DatasetSchema) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(R, k, n)`` feature values of a view's rows, all ``n`` wide, gathered from its record's columns, and
    their :func:`average_ranks`, negated where lower is better."""
    places = rows.record.items(rows.index)
    values = np.stack([rows.record.features[name][places].reshape(len(rows), -1) for name in schema.names], axis=1)
    lower = np.array([[spec.direction is Direction.LOWER_IS_BETTER] for spec in schema.features])
    return values, average_ranks(np.where(lower, -values, values))


def check_train_fraction(train_fraction: float) -> None:
    """A ``ValueError`` unless ``train_fraction`` lies in (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")


class LogRow:
    """One displayed context: a query, its items, their display positions, clicks and feature values.

    A row is a view of row ``index`` of its ``record`` and holds only those two. Its other attributes read the record's
    columns: ``items`` as a tuple, the arrays as read-only slices, ``features`` as a read-only mapping. Setting any
    attribute raises ``AttributeError``, and rows compare by identity. ``LogRow(...)`` validates its arguments into a
    one-row record; a loaded file's rows are views of its record, checked in bulk at the CSV boundary. A row's click
    total, CTRs, ranks and design live in the record of each run or call that needs them.
    """

    __slots__ = ("record", "index")

    def __init__(self, query_id, context_id, items, positions, clicks, features: Mapping[str, np.ndarray]):
        items = tuple(items)
        n = len(items)
        if n < 2:
            raise ValueError("a context needs at least two items")
        if len(set(items)) != n:
            raise ValueError("context items must be unique")
        try:
            positions = np.array(positions, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError("positions must fit in 64-bit integers") from exc
        clicks = np.array(clicks, dtype=np.float64)
        if positions.shape != (n,) or clicks.shape != (n,):
            raise ShapeError("positions and clicks must have one entry per item")
        if not np.isfinite(clicks).all():
            raise ValueError("clicks must be finite")
        if (clicks < 0).any():
            raise ValueError("clicks must be nonnegative")
        feats = {}
        for name, values in features.items():
            feats[name] = np.array(values, dtype=np.float64)
            if feats[name].shape != (n,):
                raise ShapeError(f"feature {name!r} must have one value per item")
            if not np.isfinite(feats[name]).all():
                raise ValueError(f"feature {name!r} values must be finite")
        ids = np.fromiter((query_id, context_id), object, 2)  # tuples stay whole
        record = ContextRecord(ids[:1], ids[1:], np.array([n], np.intp), np.fromiter(items, object, n), positions, clicks, feats)
        _view(record, 0, self)

    def _frozen(self, name, *value):
        raise AttributeError(f"a LogRow is a read-only view of its record's row; cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return _view, (self.record, self.index)

    def __repr__(self) -> str:
        return f"LogRow(query_id={self.query_id!r}, context_id={self.context_id!r}, items={self.items!r})"

    def _span(self, column: np.ndarray) -> np.ndarray:
        start = self.record.starts[self.index]
        return column[start:start + self.record.sizes[self.index]]

    query_id = property(lambda self: self.record.query_ids[self.index])
    context_id = property(lambda self: self.record.context_ids[self.index])
    items = property(lambda self: tuple(self._span(self.record.item_ids)))
    positions = property(lambda self: self._span(self.record.positions))
    clicks = property(lambda self: self._span(self.record.clicks))
    features = property(lambda self: MappingProxyType({name: self._span(f) for name, f in self.record.features.items()}))
    n = property(lambda self: int(self.record.sizes[self.index]))


def _view(record: "ContextRecord", index: int, row: LogRow = None) -> LogRow:
    """The view ``(record, index)``, unchecked: ``row``, the constructor's, or a new one. Its slots are set through
    their own setters, which a row's ``__setattr__`` refuses."""
    row = object.__new__(LogRow) if row is None else row
    _RECORD.__set__(row, record)
    _INDEX.__set__(row, index)
    return row


_RECORD, _INDEX = LogRow.record, LogRow.index


class ContextRecord:
    """Contexts as columns: per row ``query_ids``, ``context_ids`` and ``sizes``; per item, row after row,
    ``item_ids`` and the read-only ``positions`` and ``clicks``; per feature name a read-only flat column in
    ``features``. Row ``r`` holds places ``starts[r]`` to ``starts[r] + sizes[r]``. ``rows[r]`` is it as a
    :class:`LogRow`, the view ``(record, r)``, all made on first use; a record gathered from rows that exist
    (:meth:`of_rows`, :meth:`take`) keeps those objects instead. Derived columns are made on first use too: each
    width's clicks summed per row into ``totals``, and each row's sum dividing its clicks into the flat ``ctrs``
    (zero without clicks), the same bits as ``row.clicks.sum()`` and ``row.clicks / row.clicks.sum()``. Per schema,
    each width is ranked by one :func:`average_ranks` call, and all of them go into one ``rank_space``. The columns
    are taken as given, unchecked; a record lives as long as the run or call that made it.
    """

    def __init__(self, query_ids, context_ids, sizes, item_ids, positions, clicks, features):
        self.query_ids, self.context_ids, self.sizes = query_ids, context_ids, sizes
        self.item_ids, self.positions, self.clicks, self.features = item_ids, positions, clicks, features
        for column in (positions, clicks, *features.values()):
            column.flags.writeable = False
        self._encodings: Dict[DatasetSchema, tuple] = {}

    rows = cached_property(lambda self: [_view(self, r) for r in range(self.sizes.size)])
    starts = cached_property(lambda self: np.cumsum(self.sizes) - self.sizes)
    clicked = cached_property(lambda self: self.totals > 0)

    @cached_property
    def totals(self) -> np.ndarray:
        totals = np.zeros(self.sizes.size)
        for n, members in by_width(self.sizes):  # C-contiguous: each row sums as it does alone
            totals[members] = self.clicks[self.items(members)].reshape(-1, n).sum(axis=1)
        return totals

    @cached_property
    def ctrs(self) -> np.ndarray:
        ctrs, hit = np.zeros(self.clicks.size), np.flatnonzero(self.clicked)
        places = self.items(hit)
        ctrs[places] = self.clicks[places] / np.repeat(self.totals[hit], self.sizes[hit])
        return ctrs

    @classmethod
    def of_rows(cls, rows: Sequence[LogRow]) -> "ContextRecord":
        """The record of a list of rows, gathered from their records' columns with each feature every row has. Its
        ``rows`` are the listed rows themselves, so a caller's rows reach its scorers as they were passed."""
        rows = list(rows)
        sources = list({id(row.record): row.record for row in rows}.values())
        starts = dict(zip(map(id, sources), np.cumsum([0] + [source.sizes.size for source in sources]).tolist()))
        joined = sources[0] if len(sources) == 1 else cls.joined(sources)
        record = joined.take(np.fromiter((starts[id(row.record)] + row.index for row in rows), np.intp, len(rows)))
        record.rows = rows
        return record

    @classmethod
    def joined(cls, records: Sequence["ContextRecord"]) -> "ContextRecord":
        """The records end to end, with each feature that all of them have, in the first one's order."""
        names = [name for name in records[0].features if all(name in r.features for r in records)] if records else []
        dtypes = {"query_ids": object, "context_ids": object, "sizes": np.intp, "item_ids": object, "positions": np.int64,
                  "clicks": np.float64}
        return cls(*(np.concatenate([getattr(r, key) for r in records] or [np.zeros(0, dtype)]) for key, dtype in dtypes.items()),
                   {name: np.concatenate([r.features[name] for r in records]) for name in names})

    def take(self, index: np.ndarray) -> "ContextRecord":
        """The record of the rows at ``index``, in that order, gathered from the columns. It shares what this record
        has made of them: their :class:`LogRow` objects and their (query, item) codes."""
        places = self.items(index)
        record = ContextRecord(self.query_ids[index], self.context_ids[index], self.sizes[index], self.item_ids[places],
                               self.positions[places], self.clicks[places],
                               {name: column[places] for name, column in self.features.items()})
        if "rows" in vars(self):
            record.rows = list(map(self.rows.__getitem__, index.tolist()))
        if "item_keys" in vars(self):
            record.item_keys = (self.item_keys[0][places], self.item_keys[1])
        return record

    def view(self, kind: str = "rows") -> "RecordView":
        """The view of all of the record's ``kind``, "rows" or "pairs"."""
        return RecordView(self, np.arange(len(getattr(self, kind))), getattr(self, kind))

    @classmethod
    def of_pairs(cls, pairs: Sequence[FlipPair]) -> "ContextRecord":
        """The record of the distinct rows (by identity) of hand-built ``pairs``, and of the pairs (:meth:`pair`)."""
        pairs = list(pairs)
        sides = [row for pair in pairs for row in (pair.row_1, pair.row_2)]
        items = {row: row.items for row in dict.fromkeys(sides)}  # each distinct row once, in order of first appearance
        place = dict(zip(items, count()))
        pair_items = np.array([
            (items[p.row_1].index(p.item_a), items[p.row_1].index(p.item_b), items[p.row_2].index(p.item_b),
             items[p.row_2].index(p.item_a)) for p in pairs
        ], dtype=np.intp).reshape(-1, 2, 2)
        order = sorted(range(len(pairs)), key=lambda i: (
            pairs[i].row_1.query_id, pairs[i].item_a, pairs[i].item_b, pairs[i].row_1.context_id, pairs[i].row_2.context_id,
        ))
        pair_rows = np.array([place[row] for row in sides], dtype=np.intp).reshape(-1, 2)
        return cls.of_rows(list(place)).pair(pairs, pair_rows, pair_items, order)

    def pair(self, pairs: list, pair_rows: np.ndarray, pair_items: np.ndarray, order) -> "ContextRecord":
        """The record with ``pairs`` over its rows: ``pair_rows`` holds each one's row_1 and row_2, ``pair_items`` the
        places of (a, b) in row_1 and (b, a) in row_2. ``clusters`` lists the pairs sharing a (query, context)
        together, each cluster in ``order`` (by query, item a, item b, context 1, context 2), clusters by their first."""
        self.pairs, self.pair_rows, self.pair_items = pairs, pair_rows, pair_items
        self.row_key = coded(zip(self.query_ids, self.context_ids), self.sizes.size)[0]
        rank = np.argsort(np.array(order, dtype=np.intp), kind="stable")
        # each pair takes the lowest rank over the pairs sharing one of its rows, until its cluster's first pair's
        label, keys, spread = None, self.row_key[pair_rows], rank
        while not np.array_equal(spread, label):
            label, lowest = spread, np.full(self.sizes.size, len(pairs))
            np.minimum.at(lowest, keys, label[:, None])
            spread = lowest[keys].min(axis=1)
        sizes = np.bincount(label, minlength=len(pairs))  # labels are the clusters' first ranks
        self.clusters, self.cluster_sizes = np.lexsort((rank, label)), sizes[sizes > 0]
        return self

    def split(self, train_fraction: float, seed: int) -> Tuple["RecordView", "RecordView"]:
        """:func:`paired_split` as views: clusters, in ``default_rng(seed).permutation`` order, train while
        fewer than ``round(train_fraction * pairs)`` pairs do (kept in [1, pairs - 1]); the rest test."""
        if len(self.pairs) < 2:
            raise SplitTooSmall(f"need at least two flip pairs, got {len(self.pairs)}")
        check_train_fraction(train_fraction)
        target = min(max(int(round(train_fraction * len(self.pairs))), 1), len(self.pairs) - 1)
        perm = np.random.default_rng(seed).permutation(self.cluster_sizes.size)
        sizes, starts = self.cluster_sizes[perm], (np.cumsum(self.cluster_sizes) - self.cluster_sizes)[perm]
        train = np.cumsum(sizes) - sizes < target  # once the training side is full, every later cluster is tested
        test = self.clusters[_ranges(starts[~train], sizes[~train])]
        test = test[np.argsort(test, kind="stable")]
        if not test.size:
            raise SplitTooSmall("pairs are too entangled to produce a nonempty test set")
        sides = self.pair_rows[self.clusters[_ranges(starts[train], sizes[train])]].ravel()
        first, _ = first_seen(self.row_key[sides])
        return RecordView(self, sides[first], self.rows), RecordView(self, test, self.pairs)

    def items(self, index: np.ndarray) -> np.ndarray:
        """The flat places of the items of the rows at ``index``, row after row."""
        return _ranges(self.starts[index], self.sizes[index])

    @cached_property
    def item_keys(self) -> Tuple[np.ndarray, list]:
        """Each flat place's (query, item) code and each code's (query, item); the codes count from 0 in order of
        first appearance in the record that coded them (a gathered record shares its source's)."""
        return coded(zip(np.repeat(self.query_ids, self.sizes), self.item_ids), self.item_ids.size)

    def encoding(self, schema: DatasetSchema) -> tuple:
        """The RankSpace of every row, each row's position in it, and the flat (N, k + 1) design: features, position."""
        if schema not in self._encodings:
            stacks, place, design = [], np.empty(self.sizes.size, np.intp), np.empty((self.item_ids.size, schema.k + 1))
            design[:, schema.k] = self.positions
            for _, members in by_width(self.sizes):
                values, ranks = feature_ranks(RecordView(self, members, self.rows), schema)
                design[self.items(members), :schema.k] = values.swapaxes(1, 2).reshape(-1, schema.k)
                place[members] = sum(map(len, stacks)) + np.arange(members.size)  # the space holds width after width
                stacks.append(ranks)
            self._encodings[schema] = (rank_space(*stacks), place, design)
        return self._encodings[schema]

    def space(self, index: np.ndarray, schema: DatasetSchema) -> Tuple[RankSpace, np.ndarray]:
        """The RankSpace of the rows at ``index``, gathered from the record's, and the places of their items, row
        after row, in the flat outputs of ``rank_chain_rows`` on it."""
        space, place, _ = self.encoding(schema)
        space, starts = gather(space, place[index])
        return space, _ranges(starts, self.sizes[index])

    def comparisons(self, index: np.ndarray) -> Tuple["RecordView", np.ndarray]:
        """The distinct rows of the pairs at ``index``, in order of first appearance, and the pairs' comparisons:
        ``(2P, 2)`` places of each preferred and other item in those rows' scores end to end, row_1's then row_2's."""
        sides = self.pair_rows[index].ravel()
        first, row = first_seen(sides)
        offsets = np.cumsum(self.sizes[sides[first]]) - self.sizes[sides[first]]
        return RecordView(self, sides[first], self.rows), offsets[row, None] + self.pair_items[index].reshape(-1, 2)


def _read_only(view, *args, **kwargs):
    raise TypeError("a record's view is read-only, or its index would no longer say what it holds; edit list(view)")


class RecordView(list):
    """A read-only list of a record's rows (or pairs) that also holds their ``index`` into the record and their
    ``kind``, "rows" or "pairs": models read it as any sequence of the record's :class:`LogRow` objects, while the
    functions here gather the record's arrays and touch no row.
    Every in-place edit raises ``TypeError``, or the ``index`` would no longer say what the view holds; ``copy.copy``
    returns the view itself, while slices, ``+`` and ``list(view)`` are plain lists."""

    def __init__(self, record: ContextRecord, index: np.ndarray, source: list):
        super().__init__(map(source.__getitem__, index.tolist()))
        self.record, self.index, self.kind = record, index, "pairs" if source is getattr(record, "pairs", None) else "rows"

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __copy__(self) -> "RecordView":
        return self

    def of(self, kind: str) -> "RecordView":
        """The view itself if it indexes the record's ``kind``, else a ``TypeError``: its indices mean other things."""
        if self.kind != kind:
            raise TypeError(f"expected a view of a record's {kind}, got a view of its {self.kind}")
        return self


def record_view(rows: Sequence[LogRow]) -> RecordView:
    """``rows`` itself if it is a view of a record's rows, else the view of a new record of them."""
    return rows.of("rows") if isinstance(rows, RecordView) else ContextRecord.of_rows(rows).view()


def clicked_view(rows: Sequence[LogRow]) -> RecordView:
    """The rows of ``rows`` that have clicks, in order: a view of the same record if all of them have, else of the
    record gathered from only those, so a context without clicks is never ranked or designed."""
    view = record_view(rows)
    clicked = RecordView(view.record, view.index[view.record.clicked[view.index]], view.record.rows)
    return clicked if len(clicked) == len(view) else view.record.take(clicked.index).view()


def pairs_view(pairs: Sequence[FlipPair]) -> RecordView:
    """``pairs`` itself if it is a view of all of a record's pairs, else the view of :meth:`ContextRecord.of_pairs`
    of them; so its record splits exactly these pairs, and one view serves every run over them."""
    if isinstance(pairs, RecordView) and len(pairs.of("pairs")) == len(pairs.record.pairs):
        return pairs
    return ContextRecord.of_pairs(pairs).view("pairs")
