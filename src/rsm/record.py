"""The context record: rows, and flip pairs over them, as arrays built once and gathered by index.

A record is the one place where the pipeline turns rows into per-width arrays, derives their click totals
and CTRs and codes their (query, item) names; the miner, the learner's batch, the least-squares design and
the ``train_ctr`` baseline read them there. An ``rsm eval`` run records its flip pairs' rows and clusters
the pairs once, for every rate of a sweep; each split is index arrays into the record. Models get rows as a
:class:`RecordView`, a tuple that also carries their indices, so the batch, the design and the scorers gather
the record's arrays. Integer arrays are sorted stably and ``np.unique`` always returns an index: numpy's
default integer sort is 0.3 MB of code a run never needs, and a plain ``np.unique`` imports ``numpy.ma``.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from .errors import SplitTooSmall
from .markov import RankSpace, rank_space
from .topology import Direction, average_ranks

if TYPE_CHECKING:
    from .data import DatasetSchema, FlipPair, LogRow


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(start, start + size)`` of each ``(start, size)``."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + sizes, sizes)


def _first_seen(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each distinct code first appears, ascending, and for each entry its code's rank in that order."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    return first[order], np.argsort(order, kind="stable")[inverse]


def by_width(sizes: np.ndarray) -> list:
    """Each distinct width of ``sizes``, in order of first appearance, with the positions that hold it, ascending."""
    first, width = _first_seen(sizes)
    return [(n, np.flatnonzero(width == j)) for j, n in enumerate(sizes[first].tolist())]


def feature_ranks(rows: Sequence[LogRow], schema: DatasetSchema) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(R, k, n)`` feature values of rows of one width and their :func:`average_ranks`, negated where lower is better."""
    values = np.array([[row.features[name] for name in schema.names] for row in rows])
    lower = np.array([[spec.direction is Direction.LOWER_IS_BETTER] for spec in schema.features])
    return values, average_ranks(np.where(lower, -values, values))


class ContextRecord:
    """Rows as arrays: row ``r`` holds places ``starts[r]`` to ``starts[r] + sizes[r]`` of the flat clicks,
    CTRs (zero without clicks) and designs, and ``totals[r]`` is its click total. The rows' clicks are
    concatenated once; each width's block is gathered from them and summed per row, and each row's sum
    divides its clicks, the same bits as ``row.clicks.sum()`` and ``row.clicks / row.clicks.sum()``. Per
    schema, on first use, each width is ranked by one :func:`average_ranks` call and one ``rank_space``. A
    record lives as long as the run or call that made it.
    """

    def __init__(self, rows: Sequence[LogRow]):
        self.rows = list(rows)
        self.sizes = np.array([row.n for row in self.rows], dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.clicks = np.concatenate([row.clicks for row in self.rows] or [np.zeros(0)])
        self.totals, self.ctrs = np.zeros(len(self.rows)), np.zeros(self.clicks.size)
        for n, members in by_width(self.sizes):
            clicks = self.clicks[self.items(members)].reshape(-1, n)  # C-contiguous: each row sums as it does alone
            self.totals[members] = totals = clicks.sum(axis=1)
            hit = totals > 0
            self.ctrs[self.items(members[hit])] = (clicks[hit] / totals[hit, None]).ravel()
        self.clicked = self.totals > 0
        self._encodings: Dict[DatasetSchema, tuple] = {}

    @classmethod
    def of_pairs(cls, pairs: Sequence[FlipPair]) -> "ContextRecord":
        """The record of the distinct rows (by identity) of ``pairs``; ``pair_items`` holds the places of (a, b) in
        each pair's row_1 and (b, a) in its row_2, and ``clusters`` the pairs sharing rows, in paired_split's order."""
        pairs = list(pairs)
        sides = [row for pair in pairs for row in (pair.row_1, pair.row_2)]
        place = {row: i for i, row in enumerate(dict.fromkeys(sides))}
        record = cls(list(place))
        record.pairs, record.pair_rows = pairs, np.array([place[row] for row in sides], dtype=np.intp).reshape(-1, 2)
        record.pair_items = np.array([
            (p.row_1.items.index(p.item_a), p.row_1.items.index(p.item_b), p.row_2.items.index(p.item_b),
             p.row_2.items.index(p.item_a)) for p in pairs
        ], dtype=np.intp).reshape(-1, 2, 2)
        ids: Dict[Tuple[str, str], int] = {}
        record.row_key = np.array([ids.setdefault((row.query_id, row.context_id), len(ids)) for row in place], dtype=np.intp)
        rank = np.argsort(np.array(sorted(range(len(pairs)), key=lambda i: (
            pairs[i].row_1.query_id, pairs[i].item_a, pairs[i].item_b, pairs[i].row_1.context_id, pairs[i].row_2.context_id,
        )), dtype=np.intp), kind="stable")
        # each pair takes the lowest rank over the pairs sharing one of its rows, until its cluster's first pair's
        label, keys, spread = None, record.row_key[record.pair_rows], rank
        while not np.array_equal(spread, label):
            label, lowest = spread, np.full(len(ids), len(pairs))
            np.minimum.at(lowest, keys, label[:, None])
            spread = lowest[keys].min(axis=1)
        sizes = np.bincount(label, minlength=len(pairs))  # labels are the clusters' first ranks
        record.clusters, record.cluster_sizes = np.lexsort((rank, label)), sizes[sizes > 0]
        return record

    def split(self, train_fraction: float, seed: int) -> Tuple["RecordView", "RecordView"]:
        """:func:`paired_split` as views: clusters, in ``default_rng(seed).permutation`` order, train while
        fewer than ``round(train_fraction * pairs)`` pairs do (kept in [1, pairs - 1]); the rest test."""
        if len(self.pairs) < 2:
            raise SplitTooSmall(f"need at least two flip pairs, got {len(self.pairs)}")
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        target = min(max(int(round(train_fraction * len(self.pairs))), 1), len(self.pairs) - 1)
        perm = np.random.default_rng(seed).permutation(self.cluster_sizes.size)
        sizes, starts = self.cluster_sizes[perm], (np.cumsum(self.cluster_sizes) - self.cluster_sizes)[perm]
        train = np.cumsum(sizes) - sizes < target  # once the training side is full, every later cluster is tested
        test = self.clusters[_ranges(starts[~train], sizes[~train])]
        test = test[np.argsort(test, kind="stable")]
        if not test.size:
            raise SplitTooSmall("pairs are too entangled to produce a nonempty test set")
        sides = self.pair_rows[self.clusters[_ranges(starts[train], sizes[train])]].ravel()
        first, _ = _first_seen(self.row_key[sides])
        return RecordView(self, sides[first], self.rows), RecordView(self, test, self.pairs)

    def items(self, index: np.ndarray) -> np.ndarray:
        """The flat places of the items of the rows at ``index``, row after row."""
        return _ranges(self.starts[index], self.sizes[index])

    @cached_property
    def item_keys(self) -> Tuple[np.ndarray, list]:
        """Each flat place's (query, item) code, numbered from 0 in order of first appearance, and each code's (query, item)."""
        ids: Dict[Tuple[str, str], int] = {}
        codes = [ids.setdefault((row.query_id, item), len(ids)) for row in self.rows for item in row.items]
        return np.array(codes, dtype=np.intp), list(ids)

    def encoding(self, schema: DatasetSchema) -> tuple:
        """Per width a RankSpace, each row's place in its width, and the flat (N, k + 1) design: features, position."""
        if schema not in self._encodings:
            spaces, place, design = {}, np.empty(len(self.rows), dtype=np.intp), np.empty((self.ctrs.size, schema.k + 1))
            for n, members in by_width(self.sizes):
                values, ranks = feature_ranks([self.rows[r] for r in members.tolist()], schema)
                positions = np.array([self.rows[r].positions for r in members.tolist()])[..., None]
                design[self.items(members)] = np.concatenate((values.swapaxes(1, 2), positions), 2).reshape(-1, schema.k + 1)
                spaces[n], place[members] = rank_space(ranks), np.arange(members.size)
            self._encodings[schema] = (spaces, place, design)
        return self._encodings[schema]

    def design(self, schema: DatasetSchema) -> np.ndarray:
        return self.encoding(schema)[2]  # gathered by items()

    def rank_spaces(self, index: np.ndarray, schema: DatasetSchema):
        """Per width of the rows at ``index``, in order of first appearance: their places in ``index`` and their RankSpace."""
        spaces, place, _ = self.encoding(schema)
        for n, at in by_width(self.sizes[index]):
            rows = place[index[at]]  # gathered, the same bits as rank_space of their ranks
            yield at, RankSpace(*(part.take(rows, axis=axis) for part, axis in zip(spaces[n], (0, 0, 1))))

    def comparisons(self, index: np.ndarray) -> Tuple["RecordView", np.ndarray]:
        """The distinct rows of the pairs at ``index``, in order of first appearance, and the pairs' comparisons:
        ``(2P, 2)`` places of each preferred and other item in those rows' scores end to end, row_1's then row_2's."""
        sides = self.pair_rows[index].ravel()
        first, row = _first_seen(sides)
        offsets = np.cumsum(self.sizes[sides[first]]) - self.sizes[sides[first]]
        return RecordView(self, sides[first], self.rows), offsets[row, None] + self.pair_items[index].reshape(-1, 2)


class RecordView(tuple):
    """A tuple of a record's rows (or pairs) that also holds their ``index`` into the record and their ``kind``,
    "rows" or "pairs": models read it as any sequence, while the functions here gather the record's arrays."""

    def __new__(cls, record: ContextRecord, index: np.ndarray, source: list) -> "RecordView":
        view = super().__new__(cls, map(source.__getitem__, index.tolist()))
        view.record, view.index, view.kind = record, index, "rows" if source is record.rows else "pairs"
        return view

    def of(self, kind: str) -> "RecordView":
        """The view itself if it indexes the record's ``kind``, else a ``TypeError``: its indices mean other things."""
        if self.kind != kind:
            raise TypeError(f"expected a view of a record's {kind}, got a view of its {self.kind}")
        return self


def record_view(rows: Sequence[LogRow]) -> RecordView:
    """``rows`` itself if it is a view of a record's rows, else the view of a new record of them."""
    if isinstance(rows, RecordView):
        return rows.of("rows")
    record = ContextRecord(rows)
    return RecordView(record, np.arange(len(record.rows)), record.rows)


def clicked_view(rows: Sequence[LogRow]) -> RecordView:
    """The rows of ``rows`` that have clicks, in order: a view of the same record if ``rows`` is a record's view,
    else of a new record of only those rows, so a list's quiet rows are never ranked or designed."""
    view = record_view(rows)
    clicked = RecordView(view.record, view.index[view.record.clicked[view.index]], view.record.rows)
    return clicked if view is rows or len(clicked) == len(view) else record_view(list(clicked))


def pairs_view(pairs: Sequence[FlipPair]) -> RecordView:
    """``pairs`` itself if it is a view of all of a record's pairs, else the view of :meth:`ContextRecord.of_pairs`
    of them; so its record splits exactly these pairs, and one view serves every run over them."""
    if isinstance(pairs, RecordView) and len(pairs.of("pairs")) == len(pairs.record.pairs):
        return pairs
    record = ContextRecord.of_pairs(pairs)
    return RecordView(record, np.arange(len(record.pairs)), record.pairs)
