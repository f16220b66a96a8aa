"""Feature topologies: Markov chains over the items of a context.

A feature turns its per-item values into a random walk that drifts toward
more desirable items. Items are ranked 1..n by feature value with rank n the
most desired; the transition weight from item i to item j is
``n + rank(j) - rank(i)``, rows normalized to sum 1. The encoding depends
only on the ordering of the values, so any monotone rescaling of a feature
yields the same topology. Tied values receive average ranks.

:func:`average_ranks` and :func:`rank_chain` hold that arithmetic once, for
a whole stack of equal-width contexts in one broadcast pass;
:func:`encode_rank_topology` validates one value vector and wraps its chain
in a :class:`Topology`, whose :attr:`Topology.ranks` reads the ranks back
for the learner. The ranks alone are what the generators, the learner and
the scorer solve from (``rsm.markov.rank_chain_rows``); :func:`combine`
mixes explicit topology matrices for the object API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import config
from .errors import ContextTooSmall, DanglingItem, ShapeError
from .markov import StochasticMatrix, stationary


class Direction(enum.Enum):
    """Whether larger or smaller feature values are more desirable."""

    HIGHER_IS_BETTER = "higher"
    LOWER_IS_BETTER = "lower"


@dataclass(frozen=True)
class FeatureSpec:
    """Name and desirability direction of one feature column.

    Categorical features arrive pre-mapped to numeric scores in the data
    (e.g. a brand column carrying -1/0/+1); the encoder never maps them.
    """

    name: str
    direction: Direction = Direction.HIGHER_IS_BETTER

    def __post_init__(self):
        if not self.name:
            raise ValueError("feature name must be nonempty")


@dataclass(frozen=True, eq=False)
class Topology:
    """One feature's transition chain over the items of a context."""

    feature: str
    matrix: StochasticMatrix
    item_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        if len(self.item_ids) != self.matrix.n:
            raise ShapeError("item list length does not match the matrix size")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("item ids must be unique")

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def ranks(self) -> np.ndarray:
        """The average ranks of which this topology's matrix is the rank chain, read-only.

        Read off the diagonal, ``T_jj = n / d_j`` with
        ``d_j = n (n + (n + 1) / 2) - n r_j``, and accepted only if their
        rank chain equals the matrix bit for bit; the check runs once per
        object. Raises ``ValueError`` naming the feature for any other chain,
        such as a :func:`restrict` output.
        """
        entries, n = self.matrix.entries, self.n
        with np.errstate(divide="ignore"):
            guess = np.round(2.0 * (n + (n + 1) / 2 - 1.0 / np.diagonal(entries))) / 2
        ranks = average_ranks(guess)
        if not np.array_equal(rank_chain(ranks), entries):
            raise ValueError(f"topology {self.feature!r} is not a rank chain of its items")
        ranks.flags.writeable = False
        return ranks


class Normalization(enum.Enum):
    """Weight vector conventions.

    ``SUMS_TO_ONE`` is the public reporting form; the restart probability is
    applied externally when combining. ``SUMS_TO_ONE_MINUS_LAMBDA`` is the
    learner-native form whose box constraints read directly in weight units.
    Converting between the two is a pure rescale by ``1 - lambda``.
    """

    SUMS_TO_ONE = "sums_to_one"
    SUMS_TO_ONE_MINUS_LAMBDA = "sums_to_one_minus_lambda"


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative feature weights under a declared normalization.

    ``lam`` is required for the learner-native form so the sum invariant can
    be checked; it is ignored for the reporting form.
    """

    values: np.ndarray
    normalization: Normalization = Normalization.SUMS_TO_ONE
    lam: Optional[float] = None

    def __post_init__(self):
        native = self.normalization is Normalization.SUMS_TO_ONE_MINUS_LAMBDA
        if native and self.lam is None:
            raise ValueError("learner-native weights require lam")
        if native and not 0.0 < self.lam < 1.0:  # before the values, which a bad lam scales out of range
            raise ValueError("lam must lie in (0, 1)")
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError(f"weights must be a 1-d vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr < 0.0):
            raise ValueError("weights must be nonnegative")
        target = 1.0 - self.lam if native else 1.0
        if abs(arr.sum() - target) > config.WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to {target}, got {arr.sum()!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.size

    def as_reporting(self) -> "WeightVector":
        if self.normalization is Normalization.SUMS_TO_ONE:
            return self
        return WeightVector(self.values / (1.0 - self.lam))

    def as_native(self, lam: float) -> "WeightVector":
        """These reporting-form weights in native form under ``lam`` in (0, 1): the one way into the rank kernel."""
        if self.normalization is not Normalization.SUMS_TO_ONE:
            raise ValueError("expected reporting-form weights; convert with as_reporting()")
        return WeightVector(
            self.values * (1.0 - lam),
            normalization=Normalization.SUMS_TO_ONE_MINUS_LAMBDA,
            lam=lam,
        )


def average_ranks(desirability: np.ndarray) -> np.ndarray:
    """Average ranks along the last axis of a ``(..., n)`` stack of desirability values.

    Larger values rank higher; ties share ``#{v_j < v_i} + (#{v_j = v_i} + 1) / 2``,
    equal to ``scipy.stats.rankdata(method="average")``. Every rank is a
    multiple of 1/2 in ``[1, n]`` and the ranks of a vector sum to
    ``n (n + 1) / 2``, all exactly. One sort per vector finds the runs
    of equal values, and a run over sorted places ``[start, stop)`` shares
    ``(start + 1 + stop) / 2``; no ``(..., n, n)`` array is formed. Callers
    validate: values finite.
    """
    values = np.asarray(desirability, dtype=np.float64)
    order = np.argsort(values, axis=-1)  # the order within a tie run does not matter
    ordered = np.take_along_axis(values, order, axis=-1)
    n = values.shape[-1]
    place = np.arange(n)
    opens = np.ones(values.shape, dtype=bool)  # a sorted place that starts a run of equal values
    opens[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    closes = np.ones(values.shape, dtype=bool)
    closes[..., :-1] = opens[..., 1:]
    start = np.maximum.accumulate(np.where(opens, place, 0), axis=-1)
    stop = np.minimum.accumulate(np.where(closes, place + 1, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty_like(ordered)
    np.put_along_axis(ranks, order, (start + 1 + stop) / 2, axis=-1)
    return ranks


def rank_chain(ranks: np.ndarray) -> np.ndarray:
    """The ``(..., n, n)`` rank chains of a ``(..., n)`` stack of :func:`average_ranks`.

    The weights ``n + rank(j) - rank(i)`` are multiples of 1/2 below ``2n``, so
    their row sums are exact and every slice is the chain of its vector alone.
    """
    n = ranks.shape[-1]
    weights = n + ranks[..., None, :] - ranks[..., :, None]
    return weights / weights.sum(axis=-1, keepdims=True)


def encode_rank_topology(
    values: Sequence[float],
    direction: Direction = Direction.HIGHER_IS_BETTER,
    item_ids: Optional[Sequence] = None,
    feature: str = "feature",
) -> Topology:
    """Encode feature values as a rank-based transition chain.

    Parameters
    ----------
    values : sequence of float, length n >= 2
        Feature value per item.
    direction : Direction
        Which end of the value scale is desirable.
    item_ids : sequence, optional
        Item identifiers; defaults to ``item0..item{n-1}``.
    feature : str
        Feature name stored on the topology.

    Returns
    -------
    Topology
        Rows sum to 1; every entry is strictly positive because the edge
        weights ``n + rank(j) - rank(i)`` stay within ``[1, 2n - 1]``.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1:
        raise ShapeError("values must be a 1-d sequence")
    n = vals.size
    if n < 2:
        raise ContextTooSmall(f"a context needs at least two items, got {n}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("feature values must be finite")
    entries = rank_chain(average_ranks(vals if direction is Direction.HIGHER_IS_BETTER else -vals))
    if item_ids is None:
        item_ids = tuple(f"item{i}" for i in range(n))
    return Topology(feature=feature, matrix=StochasticMatrix(entries), item_ids=tuple(item_ids))


def restrict(topology: Topology, subset: Sequence) -> Topology:
    """Restrict a topology to a sub-context and renormalize the rows.

    ``subset`` must name at least two items of the topology; the result uses
    the order given. Raises ``DanglingItem`` if a restricted row has no
    remaining transition mass to renormalize.
    """
    subset = tuple(subset)
    if len(subset) < 2:
        raise ContextTooSmall(f"a context needs at least two items, got {len(subset)}")
    if len(set(subset)) != len(subset):
        raise ValueError("subset items must be unique")
    index = {item: i for i, item in enumerate(topology.item_ids)}
    try:
        idx = [index[item] for item in subset]
    except KeyError as exc:
        raise ValueError(f"item {exc.args[0]!r} is not part of the topology") from exc
    sub = topology.matrix.entries[np.ix_(idx, idx)]
    sums = sub.sum(axis=1)
    dead = np.nonzero(sums <= 0.0)[0]
    if dead.size:
        raise DanglingItem(f"item {subset[dead[0]]!r} has no outgoing mass after restriction")
    return Topology(
        feature=topology.feature,
        matrix=StochasticMatrix(sub / sums[:, None]),
        item_ids=subset,
    )


def combine(
    topologies: Sequence[Topology],
    weights: WeightVector,
    lam: float = config.DEFAULT_LAMBDA,
) -> StochasticMatrix:
    """Mix topologies into one chain with a uniform restart.

    Returns ``lam * U_n + (1 - lam) * sum_i w_i T_i`` for reporting-form
    weights ``w``. Every entry of the result is at least ``lam / n``, so the
    combined chain always has a unique stationary distribution. Validated
    inputs make the mixture finite, positive and row-stochastic within the
    inputs' own tolerances, so it is frozen as built, without a second copy
    and check.
    """
    if not topologies:
        raise ValueError("need at least one topology")
    if weights.normalization is not Normalization.SUMS_TO_ONE:
        raise ValueError("combine expects reporting-form weights; convert with as_reporting()")
    if weights.k != len(topologies):
        raise ShapeError(f"{len(topologies)} topologies but {weights.k} weights")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    first = topologies[0]
    for top in topologies[1:]:
        if top.item_ids != first.item_ids:
            raise ShapeError("all topologies must cover the same items in the same order")
    # the first weighted term, the others added in feature order through one scratch buffer, the restart last
    mix = np.multiply(first.matrix.entries, weights.values[0])
    term = np.empty_like(mix)
    for w, top in zip(weights.values[1:], topologies[1:]):
        mix += np.multiply(top.matrix.entries, w, out=term)
    mix *= 1.0 - lam
    mix += lam / first.n
    return StochasticMatrix._trusted(mix)


def rank_items(combined: StochasticMatrix, item_ids: Sequence) -> list:
    """Rank items by stationary probability, descending.

    Near-ties are grouped from the top: a group opens at its highest item and
    takes every following item whose probability is at most
    ``config.RANK_TIE_TOL`` below that first item's, and each group is
    listed by item id ascending, so solver roundoff does not decide the
    order of mathematically tied items. Tied-ness is not transitive: with
    ``a - b`` and ``b - c`` within the tolerance but ``a - c`` beyond it,
    ``c`` opens the next group. Returns ``(item_id, probability)`` pairs.
    """
    item_ids = tuple(item_ids)
    if len(item_ids) != combined.n:
        raise ShapeError("item list length does not match the matrix size")
    probs = stationary(combined).probs
    by_prob = np.argsort(-probs, kind="stable")
    ranked = probs[by_prob]
    order = by_prob.tolist()
    # A gap above the tolerance always closes a group, so groups only form
    # inside runs of consecutive near-tied items; regroup those runs alone.
    edges = np.diff(np.concatenate(([0], ranked[:-1] - ranked[1:] <= config.RANK_TIE_TOL, [0])))
    starts, stops = np.flatnonzero(edges == 1).tolist(), (np.flatnonzero(edges == -1) + 1).tolist()
    for start, stop in zip(starts, stops):
        while start < stop:
            head, end = ranked[start], start + 1
            while end < stop and head - ranked[end] <= config.RANK_TIE_TOL:
                end += 1
            order[start:end] = sorted(order[start:end], key=item_ids.__getitem__)
            start = end
    values = probs.tolist()
    return [(item_ids[i], values[i]) for i in order]
