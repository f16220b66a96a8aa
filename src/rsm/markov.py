"""Markov chain kernels.

Stationary distributions, the fundamental matrix and first-order
stationary shifts for row-stochastic transition matrices, all small and
dense; and the kernel for mixtures of rank chains, which works in
the span of their ranks and forms no ``n x n`` matrix: the generators draw
their targets, the learner fits and the held-out scorer scores through it.
Everything is plain numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import config
from .errors import NoUniqueStationary, ShapeError, SingularFundamental


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic transition matrix over ``n`` states.

    Parameters
    ----------
    entries : array_like, shape (n, n)
        Nonnegative transition weights. Every row must sum to 1 within
        ``config.ROW_SUM_TOL``.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("matrix must have at least one state")
        if not np.all(np.isfinite(arr)):
            raise ValueError("transition entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("transition entries must be nonnegative")
        gap = np.max(np.abs(arr.sum(axis=1) - 1.0))
        if not gap <= config.ROW_SUM_TOL:
            raise ValueError(
                f"rows must sum to 1 within {config.ROW_SUM_TOL}, worst gap {gap:.3e}"
            )
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "StochasticMatrix":
        """Freeze a fresh float64 ``(n, n)`` array the caller built stochastic, unchecked.

        For kernels whose output meets every invariant by construction; the
        array is taken over without a copy, so no one else may hold it.
        """
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", _freeze(entries))
        return matrix


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability distribution over ``n`` states, copied and checked; :func:`stationary` uses :meth:`_trusted`."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError(f"expected a 1-d probability vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        if np.any(arr < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if not abs(arr.sum() - 1.0) <= config.DIST_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {arr.sum()!r}")
        object.__setattr__(self, "probs", _freeze(arr))

    @property
    def n(self) -> int:
        return self.probs.size

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "Distribution":
        """Freeze a fresh ``(n,)`` vector its solver clipped, normalised and residual-checked; no one else holds it."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "probs", _freeze(probs))
        return dist


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """Fundamental matrix ``Z = (I - (P - 1 p^T))^{-1}`` with its stationary ``p``.

    Constructed by :func:`fundamental_matrix`, which verifies
    ``Z (I - (P - 1 p^T)) = I`` within ``config.FUNDAMENTAL_CHECK_TOL``.
    """

    z: np.ndarray
    stationary: Distribution

    def __post_init__(self):
        arr = np.array(self.z, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] != self.stationary.n:
            raise ShapeError("fundamental matrix and stationary distribution disagree on n")
        object.__setattr__(self, "z", _freeze(arr))

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _stationary_probs(entries: np.ndarray, has_zero: Optional[bool] = None) -> np.ndarray:
    """The stationary vector of an ``(n, n)`` chain whose stationary vector is unique.

    A chain with a zero entry, or with ``n <= config.DIRECT_SOLVE_MAX_N``,
    is solved by LU on ``p^T (I - P) = 0`` with the last equation replaced
    by ``sum(p) = 1``; a wider positive chain, aperiodic, by power iteration
    from the uniform vector, which a periodic chain would never finish.
    ``has_zero`` says whether the chain has a zero entry, if the caller knows.
    Uniqueness is the caller's to establish (:func:`stationary` checks it).

    Raises
    ------
    NoUniqueStationary
        If the system is singular, a solution leaves the probability
        simplex, its fixed-point residual is not within
        ``config.STATIONARY_RESIDUAL_TOL`` (a NaN one included), or power
        iteration turns non-finite or does not converge.
    """
    n = entries.shape[0]
    if n <= config.DIRECT_SOLVE_MAX_N or (entries.min() <= 0.0 if has_zero is None else has_zero):
        system = np.subtract(0.0, entries.T, order="C")  # (I - P)^T off the diagonal, +0 where P has a zero
        system.flat[:: n + 1] += 1.0
        system[-1] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        try:
            probs = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise NoUniqueStationary("stationarity system is singular") from exc
    else:
        probs = np.full(n, 1.0 / n)
        for _ in range(config.POWER_ITER_MAX_STEPS):
            nxt = probs @ entries
            change = np.abs(nxt - probs).sum()
            probs = nxt
            if change <= config.POWER_ITER_TOL:
                break
            if not math.isfinite(change):
                raise NoUniqueStationary("power iteration reached a non-finite vector")
        else:
            raise NoUniqueStationary(
                "power iteration did not converge; the chain is likely periodic or reducible"
            )
    if not (probs >= -config.STATIONARY_RESIDUAL_TOL).all():
        raise NoUniqueStationary("stationary solution leaves the probability simplex")
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum()
    residual = np.abs(probs @ entries - probs).max()
    if not residual <= config.STATIONARY_RESIDUAL_TOL:
        raise NoUniqueStationary(f"stationary residual {residual:.3e} exceeds tolerance")
    return probs


# ---------------------------------------------------------------------------
# Mixed rank chains in the span of their ranks.
#
# A rank chain is rank-2: T_i = diag(1/d_i) ((n - r_i) 1^T + 1 r_i^T) with
# r_i the average ranks and d_i = n (n + (n + 1) / 2) - n r_i, so a row
# vector x maps to x^T T_i = (x . alpha_i) 1^T + (x . beta_i) r_i^T with
# alpha_i = (n - r_i) / d_i and beta_i = 1 / d_i. The mixture
# P = lam / n 1 1^T + sum_i w_i T_i therefore maps the span of the rows of
# V = [1; r_1; ...; r_k] into itself: (c V) P = c M V with the
# (k + 1) x (k + 1) matrix M = V G^T, where G has rows
# lam / n + sum_i w_i alpha_i and w_i beta_i. M s = s for s = V 1, since P
# is row-stochastic. The stationary p and the gradient rows p^T T_i Z,
# Z = (I - P + 1 p^T)^-1 (Kemeny & Snell, Finite Markov Chains, ch. 4), all
# lie in that span, so each context costs O(k^2 n) and one (k + 1)-wide
# system matrix: I - M with its last column replaced by s. The columns of
# I - M combine to zero with the weights s, so the last equation of
# c (I - M) = 0 is redundant and gives way to c . s = 1. As Z 1 = T_i 1 = 1,
# the coefficients y_i of p^T T_i Z solve y_i (I - M) = h_i - c, h_i those
# of p^T T_i, and y_i . s = 1: the same matrix, k more right-hand sides. It
# is nonsingular whenever p is unique, even when V is rank-deficient (a
# constant, duplicated or reversed feature): the left null space of I - M
# is spanned by p G^T, and the column s is never zero.
# ---------------------------------------------------------------------------


# per width, its (b, k, n) ranks and their functionals [alpha; beta] as (b, 2k, n); over all B contexts, width
# after width, [alpha; beta] V^T as (2k, B, k + 1), the rows of M^T without their weights, and s = V 1 as (B, k + 1)
RankSpace = namedtuple("RankSpace", "stacks forms forms_v sums")


def rank_space(*stacks: np.ndarray) -> RankSpace:
    """The products of :func:`rank_chain_rows` that depend on the ranks but not on the weights.

    Each of ``stacks`` is a ``(b, k, n)`` stack of average ranks (``rsm.topology.average_ranks``), one ``(k, n)``
    block per context, all of one width; the space holds their contexts width after width, in that order. The
    denominators ``d`` are exactly those of the rank chains' row sums.
    """
    stacks = tuple(np.asarray(ranks, dtype=np.float64) for ranks in stacks)
    if not stacks:
        return RankSpace((), (), np.zeros((0, 0, 1)), np.zeros((0, 1)))
    forms, forms_v, sums = [], [], []
    for ranks in stacks:
        b, k, n = ranks.shape
        d = n * (n + (n + 1) / 2) - n * ranks
        forms.append(np.concatenate(((n - ranks) / d, 1.0 / d), axis=1))
        basis = np.concatenate((np.ones((b, 1, n)), ranks), axis=1)
        forms_v.append(forms[-1] @ np.swapaxes(basis, -1, -2))
        sums.append(np.tile([n] + [n * (n + 1) / 2] * k, (b, 1)))  # average ranks sum to n (n + 1) / 2
    return RankSpace(stacks, tuple(forms), np.ascontiguousarray(np.swapaxes(np.concatenate(forms_v), 0, 1)), np.concatenate(sums))


def _layout(labels: np.ndarray, widths: np.ndarray) -> tuple:
    """Contexts of ``widths`` laid out stably by ``labels``: the order, its runs of one label, and each one's first
    place in the flat outputs of :func:`rank_chain_rows`."""
    order = np.argsort(labels, kind="stable")
    starts = np.empty_like(widths)
    starts[order] = np.cumsum(widths[order]) - widths[order]
    return order, np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if order.size else [], starts


def context_space(ranks: Sequence[np.ndarray]) -> Tuple[RankSpace, np.ndarray]:
    """The :func:`rank_space` of contexts of any widths, one ``(k, n)`` rank array each, stacked width after width,
    and each context's first place in the flat outputs of :func:`rank_chain_rows`."""
    widths = np.array([r.shape[-1] for r in ranks], dtype=np.intp)
    _, groups, starts = _layout(widths, widths)
    return rank_space(*(np.array([ranks[c] for c in group.tolist()]) for group in groups)), starts


def gather(space: RankSpace, positions: np.ndarray) -> Tuple[RankSpace, np.ndarray]:
    """The space of the contexts of ``space`` at ``positions``, width after width, and each one's first place in the
    flat outputs of :func:`rank_chain_rows`; gathered, the same bits as :func:`rank_space` of their ranks."""
    stacks, forms, forms_v, sums = space
    counts = np.array([len(ranks) for ranks in stacks], dtype=np.intp)
    block = np.repeat(np.arange(counts.size), counts)[positions]
    local = positions - (np.cumsum(counts) - counts)[block]  # each context's place in its width's stack
    order, groups, starts = _layout(block, np.array([ranks.shape[2] for ranks in stacks], dtype=np.intp)[block])
    parts = [tuple(part[block[group[0]]].take(local[group], axis=0) for group in groups) for part in (stacks, forms)]
    return RankSpace(*parts, forms_v.take(positions[order], axis=1), sums[positions[order]]), starts


def _span(coef: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """``coef V`` for ``(B, m, k + 1)`` coefficients: ``c_0 + c_1 r_1 + ... + c_k r_k``.

    Summed elementwise in feature order, not through BLAS, so items with
    equal ranks on every feature get bit-equal entries.
    """
    out = coef[..., :1] + coef[..., 1:2] * ranks[:, None, 0]
    term = np.empty_like(out)
    for i in range(1, ranks.shape[1]):
        out += np.multiply(coef[..., i + 1, None], ranks[:, None, i], out=term)
    return out


def rank_chain_rows(space: RankSpace, w_native: np.ndarray, lam: float, gradients: bool = True):
    """Stationary rows, and the rows ``p^T T_i Z``, of mixed rank chains.

    ``space`` comes from :func:`rank_space`, :func:`context_space` or :func:`gather`; each context's chain is
    ``lam / n + sum_i w_i T_i`` for native-form weights ``w_native`` (summing to ``1 - lam``). The system matrices
    above, in transposed form, of all contexts are solved in one stack against ``e_last`` for ``c`` and, if
    ``gradients``, in one more against the columns ``h_i - c`` with last entry 1 for the ``y_i``; LAPACK solves
    each matrix of a stack on its own, and the n-wide steps run one width at a time, so a context gets the same
    bits in any space. Returns the rows ``c V`` and ``y_i V`` flat, contexts end to end as the space holds them:
    the ``(N,)`` stationary probabilities of its ``N`` items and their ``(N, k)`` gradient entries, None in their
    place without ``gradients``.

    Raises
    ------
    NoUniqueStationary
        If a system is singular, a stationary solution leaves the
        probability simplex, or its fixed-point residual exceeds
        ``config.STATIONARY_RESIDUAL_TOL``, as in :func:`stationary`.
    """
    stacks, forms, forms_v, sums = space
    w = np.asarray(w_native, dtype=np.float64)
    k, b = w.size, sums.shape[0]
    if not b:
        return np.zeros(0), np.zeros((0, k)) if gradients else None
    scaled = forms_v * np.concatenate((w, w))[:, None, None]  # w_i alpha_i V^T, then w_i beta_i V^T
    row = scaled[0] + sums * (lam / sums[:, :1])  # row 0 of M^T is G_0 V^T, G_0 = lam / n + sum_i w_i alpha_i
    for part in scaled[1:k]:
        row += part
    mixed = np.concatenate((row[:, None], np.swapaxes(scaled[k:], 0, 1)), axis=1)  # M^T; row i is w_i beta_i V^T
    eye = np.eye(k + 1)
    system = eye - mixed
    system[:, -1] = sums
    try:
        coef = np.linalg.solve(system, np.broadcast_to(eye[:, -1:], (b, k + 1, 1)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NoUniqueStationary("stationarity system is singular") from exc
    firsts = np.cumsum([len(ranks) for ranks in stacks])[:-1]  # the first context of every width but the first
    ends = np.cumsum([ranks[:, 0].size for ranks in stacks])  # where each width's items end in the flat outputs
    probs, hits, totals = np.empty(ends[-1]), [], []
    for ranks, form, c, out in zip(stacks, forms, np.split(coef, firsts), np.split(probs, ends[:-1])):
        p = _span(c[:, None], ranks)[:, 0]
        if not (p >= -config.STATIONARY_RESIDUAL_TOL).all():
            raise NoUniqueStationary("stationary solution leaves the probability simplex")
        np.maximum(p, 0.0, out=p)
        totals.append(p.sum(axis=-1, keepdims=True))
        p /= totals[-1]
        hits.append((form @ p[..., None])[..., 0])  # p^T T_i = hits_i 1^T + hits_{k+i} r_i^T
        moved = np.empty((len(ranks), 1, k + 1))  # the coefficients of p^T P
        moved[:, 0, 0] = (lam / ranks.shape[2]) * p.sum(axis=-1) + hits[-1][:, :k] @ w
        np.multiply(hits[-1][:, k:], w, out=moved[:, 0, 1:])
        residual = np.abs(_span(moved, ranks)[:, 0] - p).max(initial=0.0)
        if not residual <= config.STATIONARY_RESIDUAL_TOL:
            raise NoUniqueStationary(f"stationary residual {residual:.3e} exceeds tolerance")
        out[...] = p.ravel()
    if not gradients:
        return probs, None
    hits = np.concatenate(hits)
    rhs = np.repeat(-(coef / np.concatenate(totals))[:, :, None], k, axis=2)  # column i: h_i - c, then y_i . s = 1
    rhs[:, 0] += hits[:, :k]
    rhs[:, np.arange(1, k + 1), np.arange(k)] += hits[:, k:]
    rhs[:, -1] = 1.0
    solved, rows = np.swapaxes(np.linalg.solve(system, rhs), -1, -2), np.empty((ends[-1], k))
    for ranks, y, out in zip(stacks, np.split(solved, firsts), np.split(rows, ends[:-1])):
        out.reshape(len(ranks), -1, k)[...] = np.swapaxes(_span(y, ranks), 1, 2)
    return probs, rows


def _one_closed_class(entries: np.ndarray) -> bool:
    """Whether the support graph of a chain has exactly one closed class."""
    reach = (entries > 0.0) | np.eye(entries.shape[0], dtype=bool)
    for _ in range(entries.shape[0].bit_length()):  # squaring t times covers 2^t steps
        hops = reach.astype(np.float64)
        reach = hops @ hops > 0.0
    recurrent = np.all(reach <= reach.T, axis=1)
    return bool(np.all(reach[np.ix_(recurrent, recurrent)]))


def stationary(matrix: StochasticMatrix) -> Distribution:
    """Solve ``p^T P = p^T`` with ``sum(p) = 1``.

    A chain with every entry positive has a unique stationary distribution
    (Perron-Frobenius); any other chain is first checked to have exactly
    one closed class in its support graph, then solved directly at every
    ``n``, since it may be periodic.

    Raises
    ------
    NoUniqueStationary
        If the chain has several closed classes (several stationary
        distributions, e.g. the identity chain), or from the solve itself.
    """
    entries = matrix.entries
    has_zero = entries.min() <= 0.0
    if has_zero and not _one_closed_class(entries):
        raise NoUniqueStationary("chain has several closed classes; multiple stationary distributions")
    return Distribution._trusted(_stationary_probs(entries, has_zero))


def fundamental_matrix(matrix: StochasticMatrix) -> FundamentalMatrix:
    """Invert ``I - (P - 1 p^T)`` and verify the construction.

    Raises
    ------
    SingularFundamental
        If the core matrix is singular or the inverse fails its residual
        check at ``config.FUNDAMENTAL_CHECK_TOL``.
    NoUniqueStationary
        Propagated from the stationary solve.
    """
    p = stationary(matrix)
    n = matrix.n
    core = np.eye(n) - (matrix.entries - np.outer(np.ones(n), p.probs))
    try:
        z = np.linalg.inv(core)
    except np.linalg.LinAlgError as exc:
        raise SingularFundamental("fundamental matrix system is singular") from exc
    residual = np.max(np.abs(z @ core - np.eye(n)))
    if not residual <= config.FUNDAMENTAL_CHECK_TOL:
        raise SingularFundamental(
            f"fundamental matrix residual {residual:.3e} exceeds {config.FUNDAMENTAL_CHECK_TOL}"
        )
    return FundamentalMatrix(z=z, stationary=p)


def stationary_shift(p_from: Distribution, delta: np.ndarray, z: FundamentalMatrix) -> np.ndarray:
    """First-order stationary shift ``p_from^T delta Z``.

    With ``delta = P - P*`` and ``z`` the fundamental matrix of ``P*``, this
    equals ``p - p*`` exactly, where ``p`` is the stationary of ``P`` and
    ``p*`` that of ``P*``.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (p_from.n, p_from.n):
        raise ShapeError(f"delta has shape {delta.shape}, expected {(p_from.n, p_from.n)}")
    if z.n != p_from.n:
        raise ShapeError("fundamental matrix size does not match the distribution")
    return p_from.probs @ delta @ z.z
