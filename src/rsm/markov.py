"""Dense Markov chain kernel.

Stationary distributions, the limiting matrix, the fundamental matrix and
its rows for given vectors, and first-order stationary shifts for
row-stochastic transition matrices. All matrices are small and dense;
everything is plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if gap > config.ROW_SUM_TOL:
            raise ValueError(
                f"rows must sum to 1 within {config.ROW_SUM_TOL}, worst gap {gap:.3e}"
            )
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "StochasticMatrix":
        """The uniform chain U_n with every entry 1/n."""
        return cls(np.full((n, n), 1.0 / n))

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
    """Probability distribution over ``n`` states."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError(f"expected a 1-d probability vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        if np.any(arr < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(arr.sum() - 1.0) > config.DIST_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {arr.sum()!r}")
        object.__setattr__(self, "probs", _freeze(arr))

    @property
    def n(self) -> int:
        return self.probs.size


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


def stationary_rows(chains: np.ndarray) -> np.ndarray:
    """Stationary rows of a stack of chains with unique stationary vectors.

    ``chains`` has shape ``(..., n, n)``; the result has shape ``(..., n)``.
    For ``n <= config.DIRECT_SOLVE_MAX_N`` each chain is solved by LU on
    ``p^T (I - P) = 0`` with the last equation replaced by ``sum(p) = 1``;
    above that, by power iteration from the uniform vector. Uniqueness is
    the caller's to establish (:func:`stationary` checks it).

    Raises
    ------
    NoUniqueStationary
        If the system is singular, a solution leaves the probability
        simplex, its fixed-point residual exceeds
        ``config.STATIONARY_RESIDUAL_TOL``, or power iteration does not
        converge.
    """
    chains = np.asarray(chains, dtype=np.float64)
    n = chains.shape[-1]
    if n <= config.DIRECT_SOLVE_MAX_N:
        systems = np.swapaxes(np.eye(n) - chains, -1, -2).copy()
        systems[..., -1, :] = 1.0
        rhs = np.zeros(chains.shape[:-1] + (1,))
        rhs[..., -1, 0] = 1.0
        try:
            probs = np.linalg.solve(systems, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NoUniqueStationary("stationarity system is singular") from exc
    else:
        probs = np.full(chains.shape[:-1], 1.0 / n)
        for _ in range(config.POWER_ITER_MAX_STEPS):
            nxt = np.matmul(probs[..., None, :], chains)[..., 0, :]
            change = np.abs(nxt - probs).sum(axis=-1).max(initial=0.0)
            probs = nxt
            if change <= config.POWER_ITER_TOL:
                break
        else:
            raise NoUniqueStationary(
                "power iteration did not converge; the chain is likely periodic or reducible"
            )
    if np.any(probs < -config.STATIONARY_RESIDUAL_TOL):
        raise NoUniqueStationary("stationary solution leaves the probability simplex")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    moved = np.matmul(probs[..., None, :], chains)[..., 0, :]
    residual = np.abs(moved - probs).max(initial=0.0)
    if residual > config.STATIONARY_RESIDUAL_TOL:
        raise NoUniqueStationary(f"stationary residual {residual:.3e} exceeds tolerance")
    return probs


def fundamental_rows(chains: np.ndarray, probs: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Rows ``v^T Z`` for a stack of chains, ``Z = (I - P + 1 p^T)^{-1}``.

    ``chains`` has shape ``(..., n, n)``, ``probs`` their stationary rows
    ``(..., n)`` (from :func:`stationary_rows`) and ``vectors`` a stack of
    row vectors ``(..., m, n)``; the result has the shape of ``vectors``.
    For ``n <= config.DIRECT_SOLVE_MAX_N`` the rows come from one LU solve
    of ``(I - P + 1 p^T)^T`` with ``m`` right-hand sides. Above that they
    come from the fundamental series: with ``s = sum(v)``,
    ``v^T Z = s p^T + sum_t (v - s p)^T P^t``, since ``p^T Z = p^T`` and
    ``Z`` acts as ``sum_t P^t`` on sum-zero rows (Kemeny & Snell, *Finite
    Markov Chains*, ch. 4). Terms are added until the largest L1 norm of a
    term is at most ``config.POWER_ITER_TOL``. Z itself is never formed.

    Raises
    ------
    NoUniqueStationary
        If the series has not converged after ``config.POWER_ITER_MAX_STEPS``
        terms; the chain is then periodic or reducible.
    """
    chains = np.asarray(chains, dtype=np.float64)
    n = chains.shape[-1]
    if n <= config.DIRECT_SOLVE_MAX_N:
        cores = np.eye(n) - chains + probs[..., None, :]
        rows = np.linalg.solve(np.swapaxes(cores, -1, -2), np.swapaxes(vectors, -1, -2))  # Z^T v
        return np.swapaxes(rows, -1, -2)
    rows = np.array(vectors, dtype=np.float64)  # s p^T + (v - s p)^T, the t = 0 terms
    term = rows - rows.sum(axis=-1, keepdims=True) * probs[..., None, :]
    for _ in range(config.POWER_ITER_MAX_STEPS):
        if np.abs(term).sum(axis=-1).max(initial=0.0) <= config.POWER_ITER_TOL:
            return rows
        term = np.matmul(term, chains)
        rows += term
    raise NoUniqueStationary(
        "fundamental series did not converge; the chain is likely periodic or reducible"
    )


def _one_closed_class(entries: np.ndarray) -> bool:
    """Whether the support graph of a chain has exactly one closed class."""
    reach = (entries > 0.0) | np.eye(entries.shape[0], dtype=bool)
    for _ in range(entries.shape[0].bit_length()):  # squaring t times covers 2^t steps
        hops = reach.astype(np.float64)
        reach = hops @ hops > 0.0
    recurrent = np.all(reach <= reach.T, axis=1)
    return bool(np.all(reach[np.ix_(recurrent, recurrent)]))


def stationary(matrix: StochasticMatrix) -> Distribution:
    """Solve ``p^T P = p^T`` with ``sum(p) = 1`` through :func:`stationary_rows`.

    A chain with every entry positive has a unique stationary distribution
    (Perron-Frobenius); any other chain is first checked to have exactly
    one closed class in its support graph.

    Raises
    ------
    NoUniqueStationary
        If the chain has several closed classes (several stationary
        distributions, e.g. the identity chain), or from the solve itself.
    """
    entries = matrix.entries
    if entries.min() <= 0.0 and not _one_closed_class(entries):
        raise NoUniqueStationary("chain has several closed classes; multiple stationary distributions")
    return Distribution(stationary_rows(entries))


def limiting_matrix(matrix: StochasticMatrix) -> np.ndarray:
    """The rank-one limiting matrix ``1 p^T`` (every row is the stationary)."""
    p = stationary(matrix)
    return np.outer(np.ones(matrix.n), p.probs)


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
    if residual > config.FUNDAMENTAL_CHECK_TOL:
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
