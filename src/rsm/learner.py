"""Weight learning for the combined chain.

The iterative learner alternates two steps. Given current native-form
weights w (summing to 1 - lambda), it computes for every training target
the stationary p of its context's combined chain P and forms the
linearization

    p_target(u) - p(u)  ~=  sum_i x(i) * (p^T T_i Z) e_u,   Z = (I - P + 1 p^T)^-1,

of the stationary shift in the weight change x. Every chain it fits is a
mixture of rank chains, each of rank two, so a context's stationary p and its
k rows p^T T_i Z lie in the span of its k rank vectors and the ones vector;
``rsm.markov.rank_chain_rows`` finds them there with one system matrix
k + 1 wide, and neither Z nor P itself is ever formed. It then solves the
box-constrained least-squares subproblem over sum-zero steps

    minimize  sum_targets (residual - x . g)^2
    subject to  -min(eta, w_i) <= x_i <= min(eta, 1 - lambda - w_i),
                sum_i x_i = 0,

exactly, by a primal active-set method on its k x k normal equations, and
applies the step until its max-norm drops to the halting threshold.

The learner reads its data as a :class:`ContextBatch`: one
``rsm.markov.RankSpace`` holding the average ranks of contexts of every width
with their weight-free products, and each target's probability and place in
the kernel's flat outputs, in dataset order, so every evaluation is one kernel
call and one ``take`` per output. ``rsm.data.batch_from_rows`` gathers
click-log rows' space from their ``ContextRecord``; ``rsm.data.load_instances``
and :func:`as_batch` build theirs with :meth:`ContextBatch.from_targets`, from
per-context ranks and per-target arrays. A brute-force grid learner over the
weight simplex serves as an oracle.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import config
from .errors import GridBudgetExceeded, ShapeError
from .markov import RankSpace, context_space, rank_chain_rows
from .topology import WeightVector

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class LearnerConfig:
    """Knobs of the iterative learner; every fit starts at the uniform ``(1 - lam) / k``."""

    lam: float = config.DEFAULT_LAMBDA
    eta: float = config.DEFAULT_ETA
    halt_eps: float = config.DEFAULT_HALT_EPS
    max_iters: int = config.DEFAULT_MAX_ITERS

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if not 0.0 < self.eta <= 1.0 - self.lam:
            raise ValueError("eta must lie in (0, 1 - lam]")
        if self.halt_eps <= 0.0:
            raise ValueError("halt_eps must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True, eq=False)
class TrainingInstance:
    """One labeled item within one context.

    ``target_prob`` is the desired stationary probability of the item at
    ``target_index`` under the context's combined chain.
    """

    query_id: str
    item_ids: tuple
    topologies: tuple
    target_index: int
    target_prob: float

    def __post_init__(self):
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        object.__setattr__(self, "topologies", tuple(self.topologies))
        if not self.topologies:
            raise ValueError("an instance needs at least one topology")
        for top in self.topologies:
            if top.item_ids is not self.item_ids and top.item_ids != self.item_ids:
                raise ShapeError("topology items must match the instance items")
        if not 0 <= operator.index(self.target_index) < len(self.item_ids):  # TypeError unless an integer
            raise ValueError("target_index out of range")
        if not 0.0 <= self.target_prob <= 1.0:
            raise ValueError("target_prob must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.item_ids)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of :func:`fit`. ``weights`` is in reporting form.

    Iteration ``i`` evaluated the mean squared and mean absolute residual
    ``per_iteration_loss[i]`` and ``per_iteration_error[i]`` and took a step
    of max-norm ``per_iteration_step[i]``. ``qp_steps`` counts the
    active-set steps of all step subproblems and ``max_kkt_residual`` is the
    largest KKT residual a step ended with.
    """

    weights: WeightVector
    per_iteration_loss: tuple
    per_iteration_error: tuple
    per_iteration_step: tuple
    converged: bool
    qp_steps: int
    max_kkt_residual: float

    @property
    def iterations(self) -> int:
        return len(self.per_iteration_loss)

    @property
    def final_step_norm(self) -> float:
        """The last step's max-norm; ``inf`` when no iteration ran."""
        return self.per_iteration_step[-1] if self.per_iteration_step else math.inf


# ---------------------------------------------------------------------------
# The context batch and its batched evaluation.
#
# Targets of one context share the combined chain, its stationary and its
# gradient rows, so they are evaluated together. Every chain the learner sees
# is a mixture of rank chains, so a context is its (k, n) average ranks. The
# contexts of every width and their weight-free products form one
# rsm.markov.RankSpace, built once per batch or gathered by index from an
# rsm.record.ContextRecord that built it once. Each evaluation is one call of
# rsm.markov.rank_chain_rows, which solves every context in the (k + 1)-
# dimensional span of its ranks and never forms an n x n matrix.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ContextBatch:
    """Training targets over one ``RankSpace``; ``len(batch)`` counts targets.

    ``targets`` holds each target's probability and ``at`` its place in the
    flat outputs of ``rank_chain_rows`` on ``space``, both in dataset order.
    Build one with :meth:`from_targets` or ``rsm.data.batch_from_rows``.
    """

    k: int
    space: RankSpace
    targets: np.ndarray
    at: np.ndarray

    def __len__(self) -> int:
        return self.targets.size

    @classmethod
    def from_targets(cls, ranks: Sequence[np.ndarray], context: np.ndarray, index: np.ndarray, prob: np.ndarray) -> "ContextBatch":
        """Target ``i``: ``prob[i]`` at item ``index[i]`` of the context with ``(k, n)`` ranks ``ranks[context[i]]``.

        Callers validate: every context has the same ``k``, every target's
        context and index are in range.
        """
        space, starts = context_space(ranks)
        return cls(ranks[0].shape[0] if ranks else 0, space, prob, starts[context] + index)


Data = Union[ContextBatch, Sequence[TrainingInstance]]


def group_instances(instances: Sequence[TrainingInstance]) -> tuple:
    """Per context, its first instance and ``(k, n)`` ranks; per instance, its context, target index and probability.

    Instances holding equal topology tuples form one context, numbered in
    order of first appearance, in a few array passes and one Python step per
    context. A topology enters as its :attr:`~rsm.topology.Topology.ranks`,
    so one that is not a rank chain raises ``ValueError`` naming its feature.
    """
    m = len(instances)
    groups = {}  # topology tuple -> slot of its first instance
    first = np.fromiter(map(groups.setdefault, map(operator.attrgetter("topologies"), instances), itertools.count()), np.intp, m)
    if len(set(map(len, groups))) > 1:
        raise ShapeError("all instances must share the same number of topologies")
    heads, context = np.unique(first, return_inverse=True)
    index = np.fromiter(map(operator.attrgetter("target_index"), instances), np.intp, m)
    prob = np.fromiter(map(operator.attrgetter("target_prob"), instances), np.float64, m)
    ranks = [np.array([top.ranks for top in tops]) for tops in groups]
    return [instances[h] for h in heads.tolist()], ranks, context, index, prob


def as_batch(data: Data) -> ContextBatch:
    """``data`` itself if it is a batch, else the batch of an instance sequence's :func:`group_instances`, regrouped
    on every call: code that fits or evaluates one instance list repeatedly passes ``as_batch(instances)`` once."""
    return data if isinstance(data, ContextBatch) else ContextBatch.from_targets(*group_instances(data)[1:])


def _evaluate(batch: ContextBatch, w_native: np.ndarray, lam: float, gradients: bool):
    """Residuals (and gradient rows) for every target, in dataset order, from one kernel call."""
    probs, rows = rank_chain_rows(batch.space, w_native, lam, gradients)  # (N,) and p^T T_i Z as (N, k)
    return batch.targets - probs.take(batch.at), rows.take(batch.at, axis=0) if gradients else None


def linearized_row(
    data: Union[TrainingInstance, Data], weights: WeightVector, lam: float = config.DEFAULT_LAMBDA
):
    """Residuals and gradient rows at the current weights.

    For one instance returns ``(target - p(u), g)`` where
    ``g_i = (p^T T_i Z) e_u`` for the combined chain at native-form weights.
    For a batch or an instance sequence returns the ``(m,)`` residuals and
    ``(m, k)`` rows in dataset order. The rows are exact: for a sum-zero
    direction ``x`` the directional derivative of ``p(u)`` in the weights is
    ``x . g``. This is the evaluation :func:`fit` runs.
    """
    single = isinstance(data, TrainingInstance)
    batch = as_batch([data] if single else data)
    native = weights.as_native(lam).values
    if native.size != batch.k:
        raise ShapeError(f"data has {batch.k} topologies but {native.size} weights")
    residuals, grads = _evaluate(batch, native, lam, gradients=True)
    if single:
        return float(residuals[0]), grads[0]
    return residuals, grads


# ---------------------------------------------------------------------------
# Subproblem: least squares over the intersection of a box and sum(x) = 0.
#
# With gram = G^T G and lin = G^T r the objective is x.gram.x - 2 lin.x. The
# primal active-set method (Nocedal & Wright, Numerical Optimization, 16.5)
# starts at the feasible x = 0 with no bound held. Each step solves for the
# minimizer with the held bounds fixed and sum(x) = 0, by one lstsq in a
# Householder basis of the free sum-zero directions. A duplicated feature's
# direction has only the Gram block's roundoff for curvature, about eps
# times its trace, which can pass a cut relative to the reduced Hessian when
# the free gradients move together; so the cut is nf eps times that trace,
# and lstsq returns the minimizer of least norm, nearest the centre. If the
# way there leaves the box, the step stops at the first bound and holds it.
# At the minimizer, the held bound whose multiplier has the wrong sign by
# more than config.QP_TOL is released; if there is none, x is optimal. The
# KKT residual is the largest violation of stationarity (free coordinates)
# or of a multiplier's sign (held ones).
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _basis(nf: int) -> np.ndarray:
    """Columns 2..nf of the Householder reflection that maps the ones vector onto e_1, built once per size; read-only."""
    root = math.sqrt(nf)
    basis = np.vstack([np.full(nf - 1, -1.0 / root), np.eye(nf - 1) - 1.0 / (root * (root + 1.0))])
    basis.flags.writeable = False
    return basis


def _free_minimizer(gram, lin, x, free):
    """Minimizer with the held coordinates fixed and sum(x) = 0.

    The free coordinates move from their centre (equal values, sum zero) in
    an orthonormal basis of the sum-zero directions. A singular reduced
    Hessian still gives a minimizer, since ``lin`` lies in the range of
    ``gram``; ``lstsq`` returns the one nearest the centre. Its ``rcond`` is
    relative to the largest singular value, at most ``size``, so it cuts in
    ``[cut / sqrt(nf - 1), cut]``; a Hessian of norm ``<= cut`` moves nothing.
    """
    idx = np.flatnonzero(free)
    nf = idx.size
    out = x.copy()
    out[idx] = -x[~free].sum() / nf
    if nf == 1:
        return out
    basis = _basis(nf)
    sub = gram if nf == gram.shape[0] else gram[np.ix_(idx, idx)]
    hessian = basis.T @ sub @ basis
    size = np.linalg.norm(hessian)
    cut = nf * np.finfo(np.float64).eps * np.trace(sub)
    if size > cut:
        slope = basis.T @ (gram @ out - lin)[idx]
        out[idx] -= basis @ np.linalg.lstsq(hessian, slope, rcond=cut / size)[0]
    return out


def _solve_step_arrays(
    grads: np.ndarray,
    residuals: np.ndarray,
    w_native: np.ndarray,
    cfg: LearnerConfig,
) -> Tuple[np.ndarray, int, float]:
    """The exact step, the active-set steps it took and its KKT residual."""
    k = w_native.size
    lower = np.minimum(-np.minimum(cfg.eta, w_native), 0.0)
    upper = np.maximum(np.minimum(cfg.eta, 1.0 - cfg.lam - w_native), 0.0)
    gram = grads.T @ grads
    lin = grads.T @ residuals
    x = np.zeros(k)
    held = np.zeros(k)  # -1 held at the lower bound, +1 at the upper, 0 free
    # The objective drops strictly between two visits of a minimizer, so each
    # of the 3^k working sets is visited at most once, after at most k - 1
    # bound hits; more steps than that means roundoff is cycling.
    cap = k * 3**k
    for steps in range(1, cap + 1):
        free = held == 0.0
        target = _free_minimizer(gram, lin, x, free)
        move = target - x
        if np.count_nonzero(free) > 1:
            room = np.full(k, np.inf)
            down, up = move < 0.0, move > 0.0
            room[down] = (lower - x)[down] / move[down]
            room[up] = (upper - x)[up] / move[up]
            j = int(np.argmin(room))
            if room[j] < 1.0:
                x = x + max(room[j], 0.0) * move
                x[j] = lower[j] if down[j] else upper[j]
                held[j] = -1.0 if down[j] else 1.0
                continue
        x = target
        grad = 2.0 * (gram @ x - lin)
        wrong = held * (grad - grad[free].mean())  # > 0 where a multiplier has the wrong sign
        j = int(np.argmax(wrong))
        if wrong[j] <= config.QP_TOL:
            break
        held[j] = 0.0
    else:
        logger.warning("step QP hit its cap of %d active-set steps", cap)
    free = held == 0.0
    slack = 2.0 * (gram @ x - lin)
    slack -= slack[free].mean()  # gradient plus the sum constraint's multiplier
    residual = float(np.max(np.where(free, np.abs(slack), held * slack)))
    if not residual <= config.QP_TOL:
        logger.warning("step QP ended with KKT residual %.3e > QP_TOL %.3e", residual, config.QP_TOL)
    return x, steps, residual


# ---------------------------------------------------------------------------
# Fitting.
# ---------------------------------------------------------------------------


def _nonempty_batch(data: Data) -> ContextBatch:
    batch = as_batch(data)
    if not len(batch):
        raise ValueError("dataset must be nonempty")
    return batch


def fit(data: Data, cfg: Optional[LearnerConfig] = None) -> FitResult:
    """Learn feature weights by iterated linearization.

    ``data`` is a :class:`ContextBatch` or a :class:`TrainingInstance`
    sequence, which is regrouped into a batch on every call: repeated fits
    pass :func:`as_batch` of it once. Starting from the uniform weights, each
    iteration evaluates every target at the current weights, solves the
    constrained least-squares step and applies it; the loop halts when the
    step max-norm drops to ``cfg.halt_eps``. If ``max_iters`` runs out, the
    best iterate by mean absolute residual is returned, flagged unconverged.
    The result carries every iteration's mean squared and mean absolute
    residual and step max-norm.
    """
    cfg = cfg or LearnerConfig()
    batch = _nonempty_batch(data)
    k, lam = batch.k, cfg.lam
    w = np.full(k, (1.0 - lam) / k)

    losses: List[float] = []
    errors: List[float] = []
    step_norms: List[float] = []
    best_err = math.inf
    best_w = w.copy()
    converged = False
    qp_steps = 0
    max_kkt = 0.0
    for _ in range(cfg.max_iters):
        residuals, grads = _evaluate(batch, w, lam, gradients=True)
        mae = float(np.mean(np.abs(residuals)))
        losses.append(float(np.mean(residuals**2)))
        errors.append(mae)
        if mae < best_err:
            best_err = mae
            best_w = w.copy()
        x, steps, kkt = _solve_step_arrays(grads, residuals, w, cfg)
        qp_steps += steps
        max_kkt = max(max_kkt, kkt)
        step_norms.append(float(np.max(np.abs(x))))
        if step_norms[-1] <= cfg.halt_eps:
            converged = True
            break
        w = np.clip(w + x, 0.0, 1.0 - lam)
        w *= (1.0 - lam) / w.sum()
    if not converged:
        residuals, _ = _evaluate(batch, w, lam, gradients=False)
        if float(np.mean(np.abs(residuals))) >= best_err:
            w = best_w
        logger.warning("fit stopped unconverged after %d iterations: final step norm %.3e > halt_eps %.3e",
                       len(step_norms), step_norms[-1] if step_norms else math.inf, cfg.halt_eps)
    return FitResult(
        weights=WeightVector(w / (1.0 - lam)),
        per_iteration_loss=tuple(losses),
        per_iteration_error=tuple(errors),
        per_iteration_step=tuple(step_norms),
        converged=converged,
        qp_steps=qp_steps,
        max_kkt_residual=max_kkt,
    )


def sample_error(
    data: Data,
    weights: WeightVector,
    lam: float = config.DEFAULT_LAMBDA,
) -> float:
    """Mean absolute gap between predicted and target stationary probabilities."""
    batch = _nonempty_batch(data)
    native = weights.as_native(lam).values
    if native.size != batch.k:
        raise ShapeError("weights and dataset disagree on k")
    residuals, _ = _evaluate(batch, native, lam, gradients=False)
    return float(np.mean(np.abs(residuals)))


def _compositions(total: int, parts: int):
    """Nonnegative integer compositions in ascending lexicographic order.

    By stars and bars: the gaps around ``parts - 1`` bars placed among
    ``total + parts - 1`` slots, bar placements taken in lexicographic order.
    """
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        edges = (-1,) + bars + (end,)
        yield tuple(right - left - 1 for left, right in zip(edges, edges[1:]))


def grid_steps(grid_step: float, lam: float) -> int:
    """The option checks of :func:`grid_search`, which need no data: its grid's steps per unit, ``1 / grid_step``,
    or a ``ValueError`` unless ``lam`` lies in (0, 1) and ``grid_step`` in (0, 1] divides 1."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid_step must lie in (0, 1]")
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must divide 1")
    return steps


def grid_search(
    data: Data,
    grid_step: float,
    lam: float = config.DEFAULT_LAMBDA,
) -> WeightVector:
    """Brute-force minimizer of the sample error over an epsilon-grid.

    Enumerates every reporting-form weight vector whose coordinates are
    multiples of ``grid_step`` summing to 1 (``grid_step`` must divide 1)
    and returns the one with the smallest mean absolute stationary gap.
    Ties keep the lexicographically smallest vector. Raises
    ``GridBudgetExceeded`` when the grid would exceed ``config.GRID_POINT_CAP`` points.
    """
    batch = _nonempty_batch(data)
    steps = grid_steps(grid_step, lam)
    k = batch.k
    count = math.comb(steps + k - 1, k - 1)
    if count > config.GRID_POINT_CAP:
        raise GridBudgetExceeded(
            f"grid needs {count} points but the cap is {config.GRID_POINT_CAP}",
            required=count,
            cap=config.GRID_POINT_CAP,
        )
    best_err = math.inf
    best = None
    for comp in _compositions(steps, k):
        reporting = np.array(comp, dtype=np.float64) * grid_step
        native = reporting * (1.0 - lam)
        residuals, _ = _evaluate(batch, native, lam, gradients=False)
        err = float(np.mean(np.abs(residuals)))
        if err < best_err:
            best_err = err
            best = reporting
    return WeightVector(best / best.sum())


def sample_bound(k: int, eps: float, delta: float, lam: float = config.DEFAULT_LAMBDA) -> int:
    """Sample count sufficient for the grid learner's generalization guarantee.

    ``ceil((k / eps^2) * ln(k / (lam * eps * delta)))`` with constant 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    return math.ceil((k / eps**2) * math.log(k / (lam * eps * delta)))
