"""Weight learning for the combined chain.

The iterative learner alternates two steps. Given current native-form
weights w (summing to 1 - lambda), it computes for every training instance
the stationary p of the current combined chain P and forms the linearization

    p_target(u) - p(u)  ~=  sum_i x(i) * (p^T T_i Z) e_u,   Z = (I - P + 1 p^T)^-1,

of the stationary shift in the weight change x. A context's k rows p^T T_i Z
come from one LU solve of (I - P + 1 p^T)^T with k right-hand sides; the
fundamental matrix Z itself is never formed. It then solves the
box-constrained least-squares subproblem over sum-zero steps

    minimize  sum_instances (residual - x . g)^2
    subject to  -min(eta, w_i) <= x_i <= min(eta, 1 - lambda - w_i),
                sum_i x_i = 0,

and applies the step until its max-norm drops to the halting threshold.
A brute-force grid learner over the weight simplex serves as an oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import config
from .errors import GridBudgetExceeded, ShapeError
from .markov import stationary_rows
from .topology import WeightVector

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs of the iterative learner.

    ``init`` of None means the uniform start ``(1 - lam) / k`` per feature;
    a given :class:`WeightVector` (either normalization) is converted.
    """

    lam: float = config.DEFAULT_LAMBDA
    eta: float = config.DEFAULT_ETA
    halt_eps: float = config.DEFAULT_HALT_EPS
    max_iters: int = config.DEFAULT_MAX_ITERS
    qp_tol: float = config.DEFAULT_QP_TOL
    init: Optional[WeightVector] = None

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if not 0.0 < self.eta <= 1.0 - self.lam:
            raise ValueError("eta must lie in (0, 1 - lam]")
        if self.halt_eps <= 0.0:
            raise ValueError("halt_eps must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.qp_tol <= 0.0:
            raise ValueError("qp_tol must be positive")


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
            if top.item_ids != self.item_ids:
                raise ShapeError("topology items must match the instance items")
        if not 0 <= self.target_index < len(self.item_ids):
            raise ValueError("target_index out of range")
        if not 0.0 <= self.target_prob <= 1.0:
            raise ValueError("target_prob must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.item_ids)

    @property
    def k(self) -> int:
        return len(self.topologies)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of :func:`fit`. ``weights`` is in reporting form."""

    weights: WeightVector
    iterations: int
    final_step_norm: float
    per_iteration_loss: tuple
    per_iteration_error: tuple
    converged: bool


# ---------------------------------------------------------------------------
# Context grouping and batched evaluation.
#
# Instances sharing a topology tuple also share the combined chain, its
# stationary and its gradient rows, so they are evaluated together. Contexts
# of equal size are stacked for the batched stationary kernel and one batched
# LU solve of (I - P + 1 p^T)^T with k right-hand sides, which gives the rows
# p^T T_i Z without forming Z; results match the sequential path to roundoff.
# ---------------------------------------------------------------------------


class _Bucket:
    __slots__ = ("tensor", "gidx", "uidx", "targets", "slots")

    def __init__(self, tensor, gidx, uidx, targets, slots):
        self.tensor = tensor  # (B, k, n, n) stacked topology entries
        self.gidx = gidx      # context index per instance
        self.uidx = uidx      # target item index per instance
        self.targets = targets
        self.slots = slots    # position of each instance in dataset order


def _group_instances(dataset: Sequence[TrainingInstance]):
    k = dataset[0].k
    groups = {}
    order = []
    for slot, inst in enumerate(dataset):
        if inst.k != k:
            raise ShapeError("all instances must share the same number of topologies")
        key = id(inst.topologies)
        entry = groups.get(key)
        if entry is None:
            tensor = np.stack([top.matrix.entries for top in inst.topologies])
            entry = groups[key] = [tensor, [], []]
            order.append(key)
        entry[1].append((inst.target_index, inst.target_prob))
        entry[2].append(slot)
    by_n = {}
    for key in order:
        tensor, targets, slots = groups[key]
        by_n.setdefault(tensor.shape[1], []).append((tensor, targets, slots))
    buckets = []
    for n, entries in by_n.items():
        tensor = np.stack([e[0] for e in entries])
        flat = [(b, u, y, slot) for b, (_, tgt, slt) in enumerate(entries) for (u, y), slot in zip(tgt, slt)]
        gidx, uidx, targets, slots = zip(*flat)
        buckets.append(
            _Bucket(
                tensor,
                np.array(gidx, dtype=np.intp),
                np.array(uidx, dtype=np.intp),
                np.array(targets, dtype=np.float64),
                np.array(slots, dtype=np.intp),
            )
        )
    return k, buckets


def _evaluate_buckets(buckets, w_native: np.ndarray, lam: float, m: int, k: int, gradients: bool):
    """Residuals (and gradient rows) for every instance, in dataset order."""
    residuals = np.empty(m)
    grads = np.empty((m, k)) if gradients else None
    for bucket in buckets:
        b, _, n, _ = bucket.tensor.shape
        chains = lam / n + (w_native @ bucket.tensor.reshape(b, k, n * n)).reshape(b, n, n)
        probs = stationary_rows(chains)
        residuals[bucket.slots] = bucket.targets - probs[bucket.gidx, bucket.uidx]
        if gradients:
            cores = np.eye(n) - chains + probs[:, None, :]
            hit = (probs[:, None, None, :] @ bucket.tensor)[:, :, 0, :]  # p^T T_i, (b, k, n)
            rows = np.linalg.solve(np.swapaxes(cores, -1, -2), np.swapaxes(hit, -1, -2))  # Z^T (p^T T_i)^T
            grads[bucket.slots] = rows[bucket.gidx, bucket.uidx, :]
    return residuals, grads


def linearized_row(
    instance: TrainingInstance,
    weights: WeightVector,
    lam: float = config.DEFAULT_LAMBDA,
) -> Tuple[float, np.ndarray]:
    """Residual and gradient row of one instance at the current weights.

    Returns ``(target - p(u), g)`` where ``g_i = (p^T T_i Z) e_u`` for the
    combined chain at native-form weights. The gradient row is exact: for a
    sum-zero direction ``x`` the directional derivative of ``p(u)`` in the
    weights is ``x . g``. This is the evaluation :func:`fit` runs, applied to
    a one-instance dataset.
    """
    native = weights.as_native(lam).values
    if native.size != instance.k:
        raise ShapeError(f"instance has {instance.k} topologies but {native.size} weights")
    k, buckets = _group_instances([instance])
    residuals, grads = _evaluate_buckets(buckets, native, lam, 1, k, gradients=True)
    return float(residuals[0]), grads[0]


# ---------------------------------------------------------------------------
# Subproblem: least squares over the intersection of a box and sum(x) = 0.
# ---------------------------------------------------------------------------


def _project_box_sum_zero(point: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Euclidean projection onto ``{lower <= x <= upper, sum(x) = 0}``.

    Walks the breakpoints of the piecewise-linear, nonincreasing function
    ``h(mu) = sum(clip(point - mu, lower, upper))`` and solves the crossing
    segment in closed form. Assumes the set is nonempty, which the step
    bounds guarantee (both bounds bracket zero).
    """
    bps = np.unique(np.concatenate([point - upper, point - lower]))
    vals = np.array([np.clip(point - mu, lower, upper).sum() for mu in bps])
    if vals[0] <= 0.0:
        mu = bps[0]
    elif vals[-1] >= 0.0:
        mu = bps[-1]
    else:
        mu = None
        for j in range(len(bps) - 1):
            if vals[j] >= 0.0 >= vals[j + 1]:
                if vals[j + 1] == vals[j]:
                    mu = bps[j]
                else:
                    slope = (vals[j + 1] - vals[j]) / (bps[j + 1] - bps[j])
                    mu = bps[j] - vals[j] / slope
                break
        if mu is None:
            raise AssertionError("projection failed to bracket the crossing")
    out = np.clip(point - mu, lower, upper)
    free = (out > lower) & (out < upper)
    if free.any():
        out[free] -= out.sum() / free.sum()
        out = np.clip(out, lower, upper)
    return out


def _kkt_residual(x, grad, lower, upper):
    return float(np.max(np.abs(_project_box_sum_zero(x - grad, lower, upper) - x)))


def _polish(gram, lin, x, lower, upper, qp_tol):
    """Solve the equality-constrained system on the guessed active set."""
    slack = 1e-9 * max(1.0, float(np.max(upper - lower)))
    at_lower = x - lower <= slack
    at_upper = upper - x <= slack
    free = ~(at_lower | at_upper)
    fixed = np.where(at_upper, upper, lower)
    nf = int(free.sum())
    if nf == 0:
        cand = fixed.copy()
    else:
        idx = np.nonzero(free)[0]
        clamped = np.nonzero(~free)[0]
        system = np.zeros((nf + 1, nf + 1))
        system[:nf, :nf] = 2.0 * gram[np.ix_(idx, idx)]
        system[:nf, nf] = 1.0
        system[nf, :nf] = 1.0
        rhs = np.zeros(nf + 1)
        rhs[:nf] = 2.0 * (lin[idx] - gram[np.ix_(idx, clamped)] @ fixed[clamped])
        rhs[nf] = -fixed[clamped].sum()
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        cand = fixed.copy()
        cand[idx] = sol[:nf]
    if np.any(cand < lower - 1e-12) or np.any(cand > upper + 1e-12):
        return None
    cand = _project_box_sum_zero(cand, lower, upper)
    grad = 2.0 * (gram @ cand - lin)
    if _kkt_residual(cand, grad, lower, upper) <= qp_tol:
        return cand
    return None


def _solve_step_arrays(
    grads: np.ndarray,
    residuals: np.ndarray,
    w_native: np.ndarray,
    cfg: LearnerConfig,
) -> np.ndarray:
    k = w_native.size
    lower = np.minimum(-np.minimum(cfg.eta, w_native), 0.0)
    upper = np.maximum(np.minimum(cfg.eta, 1.0 - cfg.lam - w_native), 0.0)
    gram = grads.T @ grads
    lin = grads.T @ residuals

    def objective(x):
        return float(x @ gram @ x - 2.0 * lin @ x)

    x = np.zeros(k)
    cand = _polish(gram, lin, x, lower, upper, cfg.qp_tol)
    if cand is not None and objective(cand) <= objective(x) + 1e-15:
        return cand
    lip = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    if lip <= 0.0:
        return x
    best_x, best_f = x.copy(), objective(x)
    for it in range(20000):
        grad = 2.0 * (gram @ x - lin)
        if _kkt_residual(x, grad, lower, upper) <= cfg.qp_tol:
            break
        trial = _project_box_sum_zero(x - grad / lip, lower, upper)
        step = trial - x
        curvature = float(step @ gram @ step)
        if curvature > 0.0:
            scale = min(1.0, max(0.0, -float(grad @ step) / (2.0 * curvature)))
            if scale == 0.0:
                scale = 1.0
        else:
            scale = 1.0
        x = x + scale * step
        fx = objective(x)
        if fx < best_f:
            best_f, best_x = fx, x.copy()
        if it % 25 == 24:
            cand = _polish(gram, lin, x, lower, upper, cfg.qp_tol)
            if cand is not None and objective(cand) <= best_f + 1e-15:
                return cand
    cand = _polish(gram, lin, best_x, lower, upper, cfg.qp_tol)
    if cand is not None and objective(cand) <= best_f + 1e-15:
        return cand
    return best_x


def solve_step(
    rows: Sequence[Tuple[float, np.ndarray]],
    weights: WeightVector,
    cfg: Optional[LearnerConfig] = None,
) -> np.ndarray:
    """Minimize the linearized loss over feasible sum-zero steps.

    ``rows`` holds ``(residual, g)`` pairs from :func:`linearized_row`.
    The solution satisfies the box constraints, sums to zero, and meets the
    projected-gradient fixed-point condition within ``cfg.qp_tol``; its
    objective never exceeds the objective at ``x = 0``.
    """
    cfg = cfg or LearnerConfig()
    native = weights.as_native(cfg.lam).values
    if not rows:
        raise ValueError("need at least one row")
    grads = np.vstack([np.asarray(g, dtype=np.float64) for _, g in rows])
    residuals = np.array([r for r, _ in rows], dtype=np.float64)
    if grads.shape[1] != native.size:
        raise ShapeError("gradient rows and weights disagree on k")
    return _solve_step_arrays(grads, residuals, native, cfg)


# ---------------------------------------------------------------------------
# Fitting.
# ---------------------------------------------------------------------------


def fit(
    dataset: Sequence[TrainingInstance],
    cfg: Optional[LearnerConfig] = None,
    on_iteration: Optional[Callable] = None,
) -> FitResult:
    """Learn feature weights by iterated linearization.

    Each iteration evaluates every instance at the current weights, solves
    the constrained least-squares step and applies it; the loop halts when
    the step max-norm drops to ``cfg.halt_eps``. If ``max_iters`` runs out,
    the best iterate by mean absolute residual is returned, flagged
    unconverged. ``on_iteration(iteration, weights_native, mse, mae,
    step_norm)`` is invoked once per iteration when given.
    """
    cfg = cfg or LearnerConfig()
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    k, buckets = _group_instances(dataset)
    lam = cfg.lam
    if cfg.init is None:
        w = np.full(k, (1.0 - lam) / k)
    else:
        if cfg.init.k != k:
            raise ShapeError(f"init has {cfg.init.k} weights but the data has {k} topologies")
        w = cfg.init.as_native(lam).values.copy()
    m = len(dataset)

    losses: List[float] = []
    errors: List[float] = []
    best_err = math.inf
    best_w = w.copy()
    converged = False
    final_step = math.inf
    iterations = 0
    for it in range(cfg.max_iters):
        residuals, grads = _evaluate_buckets(buckets, w, lam, m, k, gradients=True)
        mse = float(np.mean(residuals**2))
        mae = float(np.mean(np.abs(residuals)))
        losses.append(mse)
        errors.append(mae)
        if mae < best_err:
            best_err = mae
            best_w = w.copy()
        x = _solve_step_arrays(grads, residuals, w, cfg)
        final_step = float(np.max(np.abs(x)))
        iterations = it + 1
        if on_iteration is not None:
            on_iteration(it, w.copy(), mse, mae, final_step)
        if final_step <= cfg.halt_eps:
            converged = True
            break
        w = np.clip(w + x, 0.0, 1.0 - lam)
        w *= (1.0 - lam) / w.sum()
    if not converged and cfg.max_iters > 0:
        residuals, _ = _evaluate_buckets(buckets, w, lam, m, k, gradients=False)
        if float(np.mean(np.abs(residuals))) >= best_err:
            w = best_w
        logger.warning("fit stopped unconverged after %d iterations: final step norm %.3e > halt_eps %.3e",
                       iterations, final_step, cfg.halt_eps)
    reporting = WeightVector(w / (1.0 - lam))
    return FitResult(
        weights=reporting,
        iterations=iterations,
        final_step_norm=final_step,
        per_iteration_loss=tuple(losses),
        per_iteration_error=tuple(errors),
        converged=converged,
    )


def sample_error(
    dataset: Sequence[TrainingInstance],
    weights: WeightVector,
    lam: float = config.DEFAULT_LAMBDA,
) -> float:
    """Mean absolute gap between predicted and target stationary probabilities."""
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    k, buckets = _group_instances(dataset)
    native = weights.as_native(lam).values
    if native.size != k:
        raise ShapeError("weights and dataset disagree on k")
    residuals, _ = _evaluate_buckets(buckets, native, lam, len(dataset), k, gradients=False)
    return float(np.mean(np.abs(residuals)))


def _compositions(total: int, parts: int):
    """Nonnegative integer compositions in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def grid_search(
    dataset: Sequence[TrainingInstance],
    grid_step: float,
    lam: float = config.DEFAULT_LAMBDA,
    max_points: int = config.GRID_POINT_CAP,
) -> WeightVector:
    """Brute-force minimizer of the sample error over an epsilon-grid.

    Enumerates every reporting-form weight vector whose coordinates are
    multiples of ``grid_step`` summing to 1 (``grid_step`` must divide 1)
    and returns the one with the smallest mean absolute stationary gap.
    Ties keep the lexicographically smallest vector. Raises
    ``GridBudgetExceeded`` when the grid would exceed ``max_points``.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid_step must lie in (0, 1]")
    steps = round(1.0 / grid_step)
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must divide 1")
    k, buckets = _group_instances(dataset)
    count = math.comb(steps + k - 1, k - 1)
    if count > max_points:
        raise GridBudgetExceeded(
            f"grid needs {count} points but the cap is {max_points}",
            required=count,
            cap=max_points,
        )
    m = len(dataset)
    best_err = math.inf
    best = None
    for comp in _compositions(steps, k):
        reporting = np.array(comp, dtype=np.float64) * grid_step
        native = reporting * (1.0 - lam)
        residuals, _ = _evaluate_buckets(buckets, native, lam, m, k, gradients=False)
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
