"""Score-based baselines: regularized least squares on raw feature values.

The linear model predicts an item's click-through rate from its own feature
vector, independent of which other items surround it. Features are
standardized before solving; the returned coefficients are folded back to
raw feature units so prediction is a plain affine map.
The context-oblivious ``train_ctr`` baseline, ``rsm.evaluation.true_ctr_model``,
averages the CTRs of the rows' ``rsm.record.ContextRecord`` per (query, item).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .errors import ShapeError

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class FeatureRow:
    """One (query, item) observation with its feature vector and CTR."""

    query_id: str
    item_id: str
    features: np.ndarray
    ctr: float

    def __post_init__(self):
        arr = np.array(self.features, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError("features must be a 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("features must be finite")
        if not 0.0 <= self.ctr <= 1.0:
            raise ValueError("ctr must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "features", arr)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Affine CTR predictor in raw feature units.

    ``used_ridge`` flags that the design was rank deficient and a small
    ridge term (tau = config.RIDGE_TAU) produced the coefficients.
    """

    coefficients: np.ndarray
    intercept: float
    used_ridge: bool = False

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError("coefficients must be a 1-d vector")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    @property
    def k(self) -> int:
        return self.coefficients.size


def fit_least_squares(rows: Sequence[FeatureRow]) -> LinearModel:
    """Least-squares CTR regression on :class:`FeatureRow` observations.

    Stacks the rows and fits with :func:`fit_least_squares_arrays`.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one row")
    k = rows[0].features.size
    for row in rows:
        if row.features.size != k:
            raise ShapeError("all rows must share the same feature arity")
    return fit_least_squares_arrays(np.vstack([row.features for row in rows]), np.array([row.ctr for row in rows]))


def fit_least_squares_arrays(design: np.ndarray, target: np.ndarray) -> LinearModel:
    """Least-squares CTR regression with standardization, on an ``(m, k)`` design and ``(m,)`` targets.

    Features are centered and scaled to unit variance (constant columns are
    left centered only), the intercept absorbs the target mean, and the
    solution is folded back to raw units. A rank-deficient design falls back
    to ridge with ``tau = config.RIDGE_TAU``, flags the result and logs a warning.
    """
    design = np.asarray(design, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if design.ndim != 2 or target.shape != design.shape[:1]:
        raise ShapeError(f"need an (m, k) design and m targets, got {design.shape} and {target.shape}")
    m, k = design.shape
    if m == 0:
        raise ValueError("need at least one row")
    if m < k + 1:
        raise ValueError(f"need at least {k + 1} rows to fit {k} coefficients")
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
        raise ValueError("features and targets must be finite")
    mean = design.mean(axis=0)
    scale = design.std(axis=0)
    scale[scale == 0.0] = 1.0
    standardized = (design - mean) / scale
    target_mean = target.mean()
    centered = target - target_mean
    sol, _, rank, _ = np.linalg.lstsq(standardized, centered, rcond=None)
    used_ridge = False
    if rank < k:
        log.warning("least-squares design has rank %d of %d; fitting ridge, RIDGE_TAU = %g", rank, k, config.RIDGE_TAU)
        gram = standardized.T @ standardized + config.RIDGE_TAU * np.eye(k)
        sol = np.linalg.solve(gram, standardized.T @ centered)
        used_ridge = True
    coefficients = sol / scale
    intercept = target_mean - float(coefficients @ mean)
    return LinearModel(coefficients=coefficients, intercept=intercept, used_ridge=used_ridge)


def predict(model: LinearModel, row: FeatureRow) -> float:
    """Predicted score for one row. No clamping; scores may leave [0, 1]."""
    if row.features.size != model.k:
        raise ShapeError(f"row has {row.features.size} features, model expects {model.k}")
    return float(model.intercept + model.coefficients @ row.features)
