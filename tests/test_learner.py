"""Iterative weight learning, the boxed step subproblem, and the grid oracle."""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from rsm import (
    GridBudgetExceeded,
    LearnerConfig,
    LogRow,
    ShapeError,
    StochasticMatrix,
    SyntheticSpec,
    TrainingInstance,
    WeightVector,
    batch_from_rows,
    combine,
    config,
    encode_rank_topology,
    fit,
    fundamental_matrix,
    generate_synthetic,
    grid_search,
    linearized_row,
    restrict,
    sample_bound,
    sample_error,
    stationary,
    training_instances_from_rows,
)
import rsm.learner
from rsm.learner import ContextBatch, as_batch
from rsm.markov import rank_chain_rows, rank_space

from conftest import noise_free_instances, random_reporting_weights, random_topologies


def stationary_at_native(instance, native, lam):
    """Independent pipeline: build the mixed chain by hand, solve, index."""
    n = instance.n
    mix = np.zeros((n, n))
    for w, top in zip(native, instance.topologies):
        mix += w * top.matrix.entries
    total = lam / n + mix
    # rows may sum to 1 +- h during finite differencing; renormalization
    # is NOT applied, the probe directions keep the sum exact instead
    probs = stationary(StochasticMatrix(total)).probs
    return float(probs[instance.target_index])


class TestLinearizedRow:
    def test_zero_residual_at_optimum(self):
        rng = np.random.default_rng(101)
        weights = random_reporting_weights(rng, 3)
        data = noise_free_instances(rng, 8, 5, 3, weights, 0.15)
        for inst in data:
            residual, _ = linearized_row(inst, weights, 0.15)
            assert abs(residual) < 1e-10

    def test_gradient_matches_directional_differences(self):
        """g . d equals the central difference of p(u) along sum-zero d."""
        rng = np.random.default_rng(55)
        h = 1e-6
        for _ in range(40):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(2, 5))
            weights = random_reporting_weights(rng, k)
            data = noise_free_instances(rng, 1, n, k, weights, 0.15)
            inst = data[int(rng.integers(0, len(data)))]
            _, grad = linearized_row(inst, weights, 0.15)
            native = weights.as_native(0.15).values
            d = rng.standard_normal(k)
            d -= d.mean()
            scale = min(1.0, 0.5 * float(np.min(native)) / (np.max(np.abs(d)) + 1e-12))
            d *= scale
            up = stationary_at_native(inst, native + h * d, 0.15)
            down = stationary_at_native(inst, native - h * d, 0.15)
            fd = (up - down) / (2.0 * h)
            analytic = float(grad @ d)
            # an item pinned at a constant p(u), such as a middle-ranked item
            # of three, has a zero row, so the floor must sit above the
            # finite-difference noise, not at it
            denom = max(abs(fd), abs(analytic), 1e-6)
            assert abs(fd - analytic) / denom < 1e-4

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_rows_match_fundamental_matrix_oracle(self, n):
        """g_i = p^T T_i Z e_u with Z inverted by fundamental_matrix, both solver paths."""
        rng = np.random.default_rng(600 + n)
        weights = random_reporting_weights(rng, 3)
        topologies = random_topologies(rng, n, 3)
        items = topologies[0].item_ids
        fm = fundamental_matrix(combine(topologies, weights, 0.15))
        p = fm.stationary.probs
        for u in sorted({0, n // 2, n - 1}):
            inst = TrainingInstance("q", items, topologies, u, 0.5)
            residual, grad = linearized_row(inst, weights, 0.15)
            expected = np.array([p @ top.matrix.entries @ fm.z[:, u] for top in topologies])
            assert residual == pytest.approx(0.5 - p[u], abs=1e-12)
            assert np.max(np.abs(grad - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_topology_over_other_items_is_refused(self):
        rng = np.random.default_rng(415)
        topologies = random_topologies(rng, 4, 2)
        others = ("a", "b", "c", "d")
        with pytest.raises(ShapeError, match="topology items must match the instance items"):
            TrainingInstance("q", others, topologies, 0, 0.25)
        same = TrainingInstance("q", list(topologies[0].item_ids), topologies, 0, 0.25)  # equal, not identical
        assert same.item_ids == topologies[0].item_ids

    def test_fractional_target_index_is_refused(self):
        topologies = random_topologies(np.random.default_rng(416), 4, 2)
        with pytest.raises(TypeError):
            TrainingInstance("q", topologies[0].item_ids, topologies, 1.5, 0.25)
        assert TrainingInstance("q", topologies[0].item_ids, topologies, np.int64(1), 0.25).target_index == 1

    def test_weight_arity_guard(self):
        rng = np.random.default_rng(2)
        data = noise_free_instances(rng, 1, 4, 2, random_reporting_weights(rng, 2), 0.15)
        with pytest.raises(ShapeError):
            linearized_row(data[0], WeightVector(np.array([1.0])), 0.15)


def closed_form_step_k2(rows, w_native, lam, eta):
    """k=2 oracle: the step is (t, -t); scalar least squares, clipped."""
    d = np.array([g[0] - g[1] for _, g in rows])
    r = np.array([r for r, _ in rows])
    denom = float(d @ d)
    t = float(r @ d) / denom if denom > 0 else 0.0
    t_lo = max(-min(eta, w_native[0]), -min(eta, 1.0 - lam - w_native[1]))
    t_hi = min(min(eta, 1.0 - lam - w_native[0]), min(eta, w_native[1]))
    t = min(max(t, t_lo), t_hi)
    return np.array([t, -t])


# ---------------------------------------------------------------------------
# Oracle: the projected-gradient step solver that the active-set method
# replaced, kept verbatim as an independent reference.
# ---------------------------------------------------------------------------


def oracle_project(point, lower, upper):
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


def oracle_kkt_residual(x, grad, lower, upper):
    return float(np.max(np.abs(oracle_project(x - grad, lower, upper) - x)))


def oracle_polish(gram, lin, x, lower, upper, qp_tol):
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
    cand = oracle_project(cand, lower, upper)
    grad = 2.0 * (gram @ cand - lin)
    if oracle_kkt_residual(cand, grad, lower, upper) <= qp_tol:
        return cand
    return None


def oracle_solve_step(grads, residuals, w_native, cfg):
    """The projected-gradient solver with periodic active-set polishing."""
    k = w_native.size
    lower = np.minimum(-np.minimum(cfg.eta, w_native), 0.0)
    upper = np.maximum(np.minimum(cfg.eta, 1.0 - cfg.lam - w_native), 0.0)
    gram = grads.T @ grads
    lin = grads.T @ residuals

    def objective(x):
        return float(x @ gram @ x - 2.0 * lin @ x)

    x = np.zeros(k)
    cand = oracle_polish(gram, lin, x, lower, upper, config.QP_TOL)
    if cand is not None and objective(cand) <= objective(x) + 1e-15:
        return cand
    lip = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    if lip <= 0.0:
        return x
    best_x, best_f = x.copy(), objective(x)
    for it in range(20000):
        grad = 2.0 * (gram @ x - lin)
        if oracle_kkt_residual(x, grad, lower, upper) <= config.QP_TOL:
            break
        trial = oracle_project(x - grad / lip, lower, upper)
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
            cand = oracle_polish(gram, lin, x, lower, upper, config.QP_TOL)
            if cand is not None and objective(cand) <= best_f + 1e-15:
                return cand
    cand = oracle_polish(gram, lin, best_x, lower, upper, config.QP_TOL)
    if cand is not None and objective(cand) <= best_f + 1e-15:
        return cand
    return best_x


class TestProjection:
    """The oracle's projection, which the step properties measure KKT residuals with."""

    def test_against_root_finding_oracle(self):
        """Projection matches the mu found by brentq on h(mu) = sum(clip)."""
        rng = np.random.default_rng(77)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            lower = -rng.random(k) * 0.2
            upper = rng.random(k) * 0.2
            point = rng.standard_normal(k) * 0.3
            got = oracle_project(point, lower, upper)
            assert np.all(got >= lower - 1e-12)
            assert np.all(got <= upper + 1e-12)
            assert abs(got.sum()) < 1e-12

            def h(mu):
                return float(np.clip(point - mu, lower, upper).sum())

            lo, hi = float(np.min(point - upper)) - 1.0, float(np.max(point - lower)) + 1.0
            if h(lo) <= 0.0:
                expected = np.clip(point - lo, lower, upper)
            elif h(hi) >= 0.0:
                expected = np.clip(point - hi, lower, upper)
            else:
                mu = brentq(h, lo, hi, xtol=1e-14)
                expected = np.clip(point - mu, lower, upper)
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_idempotent_on_feasible_points(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            lower = np.full(k, -0.5)
            upper = np.full(k, 0.5)
            x = rng.uniform(-0.4, 0.4, k)
            x -= x.mean()
            assert np.max(np.abs(oracle_project(x, lower, upper) - x)) < 1e-12


def step_box(w_native, cfg):
    lower = np.minimum(-np.minimum(cfg.eta, w_native), 0.0)
    upper = np.maximum(np.minimum(cfg.eta, 1.0 - cfg.lam - w_native), 0.0)
    return lower, upper


def step_problem(k, m, kind, corner, lam, eta, seed):
    """A step subproblem; ``kind`` shapes the Gram matrix, ``corner`` the box."""
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal((m, k)) * rng.uniform(0.01, 5.0)
    if kind == "duplicate" and k >= 2:
        i, j = rng.choice(k, 2, replace=False)
        grads[:, j] = grads[:, i]
    elif kind == "zero":
        grads[:] = 0.0
    residuals = rng.standard_normal(m)
    raw = rng.random(k) + 0.01
    if corner == "zero" and k >= 2:
        raw[rng.integers(k)] = 0.0  # w_i = 0: the lower bound is 0
    elif corner == "full":
        raw = np.zeros(k)
        raw[rng.integers(k)] = 1.0  # w_i = 1 - lam: the upper bound is 0
    w_native = raw / raw.sum() * (1.0 - lam)
    return grads, residuals, w_native, LearnerConfig(lam=lam, eta=min(eta, 1.0 - lam))


class TestActiveSetStep:
    @settings(max_examples=500, deadline=None)
    @given(
        k=st.integers(1, 6),
        m=st.integers(1, 10),
        kind=st.sampled_from(["random", "duplicate", "zero"]),
        corner=st.sampled_from(["interior", "zero", "full"]),
        lam=st.sampled_from([0.01, 0.15, 0.95]),
        eta=st.sampled_from([0.05, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_step_properties(self, k, m, kind, corner, lam, eta, seed):
        """Feasible, KKT within QP_TOL, no worse than the oracle or than x = 0."""
        grads, residuals, w_native, cfg = step_problem(k, m, kind, corner, lam, eta, seed)
        x, steps, residual = rsm.learner._solve_step_arrays(grads, residuals, w_native, cfg)
        lower, upper = step_box(w_native, cfg)
        assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
        assert abs(x.sum()) <= 1e-12
        gram, lin = grads.T @ grads, grads.T @ residuals
        assert oracle_kkt_residual(x, 2.0 * (gram @ x - lin), lower, upper) <= config.QP_TOL
        assert residual <= config.QP_TOL
        assert 1 <= steps <= k * 3**k

        def objective(v):
            return float(v @ gram @ v - 2.0 * lin @ v)

        f_oracle = objective(oracle_solve_step(grads, residuals, w_native, cfg))
        assert objective(x) <= f_oracle + 1e-12 * max(1.0, abs(f_oracle))
        assert objective(x) <= 1e-12 * max(1.0, abs(objective(x)))  # x = 0 scores 0
        if k == 1:
            assert np.array_equal(x, [0.0])

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_zero_gram_gives_zero_step(self, k):
        grads, residuals, w_native, cfg = step_problem(k, 4, "zero", "interior", 0.15, 0.05, 3)
        x, steps, residual = rsm.learner._solve_step_arrays(grads, residuals, w_native, cfg)
        assert np.array_equal(x, np.zeros(k))
        assert steps == 1 and residual == 0.0

    def test_duplicated_columns_share_the_step_equally(self):
        """A singular Gram matrix gets the minimizer nearest the centre, not a roundoff one."""
        rng = np.random.default_rng(410)
        for _ in range(50):
            grads = rng.standard_normal((8, 3))
            grads[:, 2] = grads[:, 1]
            residuals = rng.standard_normal(8) * 0.01
            cfg = LearnerConfig(eta=0.85)
            x, _, residual = rsm.learner._solve_step_arrays(grads, residuals, np.full(3, 0.85 / 3), cfg)
            assert abs(x[1] - x[2]) <= 1e-12 and residual <= config.QP_TOL

    def test_roundoff_curvature_under_a_common_component_is_cut(self):
        """Columns equal up to 1e-15 that share a large component with every other column: the reduced
        Hessian's largest singular value is small, so only a cut on the Gram block's scale drops their direction."""
        rng = np.random.default_rng(411)
        for _ in range(50):
            grads = rng.standard_normal((40, 3)) * 0.1 + rng.standard_normal((40, 1)) * 5.0
            grads[:, 2] = grads[:, 1] * (1.0 + 1e-15 * rng.standard_normal(40))
            residuals = rng.standard_normal(40) * 0.01
            cfg = LearnerConfig(eta=0.85)
            x, _, residual = rsm.learner._solve_step_arrays(grads, residuals, np.full(3, 0.85 / 3), cfg)
            assert abs(x[1] - x[2]) <= 1e-12 and residual <= config.QP_TOL

    def test_cap_is_reported(self, monkeypatch, caplog):
        """A cycling working set stops at k * 3^k steps with a WARNING."""

        def pushes_first_down(gram, lin, x, free):
            out = x.copy()
            if np.count_nonzero(free) > 1:
                out[0] -= 1.0
                out[1] += 1.0
            return out

        monkeypatch.setattr(rsm.learner, "_free_minimizer", pushes_first_down)
        grads, residuals = np.eye(2), np.array([1.0, -1.0])  # the optimum raises x_0
        with caplog.at_level(logging.WARNING, logger="rsm.learner"):
            _, steps, _ = rsm.learner._solve_step_arrays(grads, residuals, np.array([0.4, 0.45]), LearnerConfig())
        assert steps == 2 * 3**2
        assert any("cap of 18 active-set steps" in r.getMessage() for r in caplog.records)


def solve_step(grads, residuals, weights, cfg):
    """The step ``_solve_step_arrays`` takes at reporting-form ``weights``."""
    return rsm.learner._solve_step_arrays(grads, residuals, weights.as_native(cfg.lam).values, cfg)[0]


class TestSolveStep:
    def test_matches_k2_closed_form(self):
        rng = np.random.default_rng(303)
        for _ in range(60):
            m = int(rng.integers(2, 12))
            rows = [(float(rng.standard_normal() * 0.05), rng.standard_normal(2)) for _ in range(m)]
            vals = rng.random(2) + 0.1
            weights = WeightVector(vals / vals.sum())
            cfg = LearnerConfig(lam=0.15, eta=0.05)
            got = solve_step(np.array([g for _, g in rows]), np.array([r for r, _ in rows]), weights, cfg)
            expected = closed_form_step_k2(rows, weights.as_native(0.15).values, 0.15, 0.05)
            assert np.max(np.abs(got - expected)) < 1e-8

    def test_interior_solution_matches_kkt_system(self):
        """With loose bounds the step solves the equality-constrained system."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = int(rng.integers(2, 6))
            m = k + int(rng.integers(2, 8))
            grads = rng.standard_normal((m, k))
            resid = rng.standard_normal(m) * 1e-3
            weights = WeightVector(np.full(k, 1.0 / k))
            cfg = LearnerConfig(lam=0.15, eta=0.85)  # loosest legal box
            got = solve_step(grads, resid, weights, cfg)
            gram = grads.T @ grads
            system = np.zeros((k + 1, k + 1))
            system[:k, :k] = 2.0 * gram
            system[:k, k] = 1.0
            system[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[:k] = 2.0 * grads.T @ resid
            sol = np.linalg.lstsq(system, rhs, rcond=None)[0][:k]
            if np.max(np.abs(sol)) < 0.08:  # stays inside the eta=10 box scaled by w
                assert np.max(np.abs(got - sol)) < 1e-8

    def test_never_worse_than_zero_step(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(1, 10))
            grads = rng.standard_normal((m, k)) * rng.uniform(0.1, 5.0)
            resid = rng.standard_normal(m)
            vals = rng.random(k) + 0.05
            weights = WeightVector(vals / vals.sum())
            cfg = LearnerConfig()
            x = solve_step(grads, resid, weights, cfg)
            f_step = float(np.sum((resid - grads @ x) ** 2))
            f_zero = float(np.sum(resid**2))
            assert f_step <= f_zero + 1e-12
            assert abs(x.sum()) < 1e-10
            assert np.max(np.abs(x)) <= cfg.eta + 1e-12


class TestFit:
    def test_recovers_weights_noise_free(self):
        rng = np.random.default_rng(404)
        true = WeightVector(np.array([0.5, 0.3, 0.2]))
        data = noise_free_instances(rng, 20, 4, 3, true, 0.15)
        result = fit(data, LearnerConfig(max_iters=60))
        assert result.converged
        assert np.max(np.abs(result.weights.values - true.values)) < 1e-3
        assert sample_error(data, result.weights, 0.15) < 1e-4

    def test_max_iters_zero_returns_initial_weights(self):
        rng = np.random.default_rng(9)
        data = noise_free_instances(rng, 4, 4, 3, random_reporting_weights(rng, 3), 0.15)
        result = fit(data, LearnerConfig(max_iters=0))
        assert not result.converged
        assert result.iterations == 0
        assert result.final_step_norm == math.inf
        assert result.per_iteration_loss == result.per_iteration_error == result.per_iteration_step == ()
        assert_allclose(result.weights.values, np.full(3, 1.0 / 3.0), atol=1e-12)

    @pytest.mark.parametrize("max_iters", [3, 60])
    def test_result_carries_every_iteration(self, monkeypatch, max_iters):
        """Each iteration's loss, error and step norm are its solver call's inputs and output, in order."""
        rng = np.random.default_rng(88)
        data = noise_free_instances(rng, 10, 5, 3, WeightVector(np.array([0.8, 0.15, 0.05])), 0.15)
        seen = []
        solve = rsm.learner._solve_step_arrays

        def recording_solve(grads, residuals, w_native, cfg):
            out = solve(grads, residuals, w_native, cfg)
            seen.append((float(np.mean(residuals**2)), float(np.mean(np.abs(residuals))), float(np.max(np.abs(out[0])))))
            return out

        monkeypatch.setattr(rsm.learner, "_solve_step_arrays", recording_solve)
        result = fit(data, LearnerConfig(max_iters=max_iters))
        assert result.converged == (max_iters == 60)
        assert result.iterations == len(result.per_iteration_loss) == len(seen) > 1
        assert list(zip(result.per_iteration_loss, result.per_iteration_error, result.per_iteration_step)) == seen
        assert result.final_step_norm == result.per_iteration_step[-1]

    def test_loss_decreases(self):
        rng = np.random.default_rng(70)
        true = WeightVector(np.array([0.7, 0.1, 0.2]))
        data = noise_free_instances(rng, 15, 5, 3, true, 0.15)
        result = fit(data, LearnerConfig(max_iters=40))
        losses = result.per_iteration_loss
        assert len(losses) >= 2
        assert losses[-1] < losses[0] * 1e-3

    def test_unconverged_returns_best_iterate(self):
        """With a tiny budget the reported weights match the best recorded MAE."""
        rng = np.random.default_rng(88)
        true = WeightVector(np.array([0.8, 0.15, 0.05]))
        data = noise_free_instances(rng, 10, 5, 3, true, 0.15)
        result = fit(data, LearnerConfig(max_iters=3, halt_eps=1e-15))
        assert not result.converged
        best_recorded = min(result.per_iteration_error)
        achieved = sample_error(data, result.weights, 0.15)
        assert achieved <= best_recorded + 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit([])

    @pytest.mark.parametrize("lam", [0.01, 0.15, 0.9])
    def test_recovers_weights_noise_free_on_power_path(self, lam):
        """Labels from both sides of DIRECT_SOLVE_MAX_N, where the dense stationary switches
        from LU to power iteration; the fit's rank-space kernel has no width switch."""
        rng = np.random.default_rng(405)
        true = WeightVector(np.array([0.5, 0.3, 0.2]))
        data = (noise_free_instances(rng, 8, 65, 3, true, lam) + noise_free_instances(rng, 8, 120, 3, true, lam)
                + noise_free_instances(rng, 8, 64, 3, true, lam))
        result = fit(data, LearnerConfig(lam=lam, eta=min(config.DEFAULT_ETA, 1.0 - lam), max_iters=60))
        assert result.converged
        assert np.max(np.abs(result.weights.values - true.values)) < 1e-3
        assert sample_error(data, result.weights, lam) < 1e-4

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 4),
        n=st.integers(3, 8),
        queries=st.integers(2, 6),
        lam=st.sampled_from([0.05, 0.15, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_copied_and_permuted_features_move_their_weights(self, k, n, queries, lam, seed, data):
        """On noise-free data a copied feature's weight equals its original's, and permuting the features
        permutes the weights, both within 1e-12: every step takes the minimizer nearest the centre."""
        i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        order = np.array(data.draw(st.permutations(range(k))))
        rng = np.random.default_rng(seed)
        values = rng.random((queries, k, n))
        values[:, j] = values[:, i]
        true = random_reporting_weights(rng, k)
        items = tuple(f"i{u}" for u in range(n))

        def fitted(features):
            instances = []
            for q, context in enumerate(values[:, features]):
                topologies = tuple(encode_rank_topology(v, item_ids=items, feature=f"f{f}") for f, v in zip(features, context))
                probs = stationary(combine(topologies, WeightVector(true.values[features]), lam)).probs
                instances += [TrainingInstance(f"q{q}", items, topologies, u, float(probs[u])) for u in range(n)]
            return fit(instances, LearnerConfig(lam=lam, max_iters=60)).weights.values

        weights = fitted(np.arange(k))
        assert abs(weights[i] - weights[j]) <= 1e-12
        assert np.max(np.abs(fitted(order) - weights[order])) <= 1e-12

    def test_interleaved_widths_scatter_to_their_own_slots(self, monkeypatch):
        """fit's batched rows and residuals equal linearized_row, instance by instance."""
        rng = np.random.default_rng(406)
        true = WeightVector(np.array([0.6, 0.3, 0.1]))
        data = noise_free_instances(rng, 2, 5, 3, true, 0.15) + noise_free_instances(rng, 2, 70, 3, true, 0.15)
        data = [data[i] for i in rng.permutation(len(data))]
        seen = []
        solve = rsm.learner._solve_step_arrays

        def recording_solve(grads, residuals, w_native, cfg):
            seen.append((grads, residuals, w_native))
            return solve(grads, residuals, w_native, cfg)

        monkeypatch.setattr(rsm.learner, "_solve_step_arrays", recording_solve)
        fit(data, LearnerConfig(max_iters=1))
        grads, residuals, native = seen[0]
        start = WeightVector(native / native.sum())
        for inst, residual, grad in zip(data, residuals, grads):
            expected_residual, expected_grad = linearized_row(inst, start, 0.15)
            assert residual == pytest.approx(expected_residual, abs=1e-12)
            assert_allclose(grad, expected_grad, rtol=1e-10, atol=1e-14)

    def test_fundamental_matrix_never_formed(self, monkeypatch):
        """fit and linearized_row never call an explicit inverse, nor solve a system wider than k + 1."""
        rng = np.random.default_rng(407)
        true = random_reporting_weights(rng, 3)
        data = noise_free_instances(rng, 3, 6, 3, true, 0.15) + noise_free_instances(rng, 1, 66, 3, true, 0.15)
        solve, shapes = np.linalg.solve, []

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        def recording_solve(a, b):
            shapes.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        assert fit(data, LearnerConfig(max_iters=60)).converged
        for inst in (data[0], data[-1]):
            linearized_row(inst, true, 0.15)
        assert shapes and max(shape[-1] for shape in shapes) <= 3 + 1

    def test_fit_allocates_no_dense_tensor(self):
        """30 contexts at n = 200: fitting allocates nothing the size of their (B, k, n, n) tensor."""
        rng = np.random.default_rng(410)
        true = WeightVector(np.array([0.5, 0.3, 0.2]))
        data = noise_free_instances(rng, 30, 200, 3, true, 0.15)
        tensor_bytes = 30 * 3 * 200 * 200 * 8
        tracemalloc.start()
        try:
            result = fit(data, LearnerConfig(max_iters=60))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < tensor_bytes / 4

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_items_tied_on_every_feature_get_equal_bits(self, n):
        """Exchangeable items get bit-equal residuals and gradient rows."""
        rng = np.random.default_rng(411 + n)
        items = tuple(f"i{j}" for j in range(n))
        data = []
        for q in range(3):
            values = rng.random((3, n))
            values[:, 1::3] = values[:, :1]  # every third item ties item 0 on every feature
            topologies = tuple(encode_rank_topology(v, item_ids=items, feature=f"f{i}") for i, v in enumerate(values))
            data += [TrainingInstance(f"q{q}", items, topologies, u, 0.0) for u in range(n)]
        residuals, grads = linearized_row(data, WeightVector(np.array([0.5, 0.3, 0.2])))
        residuals, grads = residuals.reshape(3, n), grads.reshape(3, n, 3)
        assert np.all(residuals[:, 1::3] == residuals[:, :1])
        assert np.all(grads[:, 1::3] == grads[:, :1])

    def test_restricted_topology_is_refused(self):
        """A restrict() output is no rank chain of its items; fit names the feature."""
        rng = np.random.default_rng(412)
        topologies = random_topologies(rng, 5, 2)
        subset = topologies[0].item_ids[:4]
        restricted = (restrict(topologies[0], subset), encode_rank_topology(rng.random(4), item_ids=subset, feature="f1"))
        data = [TrainingInstance("q", subset, restricted, u, 0.25) for u in range(4)]
        with pytest.raises(ValueError, match="'f0'"):
            fit(data)

    def test_unconverged_fit_warns_once(self, caplog):
        rng = np.random.default_rng(88)
        data = noise_free_instances(rng, 10, 5, 3, WeightVector(np.array([0.8, 0.15, 0.05])), 0.15)
        with caplog.at_level(logging.DEBUG, logger="rsm.learner"):
            result = fit(data, LearnerConfig(max_iters=3, halt_eps=1e-15))
        warnings = [r for r in caplog.records if r.name == "rsm.learner" and r.levelno == logging.WARNING]
        assert not result.converged
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "unconverged after 3 iterations" in message
        assert f"{result.final_step_norm:.3e}" in message and "halt_eps 1.000e-15" in message

    def test_converged_fit_does_not_warn(self, caplog):
        rng = np.random.default_rng(404)
        data = noise_free_instances(rng, 6, 4, 3, WeightVector(np.array([0.5, 0.3, 0.2])), 0.15)
        with caplog.at_level(logging.DEBUG, logger="rsm.learner"):
            result = fit(data, LearnerConfig(max_iters=60))
        assert result.converged
        assert not [r for r in caplog.records if r.name == "rsm.learner" and r.levelno >= logging.WARNING]

    def test_zero_iteration_fit_warns(self, caplog):
        """No iteration ran, so the fit is unconverged and says so, as every unconverged fit does, with step norm inf."""
        rng = np.random.default_rng(404)
        data = noise_free_instances(rng, 6, 4, 3, WeightVector(np.array([0.5, 0.3, 0.2])), 0.15)
        with caplog.at_level(logging.DEBUG, logger="rsm.learner"):
            result = fit(data, LearnerConfig(max_iters=0))
        warnings = [r.getMessage() for r in caplog.records if r.name == "rsm.learner" and r.levelno >= logging.WARNING]
        assert not result.converged and result.final_step_norm == math.inf
        assert warnings == ["fit stopped unconverged after 0 iterations: final step norm inf > halt_eps 1.000e-06"]


def interleaved_rows():
    """Click rows of widths 5 and 70, interleaved, two of them without clicks."""
    true = WeightVector(np.array([0.5, 0.3, 0.2]))
    narrow = generate_synthetic(SyntheticSpec(k=3, num_queries=5, weights=true, n=5, clicks_per_context=400, seed=1))
    wide = generate_synthetic(SyntheticSpec(k=3, num_queries=3, weights=true, n=70, clicks_per_context=4000, seed=2))
    quiet = [
        LogRow(row.query_id, "quiet", row.items, row.positions, np.zeros(row.n), row.features)
        for row in (narrow.rows[0], wide.rows[0])
    ]
    n, w = narrow.rows, wide.rows
    return [n[0], w[0], quiet[0], n[1], n[2], w[1], quiet[1], n[3], w[2], n[4]], narrow.schema


class TestContextBatch:
    def test_fit_from_rows_equals_fit_from_instances(self):
        rows, schema = interleaved_rows()
        cfg = LearnerConfig(max_iters=60)
        a = fit(batch_from_rows(rows, schema), cfg)
        b = fit(training_instances_from_rows(rows, schema), cfg)
        assert a.converged and b.converged
        assert np.array_equal(a.weights.values, b.weights.values)
        assert a.per_iteration_loss == b.per_iteration_loss
        assert a.per_iteration_error == b.per_iteration_error
        assert (a.iterations, a.qp_steps, a.final_step_norm) == (b.iterations, b.qp_steps, b.final_step_norm)

    def test_rows_and_instances_give_the_same_targets_in_order(self):
        rows, schema = interleaved_rows()
        batch = batch_from_rows(rows, schema)
        instances = training_instances_from_rows(rows, schema)
        assert len(batch) == len(instances) == 5 * 5 + 3 * 70  # the quiet rows add none
        weights = WeightVector(np.array([0.4, 0.4, 0.2]))
        residuals, grads = linearized_row(batch, weights)
        expected_residuals, expected_grads = linearized_row(instances, weights)
        assert np.array_equal(residuals, expected_residuals)
        assert np.array_equal(grads, expected_grads)
        single_residual, single_grad = linearized_row(instances[7], weights)
        assert single_residual == residuals[7] and np.array_equal(single_grad, grads[7])

    def test_sample_error_and_grid_search_agree(self):
        rows, schema = interleaved_rows()
        batch = batch_from_rows(rows, schema)
        instances = training_instances_from_rows(rows, schema)
        weights = WeightVector(np.array([0.2, 0.5, 0.3]))
        assert sample_error(batch, weights) == sample_error(instances, weights)
        assert np.array_equal(grid_search(batch, 0.1).values, grid_search(instances, 0.1).values)

    def test_instances_convert_once_per_call(self, monkeypatch):
        rng = np.random.default_rng(408)
        data = noise_free_instances(rng, 4, 5, 3, WeightVector(np.array([0.5, 0.3, 0.2])), 0.15)
        calls = []
        real = rsm.learner.as_batch

        def counting(data):
            calls.append(1)
            return real(data)

        monkeypatch.setattr(rsm.learner, "as_batch", counting)
        result = fit(data, LearnerConfig(max_iters=60))
        assert result.converged and len(calls) == 1
        batch = as_batch(data)
        assert as_batch(batch) is batch

    def test_mixed_topology_counts_rejected(self):
        rng = np.random.default_rng(409)
        two = noise_free_instances(rng, 1, 4, 2, WeightVector(np.array([0.5, 0.5])), 0.15)
        three = noise_free_instances(rng, 1, 4, 3, WeightVector(np.array([0.5, 0.3, 0.2])), 0.15)
        with pytest.raises(ShapeError):
            fit(two + three)

    def test_active_set_steps_are_counted_and_bounded(self):
        """A few active-set steps per iteration; an iterative QP would take hundreds."""
        true = WeightVector(np.array([0.5, 0.3, 0.2]))
        data = generate_synthetic(SyntheticSpec(k=3, num_queries=60, weights=true, n=5, clicks_per_context=2000, seed=12))
        result = fit(batch_from_rows(data.rows, data.schema))
        assert result.converged
        assert result.iterations <= result.qp_steps <= 3 * result.iterations
        assert 0.0 <= result.max_kkt_residual <= config.QP_TOL


def oracle_contexts(data):
    """The instance grouping ``as_batch`` used to run, copied verbatim: one Python tuple per instance.

    Returns ``k`` and per context its ``(k, n)`` ranks, items, targets and
    slots, contexts in order of first appearance.
    """
    groups = {}
    for slot, inst in enumerate(data):
        groups.setdefault(inst.topologies, []).append((inst.target_index, inst.target_prob, slot))
    if len({len(tops) for tops in groups}) > 1:
        raise ShapeError("all instances must share the same number of topologies")
    contexts = [(np.stack([t.ranks for t in tops]), *map(np.array, zip(*rows))) for tops, rows in groups.items()]
    return len(next(iter(groups), ())), contexts


def oracle_widths(contexts):
    """The old ``ContextBatch.from_contexts`` stacking: per width, ranks and each target's context, item, target and slot."""
    by_n = {}
    for context in contexts:
        by_n.setdefault(context[0].shape[-1], []).append(context)
    out = []
    for group in by_n.values():
        ranks, uidx, targets, slots = zip(*group)
        gidx = np.repeat(np.arange(len(group)), [len(u) for u in uidx])
        out.append((np.stack(ranks), gidx, *map(np.concatenate, (uidx, targets, slots))))
    return out


def oracle_batch(data):
    """The old grouping's batch: widths stacked in order of first appearance, each target's place found by hand."""
    k, contexts = oracle_contexts(data)
    widths = oracle_widths(contexts)
    targets, at, start = np.empty(len(data)), np.empty(len(data), dtype=np.intp), 0
    for ranks, gidx, uidx, probs, slots in widths:
        b, _, n = ranks.shape
        targets[slots], at[slots], start = probs, start + gidx * n + uidx, start + b * n
    return ContextBatch(k, rank_space(*(width[0] for width in widths)), targets, at)


def oracle_linearized_rows(data, weights, lam=config.DEFAULT_LAMBDA):
    """Residuals and rows by the old grouping and the old two-array gathers."""
    k, contexts = oracle_contexts(data)
    native = weights.as_native(lam).values
    residuals, grads = np.empty(len(data)), np.empty((len(data), k))
    for ranks, gidx, uidx, targets, slots in oracle_widths(contexts):
        b, _, n = ranks.shape
        probs, rows = rank_chain_rows(rank_space(ranks), native, lam)
        residuals[slots] = targets - probs.reshape(b, n)[gidx, uidx]
        grads[slots] = rows.reshape(b, n, k)[gidx, uidx]
    return residuals, grads


def mixed_width_instances():
    """Instances of 5 + 3 contexts at widths 5 and 70, every context's instances dealt out round-robin."""
    rows, schema = interleaved_rows()
    instances = training_instances_from_rows(rows, schema)
    by_context = {}
    for inst in instances:
        by_context.setdefault(id(inst.topologies), []).append(inst)
    hands = list(by_context.values())
    return [hand[i] for i in range(max(map(len, hands))) for hand in hands if i < len(hand)]


def distinct_tuple_instances():
    """Noise-free instances at widths 4 and 66 whose contexts hold one new, equal topology tuple per instance."""
    rng = np.random.default_rng(413)
    true = WeightVector(np.array([0.5, 0.3, 0.2]))
    data = noise_free_instances(rng, 3, 4, 3, true, 0.15) + noise_free_instances(rng, 2, 66, 3, true, 0.15)
    return [
        TrainingInstance(inst.query_id, inst.item_ids, list(inst.topologies), inst.target_index, inst.target_prob)
        for inst in data
    ]


def shuffled_instances():
    data = mixed_width_instances()
    return [data[i] for i in np.random.default_rng(414).permutation(len(data))]


class TestAsBatch:
    """``as_batch`` against the per-instance grouping it replaced."""

    @pytest.mark.parametrize("make", [mixed_width_instances, shuffled_instances, distinct_tuple_instances])
    def test_fit_and_rows_equal_the_old_grouping_bit_for_bit(self, make):
        data = make()
        cfg = LearnerConfig(max_iters=60)
        new, old = fit(data, cfg), fit(oracle_batch(data), cfg)
        assert new.converged and old.converged
        assert new.weights.values.tobytes() == old.weights.values.tobytes()
        assert new.per_iteration_loss == old.per_iteration_loss
        assert (new.iterations, new.qp_steps) == (old.iterations, old.qp_steps)
        weights = WeightVector(np.array([0.2, 0.5, 0.3]))
        residuals, grads = linearized_row(data, weights)
        expected_residuals, expected_grads = oracle_linearized_rows(data, weights)
        assert residuals.tobytes() == expected_residuals.tobytes()
        assert grads.tobytes() == expected_grads.tobytes()

    def test_equal_tuples_form_one_context(self):
        data = distinct_tuple_instances()
        assert len({id(inst.topologies) for inst in data}) == len(data)
        batch = as_batch(data)
        assert [ranks.shape for ranks in batch.space.stacks] == [(3, 3, 4), (2, 3, 66)]
        assert np.array_equal(np.sort(batch.at), np.arange(len(data)))  # every item of the 5 contexts once

    def test_targets_keep_their_dataset_order(self):
        data = mixed_width_instances()
        batch = as_batch(data)
        assert batch.targets.tolist() == [inst.target_prob for inst in data]
        assert np.unique(batch.at).size == len(data)

    def test_one_kernel_call_per_evaluation_at_the_benchmark_widths(self, monkeypatch):
        """Contexts 20, 64, 80 and 200 wide, the widths of the ``fit_wide`` benchmark, cost one ``rank_chain_rows``
        call per evaluation: each fit iteration, ``sample_error``, ``linearized_row`` and each grid point."""
        true = WeightVector(np.array([0.5, 0.3, 0.2]))
        data = [inst for n in (20, 64, 80, 200)
                for inst in generate_synthetic(SyntheticSpec(k=3, num_queries=2, weights=true, n=n, seed=n)).instances]
        batch, calls, real = as_batch(data), [], rsm.learner.rank_chain_rows
        monkeypatch.setattr(rsm.learner, "rank_chain_rows", lambda *args: calls.append(args[3]) or real(*args))
        assert [ranks.shape[2] for ranks in batch.space.stacks] == [20, 64, 80, 200]
        result = fit(batch)
        assert result.converged and calls == [True] * result.iterations
        for evaluate, want in [(lambda: sample_error(batch, true), [False]), (lambda: linearized_row(batch, true), [True]),
                               (lambda: grid_search(batch, 0.5), [False] * 6)]:
            calls.clear()
            evaluate()
            assert calls == want

    def test_an_empty_list_is_no_dataset(self):
        assert len(as_batch([])) == 0
        with pytest.raises(ValueError, match="dataset must be nonempty"):
            fit([])


class TestGridSearch:
    def test_exact_on_grid_recovery(self):
        rng = np.random.default_rng(31)
        true = WeightVector(np.array([0.6, 0.4]))
        data = noise_free_instances(rng, 10, 4, 2, true, 0.15)
        got = grid_search(data, grid_step=0.05)
        assert_allclose(got.values, [0.6, 0.4], atol=1e-12)

    def test_three_feature_recovery(self):
        rng = np.random.default_rng(32)
        true = WeightVector(np.array([0.05 * 12, 0.05 * 5, 0.05 * 3]))
        data = noise_free_instances(rng, 12, 4, 3, true, 0.15)
        got = grid_search(data, grid_step=0.05)
        assert_allclose(got.values, true.values, atol=1e-12)

    def test_budget_guard(self):
        """k = 4 at step 0.001 needs C(1003, 3) points, beyond the default cap; nothing is enumerated."""
        rng = np.random.default_rng(3)
        data = noise_free_instances(rng, 1, 3, 4, random_reporting_weights(rng, 4), 0.15)
        with pytest.raises(GridBudgetExceeded) as info:
            grid_search(data, grid_step=0.001)
        assert info.value.required == math.comb(1000 + 3, 3) > config.GRID_POINT_CAP
        assert info.value.cap == config.GRID_POINT_CAP

    def test_step_must_divide_one(self):
        rng = np.random.default_rng(4)
        data = noise_free_instances(rng, 1, 3, 2, random_reporting_weights(rng, 2), 0.15)
        with pytest.raises(ValueError):
            grid_search(data, grid_step=0.3)

    @pytest.mark.parametrize("lam", [1.5, 1.0, 0.0, -0.5])
    def test_lam_outside_the_open_unit_interval_is_refused_before_any_kernel_call(self, monkeypatch, lam):
        """Past 1 the mixture is not stochastic, yet every grid point would still be scored against it."""
        rng = np.random.default_rng(5)
        data = noise_free_instances(rng, 2, 3, 3, random_reporting_weights(rng, 3), 0.15)
        calls = []
        monkeypatch.setattr(rsm.learner, "_evaluate", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\)"):
            grid_search(data, 0.1, lam=lam)
        assert calls == []

    @pytest.mark.parametrize("k", range(1, 7))
    def test_compositions_in_lexicographic_order(self, k):
        """Stars and bars give every composition once, in the order of a filtered product."""
        for total in range(12):
            brute = [c for c in itertools.product(range(total + 1), repeat=k) if sum(c) == total]
            assert list(rsm.learner._compositions(total, k)) == brute

    def test_single_feature_grid(self):
        rng = np.random.default_rng(6)
        data = noise_free_instances(rng, 3, 3, 1, WeightVector(np.array([1.0])), 0.15)
        got = grid_search(data, grid_step=0.25)
        assert_allclose(got.values, [1.0], atol=1e-15)


class TestSampleBound:
    def test_frozen_value(self):
        # ceil((3 / 0.05^2) * ln(3 / (0.15 * 0.05 * 0.1))) = ceil(1200 * ln 4000)
        assert sample_bound(3, 0.05, 0.1, lam=0.15) == 9953

    def test_monotone_in_eps(self):
        assert sample_bound(3, 0.01, 0.1) > sample_bound(3, 0.05, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_bound(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            sample_bound(2, 1.5, 0.1)
