"""Iterative weight learning, the boxed step subproblem, and the grid oracle."""

import logging
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from rsm import (
    GridBudgetExceeded,
    LearnerConfig,
    ShapeError,
    StochasticMatrix,
    TrainingInstance,
    WeightVector,
    combine,
    fit,
    fundamental_matrix,
    grid_search,
    linearized_row,
    sample_bound,
    sample_error,
    solve_step,
    stationary,
)
import rsm.learner
from rsm.learner import _project_box_sum_zero

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

    def test_weight_arity_guard(self):
        rng = np.random.default_rng(2)
        data = noise_free_instances(rng, 1, 4, 2, random_reporting_weights(rng, 2), 0.15)
        with pytest.raises(ShapeError):
            linearized_row(data[0], WeightVector(np.array([1.0])), 0.15)


class TestProjection:
    def test_against_root_finding_oracle(self):
        """Projection matches the mu found by brentq on h(mu) = sum(clip)."""
        rng = np.random.default_rng(77)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            lower = -rng.random(k) * 0.2
            upper = rng.random(k) * 0.2
            point = rng.standard_normal(k) * 0.3
            got = _project_box_sum_zero(point, lower, upper)
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
            assert np.max(np.abs(_project_box_sum_zero(x, lower, upper) - x)) < 1e-12


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


class TestSolveStep:
    def test_matches_k2_closed_form(self):
        rng = np.random.default_rng(303)
        for _ in range(60):
            m = int(rng.integers(2, 12))
            rows = [(float(rng.standard_normal() * 0.05), rng.standard_normal(2)) for _ in range(m)]
            vals = rng.random(2) + 0.1
            weights = WeightVector(vals / vals.sum())
            cfg = LearnerConfig(lam=0.15, eta=0.05)
            got = solve_step(rows, weights, cfg)
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
            rows = list(zip(resid.tolist(), grads))
            weights = WeightVector(np.full(k, 1.0 / k))
            cfg = LearnerConfig(lam=0.15, eta=0.85)  # loosest legal box
            got = solve_step(rows, weights, cfg)
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
            rows = list(zip(resid.tolist(), grads))
            vals = rng.random(k) + 0.05
            weights = WeightVector(vals / vals.sum())
            cfg = LearnerConfig()
            x = solve_step(rows, weights, cfg)
            f_step = float(np.sum((resid - grads @ x) ** 2))
            f_zero = float(np.sum(resid**2))
            assert f_step <= f_zero + 1e-12
            assert abs(x.sum()) < 1e-10
            assert np.max(np.abs(x)) <= cfg.eta + 1e-12

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            solve_step([], WeightVector(np.array([0.5, 0.5])))


class TestFit:
    def test_recovers_weights_noise_free(self):
        rng = np.random.default_rng(404)
        true = WeightVector(np.array([0.5, 0.3, 0.2]))
        data = noise_free_instances(rng, 20, 4, 3, true, 0.15)
        result = fit(data, LearnerConfig(max_iters=60))
        assert result.converged
        assert np.max(np.abs(result.weights.values - true.values)) < 1e-3
        assert sample_error(data, result.weights, 0.15) < 1e-4

    def test_true_init_halts_on_first_iteration(self):
        rng = np.random.default_rng(21)
        true = random_reporting_weights(rng, 3)
        data = noise_free_instances(rng, 10, 4, 3, true, 0.15)
        result = fit(data, LearnerConfig(init=true, max_iters=50))
        assert result.converged
        assert result.iterations == 1
        assert np.max(np.abs(result.weights.values - true.values)) < 1e-9

    def test_max_iters_zero_returns_initial_weights(self):
        rng = np.random.default_rng(9)
        data = noise_free_instances(rng, 4, 4, 3, random_reporting_weights(rng, 3), 0.15)
        result = fit(data, LearnerConfig(max_iters=0))
        assert not result.converged
        assert result.iterations == 0
        assert_allclose(result.weights.values, np.full(3, 1.0 / 3.0), atol=1e-12)

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
        seen = []
        result = fit(
            data,
            LearnerConfig(max_iters=3, halt_eps=1e-15),
            on_iteration=lambda it, w, mse, mae, step: seen.append((mae, w)),
        )
        assert not result.converged
        best_recorded = min(mae for mae, _ in seen)
        achieved = sample_error(data, result.weights, 0.15)
        assert achieved <= best_recorded + 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit([])

    def test_recovers_weights_noise_free_on_power_path(self):
        """Contexts above DIRECT_SOLVE_MAX_N take power iteration for the stationary."""
        rng = np.random.default_rng(405)
        true = WeightVector(np.array([0.5, 0.3, 0.2]))
        data = noise_free_instances(rng, 8, 65, 3, true, 0.15) + noise_free_instances(rng, 8, 120, 3, true, 0.15)
        result = fit(data, LearnerConfig(max_iters=60))
        assert result.converged
        assert np.max(np.abs(result.weights.values - true.values)) < 1e-3
        assert sample_error(data, result.weights, 0.15) < 1e-4

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
        """fit and linearized_row never call an explicit inverse."""
        rng = np.random.default_rng(407)
        true = random_reporting_weights(rng, 3)
        data = noise_free_instances(rng, 3, 6, 3, true, 0.15) + noise_free_instances(rng, 1, 66, 3, true, 0.15)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        assert fit(data, LearnerConfig(max_iters=60)).converged
        for inst in (data[0], data[-1]):
            linearized_row(inst, true, 0.15)

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

    @pytest.mark.parametrize("max_iters", [0, 60])
    def test_converged_or_empty_fit_does_not_warn(self, caplog, max_iters):
        rng = np.random.default_rng(404)
        data = noise_free_instances(rng, 6, 4, 3, WeightVector(np.array([0.5, 0.3, 0.2])), 0.15)
        with caplog.at_level(logging.DEBUG, logger="rsm.learner"):
            result = fit(data, LearnerConfig(max_iters=max_iters))
        assert result.converged == (max_iters > 0)
        assert not [r for r in caplog.records if r.name == "rsm.learner" and r.levelno >= logging.WARNING]


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
        rng = np.random.default_rng(3)
        data = noise_free_instances(rng, 1, 3, 4, random_reporting_weights(rng, 4), 0.15)
        with pytest.raises(GridBudgetExceeded) as info:
            grid_search(data, grid_step=0.001, max_points=1000)
        assert info.value.required == math.comb(1000 + 3, 3)
        assert info.value.cap == 1000

    def test_step_must_divide_one(self):
        rng = np.random.default_rng(4)
        data = noise_free_instances(rng, 1, 3, 2, random_reporting_weights(rng, 2), 0.15)
        with pytest.raises(ValueError):
            grid_search(data, grid_step=0.3)

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
