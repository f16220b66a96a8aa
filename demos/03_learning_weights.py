"""Recover feature weights two ways and watch them agree.

The iterative learner linearizes the stationary map around the current
weights, takes a small boxed step, and repeats. The grid learner just tries
every weight vector on a lattice. On clean data they land on the same spot,
which is the whole reason to trust the fast one.

Run with: python3 demos/03_learning_weights.py
"""

import numpy as np

from rsm import (
    LearnerConfig,
    WeightVector,
    fit,
    grid_search,
    sample_error,
    generate_synthetic,
    SyntheticSpec,
)

true_weights = (0.55, 0.30, 0.15)
spec = SyntheticSpec(k=3, num_queries=25, weights=WeightVector(np.array(true_weights)), seed=3)
dataset = generate_synthetic(spec)
print(f"{len(dataset.instances)} noise-free training instances, true weights {true_weights}")

result = fit(dataset.instances, LearnerConfig(lam=0.15))
trace = zip(result.per_iteration_loss, result.per_iteration_error, result.per_iteration_step)

print("\niterative learner:")
print("  iter   mse          mae          step")
for it, (loss, err, step) in enumerate(trace):
    print(f"  {it:4d}   {loss:.3e}    {err:.3e}    {step:.3e}")
print(f"  converged: {result.converged} after {result.iterations} iterations")
print(f"  weights: {np.round(result.weights.values, 6)}")

grid = grid_search(dataset.instances, grid_step=0.05, lam=0.15)
print(f"\ngrid learner (step 0.05): weights {np.round(grid.values, 6)}")

gap = np.max(np.abs(result.weights.values - grid.values))
print(f"\nmax coordinate gap between the two learners: {gap:.4f}")
print(f"mean absolute stationary error at the fit: {sample_error(dataset.instances, result.weights, 0.15):.2e}")
