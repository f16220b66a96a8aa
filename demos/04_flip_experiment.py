"""Can a model predict which way a preference will flip?

Protocol: mine flip pairs from click logs, hide a test portion, fit every
model on the remaining rows, then ask each model to call the winner on both
sides of each held-out pair. Scoring items identically earns exactly 0.5,
so that is the floor any context-aware model has to clear.

Run with: python3 demos/04_flip_experiment.py  (roughly ten seconds)
"""

import numpy as np

from rsm import (
    LearnerConfig,
    WeightVector,
    constant_model,
    generate_flip_dataset,
    least_squares_model,
    mine_flip_pairs,
    rsm_model,
    run_experiment,
)

dataset = generate_flip_dataset(
    num_queries=60,
    weights=WeightVector(np.array([0.5, 0.3, 0.2])),
    clicks_per_context=10_000,
    margin=0.02,
    seed=12,
)
pairs = mine_flip_pairs(dataset.rows)
print(f"{len(dataset.rows)} click-log rows, {len(pairs)} mined flip pairs")

models = [
    rsm_model(dataset.schema, LearnerConfig(lam=0.15, max_iters=25)),
    least_squares_model(dataset.schema),
    constant_model(),
]
report = run_experiment(pairs, models, num_splits=40, seed=5)

print()
print(report.to_text())
print(
    "The regression sees each item's features, but those features are the\n"
    "same on both sides of a flip, so it cannot beat chance by much. The\n"
    "walk model re-derives its scores inside each context and calls both\n"
    "sides of the same pair differently."
)
