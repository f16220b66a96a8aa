"""Numeric tolerances and defaults, kept in one place.

Every validation threshold used by the core types lives here so that the
invariants are easy to audit and impossible to drift apart between modules.
"""

# Row sums of a stochastic matrix must match their target this tightly.
ROW_SUM_TOL = 1e-12

# Distribution entries must sum to 1 within this tolerance.
DIST_SUM_TOL = 1e-12

# Residual allowed on p P = p after solving for the stationary distribution.
STATIONARY_RESIDUAL_TOL = 1e-10

# Construction check on the fundamental matrix: Z (I - (P - 1 p^T)) = I.
FUNDAMENTAL_CHECK_TOL = 1e-8

# Largest n that markov.stationary solves by the direct augmented linear
# system; power iteration above. Nothing else switches on n: the generators,
# the learner and the held-out scorer solve each context in the span of its
# ranks (markov.rank_chain_rows).
DIRECT_SOLVE_MAX_N = 64

POWER_ITER_TOL = 1e-12
POWER_ITER_MAX_STEPS = 10**6

# rank_items lists items this close below the first item of their group
# by item id, so solver roundoff does not order tied items.
RANK_TIE_TOL = 1e-12

# Weight vector sums are validated this tightly.
WEIGHT_SUM_TOL = 1e-12

# Restart probability of the combined chain.
DEFAULT_LAMBDA = 0.15

# Learner defaults.
DEFAULT_ETA = 0.05
DEFAULT_HALT_EPS = 1e-6
DEFAULT_MAX_ITERS = 500

# The learner's step subproblem releases a held bound whose multiplier has the
# wrong sign by more than this, and warns when its KKT residual ends above it.
QP_TOL = 1e-10

# Brute-force grid enumeration refuses to exceed this many points by default.
GRID_POINT_CAP = 10**6

# Ridge fallback strength for rank-deficient least squares.
RIDGE_TAU = 1e-8

# Flip mining thresholds: total clicks strictly above, click gap at least.
MIN_TOTAL_CLICKS = 5
MIN_CLICK_DIFF = 2

DEFAULT_TRAIN_FRACTION = 0.8
DEFAULT_NUM_SPLITS = 100

# Smallest reportable p-value; avoids an exact zero when the CDF underflows.
P_VALUE_FLOOR = 1e-300
