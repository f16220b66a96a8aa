"""Stationary distributions, the fundamental matrix and the rank-space kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rsm import (
    Distribution,
    NoUniqueStationary,
    ShapeError,
    StochasticMatrix,
    WeightVector,
    combine,
    config,
    encode_rank_topology,
    fundamental_matrix,
    stationary,
    stationary_shift,
)

from rsm.markov import _stationary_probs, context_space, gather, rank_chain_rows, rank_space
from rsm.topology import average_ranks, rank_chain

from conftest import random_topologies


def two_state(a, c):
    # rows sum to 1: stationary is (c, 1-a) / (1-a+c)
    return StochasticMatrix(np.array([[a, 1.0 - a], [c, 1.0 - c]]))


class TestStationary:
    def test_two_state_closed_form(self):
        # a=0.55, c=0.81: pi = (0.81, 0.45)/1.26 = (9/14, 5/14)
        p = stationary(two_state(0.55, 0.81)).probs
        assert_allclose(p, [9.0 / 14.0, 5.0 / 14.0], atol=1e-14)

    def test_uniform_chain(self):
        for n in (2, 3, 7):
            p = stationary(StochasticMatrix(np.full((n, n), 1.0 / n))).probs
            assert_allclose(p, np.full(n, 1.0 / n), atol=1e-15)

    def test_agrees_with_power_iteration(self):
        """Direct solve matches long-run simulation on random ergodic chains."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            raw = rng.random((n, n)) + 0.05
            entries = raw / raw.sum(axis=1, keepdims=True)
            matrix = StochasticMatrix(entries)
            direct = stationary(matrix).probs
            p = np.full(n, 1.0 / n)
            for _ in range(6000):
                p = p @ entries
            assert np.max(np.abs(direct - p)) < 1e-10

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            raw = rng.random((n, n)) + 1e-3
            matrix = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
            p = stationary(matrix).probs
            assert np.max(np.abs(p @ matrix.entries - p)) < 1e-10
            assert abs(p.sum() - 1.0) < 1e-12

    def test_identity_has_no_unique_stationary(self):
        with pytest.raises(NoUniqueStationary):
            stationary(StochasticMatrix(np.eye(3)))

    def test_two_closed_classes(self):
        blocks = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.4, 0.6, 0.0, 0.0],
                [0.0, 0.0, 0.9, 0.1],
                [0.0, 0.0, 0.2, 0.8],
            ]
        )
        with pytest.raises(NoUniqueStationary):
            stationary(StochasticMatrix(blocks))

    def test_large_chain_power_path(self):
        # n > DIRECT_SOLVE_MAX_N goes through power iteration instead of LU
        rng = np.random.default_rng(3)
        n = 70
        raw = rng.random((n, n)) + 0.01
        matrix = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
        p = stationary(matrix).probs
        assert np.max(np.abs(p @ matrix.entries - p)) < 1e-10

    @pytest.mark.parametrize("left, right", [(20, 44), (20, 45), (30, 70)])
    def test_periodic_chains_solve_on_both_sides_of_the_direct_limit(self, left, right):
        """A bipartite chain has period 2, so power iteration from the uniform vector never settles on it;
        its zero entries send it to the direct solve above DIRECT_SOLVE_MAX_N too."""
        rng = np.random.default_rng(left + right)
        n = left + right
        entries = np.zeros((n, n))
        entries[:left, left:] = rng.random((left, right)) + 0.01
        entries[left:, :left] = rng.random((right, left)) + 0.01
        entries /= entries.sum(axis=1, keepdims=True)
        p = stationary(StochasticMatrix(entries)).probs
        assert np.abs(p @ entries - p).max() <= config.STATIONARY_RESIDUAL_TOL
        assert_allclose(p, lstsq_stationary(entries), rtol=0.0, atol=1e-12)


def lstsq_stationary(entries):
    """Oracle: least-squares solve of the stacked system (P^T - I) p = 0, 1^T p = 1."""
    n = entries.shape[0]
    system = np.vstack([entries.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


def random_chain_stack(rng, count, n):
    """Random positive chains, half of them restart mixtures of rank topologies."""
    chains = []
    for c in range(count):
        if c % 2:
            k = int(rng.integers(1, 4))
            values = rng.random(k) + 0.05
            mixed = combine(random_topologies(rng, n, k), WeightVector(values / values.sum()))
            chains.append(mixed.entries)
        else:
            raw = rng.random((n, n)) + 0.01
            chains.append(raw / raw.sum(axis=1, keepdims=True))
    return np.stack(chains)


def permuted_chain(blocks, rng):
    """Block-diagonal chain of the given blocks, states shuffled."""
    n = sum(b.shape[0] for b in blocks)
    entries = np.zeros((n, n))
    start = 0
    for block in blocks:
        end = start + block.shape[0]
        entries[start:end, start:end] = block
        start = end
    perm = rng.permutation(n)
    return entries[np.ix_(perm, perm)]


def random_block(rng, size, density):
    """Irreducible random chain on ``size`` states with some zero entries."""
    raw = rng.random((size, size)) * (rng.random((size, size)) < density)
    cycle = np.roll(np.eye(size), 1, axis=1)  # keeps the block irreducible
    raw += 0.1 * cycle
    return raw / raw.sum(axis=1, keepdims=True)


class TestStationaryRows:
    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 64, 65, 200]), seed=st.integers(0, 2**32 - 1))
    def test_stack_matches_scalar_solve_and_lstsq_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        for chain in random_chain_stack(rng, 3, n):
            row = _stationary_probs(chain)
            assert row.shape == (n,)
            assert_allclose(row, stationary(StochasticMatrix(chain)).probs, rtol=0.0, atol=0.0)
            assert_allclose(row, lstsq_stationary(chain), rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        transient=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuted_reducible_chains_raise(self, sizes, transient, seed):
        rng = np.random.default_rng(seed)
        entries = permuted_chain([random_block(rng, s, 0.7) for s in sizes], rng)
        if transient:
            # transient states that may lead into every closed class
            n = entries.shape[0]
            feed = rng.random((transient, n + transient)) + 0.01
            feed /= feed.sum(axis=1, keepdims=True)
            entries = np.block([[entries, np.zeros((n, transient))], [feed]])
        with pytest.raises(NoUniqueStationary):
            stationary(StochasticMatrix(entries))

    @pytest.mark.parametrize("n", [config.DIRECT_SOLVE_MAX_N + 1, 200])
    def test_a_wide_positive_chain_is_checked_for_zeros_once(self, n):
        """``stationary`` takes one minimum of the entries and hands it down: the power iteration's answer, bit for
        bit, from one ``n x n`` pass where there were two."""
        chain = random_chain_stack(np.random.default_rng(n), 1, n)[0]
        assert chain.min() > 0.0

        class CountingMin(np.ndarray):
            calls = 0

            def min(self, *args, **kwargs):
                CountingMin.calls += 1
                return super().min(*args, **kwargs)

        got = stationary(StochasticMatrix._trusted(chain.copy().view(CountingMin))).probs
        assert CountingMin.calls == 1
        assert got.tobytes() == _stationary_probs(chain).tobytes() == _stationary_probs(chain, False).tobytes()

    @pytest.mark.parametrize("closed, transient", [(1, 1), (3, 2), (5, 4), (40, 30)])
    def test_transient_states_get_no_mass(self, closed, transient):
        rng = np.random.default_rng(closed + transient)
        block = random_block(rng, closed, 0.5)
        n = closed + transient
        feed = rng.random((transient, n)) + 0.01
        feed /= feed.sum(axis=1, keepdims=True)
        entries = np.block([[block, np.zeros((closed, transient))], [feed]])
        perm = rng.permutation(n)
        p = stationary(StochasticMatrix(entries[np.ix_(perm, perm)])).probs[np.argsort(perm)]
        assert_allclose(p[closed:], 0.0, rtol=0.0, atol=1e-13)
        assert_allclose(p[:closed], lstsq_stationary(block), rtol=0.0, atol=1e-12)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            StochasticMatrix(np.ones((2, 3)) / 3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]))

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, -0.5, 1.0]))

    def test_entries_frozen(self):
        m = two_state(0.5, 0.5)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.9


class TestFundamentalMatrix:
    def test_uniform_chain_gives_identity(self):
        z = fundamental_matrix(StochasticMatrix(np.full((4, 4), 1.0 / 4)))
        assert_allclose(z.z, np.eye(4), atol=1e-12)

    def test_matches_neumann_series(self):
        """Z = sum_t (P - P_inf)^t, truncated far past convergence."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            raw = rng.random((n, n)) + 0.2
            matrix = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
            z = fundamental_matrix(matrix)
            core = matrix.entries - np.outer(np.ones(n), stationary(matrix).probs)
            acc = np.eye(n)
            term = np.eye(n)
            for _ in range(400):
                term = term @ core
                acc += term
            assert np.max(np.abs(z.z - acc)) < 1e-10

    def test_periodic_chain_still_invertible(self):
        # the 2-cycle is periodic yet Z exists: I - (P - P_inf) has eigenvalues 1, 2
        perm = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        z = fundamental_matrix(perm)
        expected = np.linalg.inv(np.array([[1.5, -0.5], [-0.5, 1.5]]))
        assert_allclose(z.z, expected, atol=1e-12)

    def test_reducible_chain_fails_before_inversion(self):
        with pytest.raises(NoUniqueStationary):
            fundamental_matrix(StochasticMatrix(np.eye(3)))

    def test_construction_identity(self):
        """Z (I - P + P_inf) = I within the documented guard."""
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            raw = rng.random((n, n)) + 0.05
            matrix = StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
            z = fundamental_matrix(matrix)
            core = np.eye(n) - matrix.entries + np.outer(np.ones(n), stationary(matrix).probs)
            assert np.max(np.abs(z.z @ core - np.eye(n))) < 1e-8


def rank_case(values, w_report, lam):
    """Dense oracle for one context: its ranks, stationary and rows ``p^T T_i Z``."""
    ranks = average_ranks(values)
    topologies = tuple(encode_rank_topology(v) for v in values)
    assert all(np.array_equal(top.ranks, r) for top, r in zip(topologies, ranks))
    fm = fundamental_matrix(combine(topologies, WeightVector(w_report), lam))
    p = fm.stationary.probs
    rows = np.stack([p @ top.matrix.entries @ fm.z for top in topologies])
    return ranks, p, rows


def per_context(probs, rows, b, n):
    """The kernel's flat outputs over ``b`` contexts all ``n`` wide as ``(b, n)`` stationary rows and ``(b, k, n)``
    gradient rows."""
    return probs.reshape(b, n), np.swapaxes(rows.reshape(b, n, -1), 1, 2)


def assert_kernel_matches_oracle(values, w_report, lam):
    """rank_chain_rows on a stack of contexts against the dense kernels, 1e-10 relative.

    The outputs are flat, item after item, and each context solved alone gives the same bits as in the stack.
    """
    cases = [rank_case(v, w_report, lam) for v in values]
    space = rank_space(np.stack([ranks for ranks, _, _ in cases]))
    native = w_report * (1.0 - lam)
    probs, rows = rank_chain_rows(space, native, lam)
    b, k, n = values.shape
    assert probs.shape == (b * n,) and rows.shape == (b * n, k)
    assert np.array_equal(rank_chain_rows(space, native, lam, gradients=False)[0], probs)
    for (ranks, p, expected), got_p, got_rows in zip(cases, *per_context(probs, rows, b, n)):
        assert np.max(np.abs(got_p - p)) <= 1e-10 * np.max(p)
        assert np.max(np.abs(got_rows - expected)) <= 1e-10 * np.max(np.abs(expected))
        alone_p, alone_rows = per_context(*rank_chain_rows(rank_space(ranks[None]), native, lam), 1, n)
        assert np.array_equal(alone_p[0], got_p) and np.array_equal(alone_rows[0], got_rows)


def degenerate_values(rng, kinds, n):
    """One feature per kind: random, constant, a duplicate or reversal of the first, or partial ties."""
    first = rng.random(n)
    make = {
        "random": lambda: rng.random(n),
        "constant": lambda: np.full(n, 3.0),
        "duplicate": lambda: first.copy(),
        "reversed": lambda: -first,
        "ties": lambda: rng.integers(0, 3, n).astype(float),
    }
    return np.stack([first] + [make[kind]() for kind in kinds[1:]])


class TestFundamentalRows:
    """The rows ``p^T T_i Z`` of ``rank_chain_rows`` against ``fundamental_matrix``."""

    @pytest.mark.parametrize("lam", [0.01, 0.15, 0.9])
    @pytest.mark.parametrize("n", [5, 64, 65, 80, 200])
    def test_matches_fundamental_matrix_oracle(self, n, lam):
        """Both sides of DIRECT_SOLVE_MAX_N, where the dense oracle switches from LU to power iteration."""
        rng = np.random.default_rng(700 + n)
        w = rng.random(3) + 0.05
        values = rng.random((2, 3, n))
        assert_kernel_matches_oracle(values, w / w.sum(), lam)


class TestRankChainRows:
    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 4),
        n=st.sampled_from(list(range(2, 13)) + [63, 64, 65, 200]),
        kinds=st.lists(st.sampled_from(["random", "constant", "duplicate", "reversed", "ties"]), min_size=1, max_size=5),
        lam=st.one_of(st.sampled_from([1e-9, 0.01, 0.15, 0.9, 1 - 1e-6]), st.floats(1e-9, 1 - 1e-6)),
        zero_weight=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_degenerate_bases_match_the_dense_oracle(self, b, n, kinds, lam, zero_weight, seed):
        """Constant, duplicated and reversed features and ties leave V = [1; r_1; ...; r_k] rank-deficient;
        stacks of 1 to 4 contexts, restart rates out to the edge tests' 1e-9 and 1 - 1e-6."""
        rng = np.random.default_rng(seed)
        k = len(kinds)
        w = rng.random(k) + 0.05
        if zero_weight and k > 1:
            w[rng.integers(k)] = 0.0
        values = np.stack([degenerate_values(rng, kinds, n) for _ in range(b)])
        assert_kernel_matches_oracle(values, w / w.sum(), lam)

    def test_more_features_than_items(self):
        """n = 2 with k = 5: V has rank at most 2, yet the system stays nonsingular."""
        rng = np.random.default_rng(71)
        values = rng.random((3, 5, 2))
        w = rng.random(5) + 0.05
        assert_kernel_matches_oracle(values, w / w.sum(), 0.15)

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_items_tied_on_every_feature_get_equal_bits(self, n):
        rng = np.random.default_rng(72 + n)
        values = rng.random((4, 3, n))
        values[..., 1::3] = values[..., :1]  # every third item ties item 0 on every feature
        space = rank_space(average_ranks(values))
        probs, rows = per_context(*rank_chain_rows(space, np.array([0.5, 0.2, 0.15]), 0.15), 4, n)
        assert np.all(probs[:, 1::3] == probs[:, :1])
        assert np.all(rows[..., 1::3] == rows[..., :1])

    @pytest.mark.parametrize("lam", [1e-9, 1 - 1e-6])
    @pytest.mark.parametrize("n", [5, 200, 2000])
    def test_restart_rates_near_0_and_1_match_least_squares_and_inverse(self, n, lam):
        """A tied feature, a random one and a duplicate of the first, against an oracle built from the dense
        ``rank_chain`` slices: the stationary by ``lstsq`` of ``p (I - P) = 0, p 1 = 1`` and the rows
        ``p^T T_i inv(I - P + 1 p^T)``, one slice at a time so that n = 2000 holds few ``n x n`` arrays."""
        rng = np.random.default_rng(880 + n)
        ties = rng.integers(0, max(2, n // 40), n).astype(float)
        ranks = average_ranks(np.stack([ties, rng.random(n), ties]))
        native = np.array([0.5, 0.3, 0.2]) * (1.0 - lam)
        chain = np.full((n, n), lam / n)
        for weight, r in zip(native, ranks):
            chain += weight * rank_chain(r)
        system = np.vstack(((np.eye(n) - chain).T, np.ones((1, n))))
        p = np.linalg.lstsq(system, np.eye(n + 1)[-1], rcond=None)[0]
        z = np.linalg.inv(np.eye(n) - chain + p)
        expected = np.stack([(p @ rank_chain(r)) @ z for r in ranks])
        probs, rows = per_context(*rank_chain_rows(rank_space(ranks[None]), native, lam), 1, n)
        assert np.max(np.abs(probs[0] - p)) <= 1e-10 * np.max(p)
        assert np.max(np.abs(rows[0] - expected)) <= 1e-10 * np.max(np.abs(expected))

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 4),
        widths=st.lists(st.sampled_from([2, 3, 5, 63, 64, 65, 80, 200]), min_size=1, max_size=7),
        levels=st.sampled_from([2, 3, None]),
        lam=st.sampled_from([0.01, 0.15, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_context_gets_the_same_bits_alone_in_its_width_and_in_a_mixed_space(self, k, widths, levels, lam, seed):
        """Each context's stationary row and gradient rows, bit for bit: solved alone, in the stack of its width,
        in a space of every width and gathered from one in reverse; ``levels`` of 2 or 3 ties ranks heavily."""
        rng = np.random.default_rng(seed)
        contexts = [average_ranks(rng.random((k, n)) if levels is None else rng.integers(0, levels, (k, n)).astype(float))
                    for n in widths]
        w = rng.random(k) + 0.05
        native = w / w.sum() * (1.0 - lam)
        by_width = {}
        for c, n in enumerate(widths):
            by_width.setdefault(n, []).append(c)
        stacked = rank_space(*(np.stack([contexts[c] for c in members]) for members in by_width.values()))
        position = np.argsort(np.concatenate(list(by_width.values())), kind="stable")  # each context's place in it
        mixed, mixed_starts = context_space(contexts)
        gathered, gathered_starts = gather(stacked, position[::-1])
        spaces = [(rank_chain_rows(mixed, native, lam), mixed_starts), (rank_chain_rows(gathered, native, lam), gathered_starts[::-1])]
        for n, members in by_width.items():
            own = rank_chain_rows(rank_space(np.stack([contexts[c] for c in members])), native, lam)
            for j, c in enumerate(members):
                alone = [part.tobytes() for part in rank_chain_rows(rank_space(contexts[c][None]), native, lam)]
                for (probs, rows), start in [(own, j * n)] + [(outputs, starts[c]) for outputs, starts in spaces]:
                    assert [probs[start:start + n].tobytes(), rows[start:start + n].tobytes()] == alone

    def test_residual_check_refuses_a_wrong_space(self):
        """Ranks that do not sum to n (n + 1) / 2 give no stochastic chain, and the check says so."""
        ranks = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        space = rank_space(ranks)._replace(stacks=(ranks + 0.5,))
        with pytest.raises(NoUniqueStationary):
            rank_chain_rows(space, np.array([0.85]), 0.15)


class TestStationaryShift:
    def test_exact_identity(self):
        """The shift formula is exact, not first-order, for the new chain's Z."""
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            raw = rng.random((n, n)) + 0.1
            p_mat = raw / raw.sum(axis=1, keepdims=True)
            raw2 = rng.random((n, n)) + 0.1
            q_mat = raw2 / raw2.sum(axis=1, keepdims=True)
            p_chain = StochasticMatrix(p_mat)
            q_chain = StochasticMatrix(q_mat)
            p = stationary(p_chain)
            q = stationary(q_chain).probs
            shift = stationary_shift(p, q_mat - p_mat, fundamental_matrix(q_chain))
            assert_allclose(q - p.probs, shift, atol=1e-10)

    def test_shape_guard(self):
        p = stationary(two_state(0.5, 0.5))
        z = fundamental_matrix(two_state(0.5, 0.5))
        with pytest.raises(ShapeError):
            stationary_shift(p, np.zeros((3, 3)), z)
