"""Rank encoding, restriction, weighted combination and ranking."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import rankdata  # test-only oracle; rsm does not import scipy.stats

from rsm import (
    ContextTooSmall,
    DanglingItem,
    Direction,
    Normalization,
    ShapeError,
    WeightVector,
    combine,
    encode_rank_topology,
    rank_items,
    restrict,
    stationary,
)
import rsm.data
import rsm.evaluation
import rsm.learner
import rsm.topology
from rsm import StochasticMatrix, config
from rsm.topology import average_ranks, rank_chain

from conftest import random_reporting_weights, random_topologies

# Worked example used throughout: three machines with price and capacity.
PRICES = {"A": 20.0, "B": 50.0, "C": 95.0}
CAPS = {"A": 7.0, "B": 11.0, "C": 12.0}


def price_topology(items):
    return encode_rank_topology(
        [PRICES[i] for i in items], Direction.LOWER_IS_BETTER, tuple(items), "price"
    )


def cap_topology(items):
    return encode_rank_topology(
        [CAPS[i] for i in items], Direction.HIGHER_IS_BETTER, tuple(items), "capacity"
    )


class TestRankEncoding:
    def test_two_item_price_rows(self):
        # n=2: edge weight i->j = 2 + rank(j) - rank(i); A is the cheaper item
        t = price_topology(("A", "B"))
        assert_allclose(t.matrix.entries, [[2 / 3, 1 / 3], [3 / 5, 2 / 5]], atol=1e-15)

    def test_two_item_capacity_rows(self):
        t = cap_topology(("A", "B"))
        assert_allclose(t.matrix.entries, [[2 / 5, 3 / 5], [1 / 3, 2 / 3]], atol=1e-15)

    def test_three_item_price_rows(self):
        t = price_topology(("A", "B", "C"))
        expected = [
            [1 / 2, 1 / 3, 1 / 6],
            [4 / 9, 1 / 3, 2 / 9],
            [5 / 12, 1 / 3, 1 / 4],
        ]
        assert_allclose(t.matrix.entries, expected, atol=1e-15)

    def test_three_item_capacity_rows(self):
        # capacity ranks are the reverse of price ranks for these items
        t = cap_topology(("A", "B", "C"))
        expected = [
            [1 / 4, 1 / 3, 5 / 12],
            [2 / 9, 1 / 3, 4 / 9],
            [1 / 6, 1 / 3, 1 / 2],
        ]
        assert_allclose(t.matrix.entries, expected, atol=1e-15)

    def test_all_ties_give_uniform_rows(self):
        t = encode_rank_topology([3.0, 3.0, 3.0, 3.0])
        assert_allclose(t.matrix.entries, np.full((4, 4), 0.25), atol=1e-15)

    def test_partial_tie_uses_average_rank(self):
        # values (1, 2, 2): tied items share rank 2.5 under higher-is-better
        t = encode_rank_topology([1.0, 2.0, 2.0])
        # row of the worst item: weights (3, 4.5, 4.5) / 12
        assert_allclose(t.matrix.entries[0], [3 / 12, 4.5 / 12, 4.5 / 12], atol=1e-15)

    def test_monotone_invariance(self):
        """Any strictly increasing transform of the values leaves the matrix alone."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            vals = rng.random(n)
            base = encode_rank_topology(vals)
            for transform in (lambda v: 10.0 * v, lambda v: v + 5.0, np.exp):
                other = encode_rank_topology(transform(vals))
                assert_allclose(other.matrix.entries, base.matrix.entries, atol=1e-15)

    def test_direction_reverses_ranks(self):
        vals = [1.0, 4.0, 2.0]
        lo = encode_rank_topology(vals, Direction.LOWER_IS_BETTER)
        hi = encode_rank_topology([-v for v in vals], Direction.HIGHER_IS_BETTER)
        assert_allclose(lo.matrix.entries, hi.matrix.entries, atol=1e-15)

    def test_rows_are_stochastic_and_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            t = encode_rank_topology(rng.random(n))
            entries = t.matrix.entries
            assert np.all(entries > 0)
            assert_allclose(entries.sum(axis=1), np.ones(n), atol=1e-12)

    @given(
        values=st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)),
            min_size=2,
            max_size=30,
        ),
        direction=st.sampled_from(list(Direction)),
    )
    def test_ranks_match_rankdata_average(self, values, direction):
        vals = np.array(values)
        desirability = vals if direction is Direction.HIGHER_IS_BETTER else -vals
        ranks = rankdata(desirability, method="average")
        weights = len(vals) + ranks[None, :] - ranks[:, None]
        expected = weights / weights.sum(axis=1, keepdims=True)
        assert_array_equal(encode_rank_topology(vals, direction).matrix.entries, expected)

    def test_single_item_rejected(self):
        with pytest.raises(ContextTooSmall):
            encode_rank_topology([1.0])

    def test_item_ids_default_to_names(self):
        t = encode_rank_topology([0.3, 0.1])
        assert t.item_ids == ("item0", "item1")


def tied_values(seed, shape, levels):
    """Random values of the given shape with about half drawn from ``levels`` integers, forcing ties."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape)
    tied = rng.random(shape) < 0.5
    values[tied] = rng.integers(0, levels, size=int(tied.sum()))
    return values


STACKS = dict(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.one_of(st.integers(2, 80), st.sampled_from([63, 64, 65]))),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


class TestRankKernel:
    """``rank_chain(average_ranks(...))`` on ``(B, k, n)`` stacks, n crossing ``DIRECT_SOLVE_MAX_N``."""

    @settings(max_examples=60, deadline=None)
    @given(**STACKS)
    def test_every_slice_is_the_scalar_encoding_bit_for_bit(self, shape, levels, seed):
        values = tied_values(seed, shape, levels)
        for direction, desirability in ((Direction.HIGHER_IS_BETTER, values), (Direction.LOWER_IS_BETTER, -values)):
            entries = rank_chain(average_ranks(desirability))
            assert entries.shape == shape + shape[-1:]
            for b, i in np.ndindex(*shape[:2]):
                expected = encode_rank_topology(values[b, i], direction).matrix.entries
                assert entries[b, i].tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(**STACKS)
    def test_invariant_under_increasing_maps(self, shape, levels, seed):
        values = tied_values(seed, shape, levels)
        base = rank_chain(average_ranks(values))
        for transform in (lambda v: np.exp(v / 4.0), lambda v: v**3 + 10.0 * v - 2.0):
            assert rank_chain(average_ranks(transform(values))).tobytes() == base.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(**STACKS)
    def test_equivariant_under_permutation(self, shape, levels, seed):
        values = tied_values(seed, shape, levels)
        perm = np.random.default_rng(seed + 1).permutation(shape[-1])
        P = np.eye(shape[-1])[perm]  # (P v)_i = v[perm[i]]
        expected = P @ rank_chain(average_ranks(values)) @ P.T
        assert rank_chain(average_ranks(values[..., perm])).tobytes() == expected.tobytes()


    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, max_side=70),
            elements=st.sampled_from([-2.5, -0.0, 0.0, 1.0, 7.0]) | st.floats(-1e6, 1e6),
        )
    )
    def test_average_ranks_equal_rankdata_bit_for_bit(self, values):
        """Values drawn half from five levels (0.0 and -0.0 among them) force long tie runs."""
        assert average_ranks(values).tobytes() == rankdata(values, method="average", axis=-1).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(**STACKS)
    def test_topology_ranks_read_back_from_the_diagonal(self, shape, levels, seed):
        values = tied_values(seed, shape, levels)
        ranks = average_ranks(values)
        for b, i in np.ndindex(*shape[:2]):
            assert_array_equal(ranks[b, i], rankdata(values[b, i], method="average"))
            top = encode_rank_topology(values[b, i])
            assert top.ranks.tobytes() == ranks[b, i].tobytes() and not top.ranks.flags.writeable
            assert top.ranks is top.ranks  # read and checked once per object

    def test_a_chain_one_ulp_off_has_no_ranks(self):
        entries = price_topology(("A", "B", "C")).matrix.entries.copy()
        entries[1, 2] = np.nextafter(entries[1, 2], 1.0)
        edited = rsm.topology.Topology(feature="price", matrix=StochasticMatrix(entries), item_ids=("A", "B", "C"))
        with pytest.raises(ValueError, match="topology 'price' is not a rank chain"):
            edited.ranks


class TestRestrict:
    def test_restricted_topology_has_no_ranks(self):
        sub = restrict(price_topology(("A", "B", "C")), ("A", "B"))
        with pytest.raises(ValueError, match="'price'"):
            sub.ranks

    def test_restriction_renormalizes(self):
        t = price_topology(("A", "B", "C"))
        sub = restrict(t, ("A", "C"))
        assert sub.item_ids == ("A", "C")
        # A row was (1/2, _, 1/6): keep (1/2, 1/6), renormalize to (3/4, 1/4)
        assert_allclose(sub.matrix.entries[0], [3 / 4, 1 / 4], atol=1e-15)
        assert_allclose(sub.matrix.entries.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_restriction_differs_from_direct_encoding(self):
        # restricting the 3-item topology is not the same as encoding 2 items
        sub = restrict(price_topology(("A", "B", "C")), ("A", "B"))
        direct = price_topology(("A", "B"))
        assert np.max(np.abs(sub.matrix.entries - direct.matrix.entries)) > 1e-3

    def test_subset_too_small(self):
        with pytest.raises(ContextTooSmall):
            restrict(price_topology(("A", "B", "C")), ("A",))

    def test_unknown_item(self):
        with pytest.raises(ValueError):
            restrict(price_topology(("A", "B", "C")), ("A", "Z"))

    def test_dangling_item(self):
        # build a topology whose A->{A,C} mass is zero, then restrict to {A, C}
        from rsm import StochasticMatrix, Topology

        entries = np.array([[0.0, 1.0, 0.0], [0.3, 0.4, 0.3], [0.0, 1.0, 0.0]])
        t = Topology(feature="f", matrix=StochasticMatrix(entries), item_ids=("A", "B", "C"))
        with pytest.raises(DanglingItem):
            restrict(t, ("A", "C"))


def two_feature_instances():
    spec = rsm.data.SyntheticSpec(k=2, num_queries=2, weights=WeightVector(np.array([0.6, 0.4])))
    return rsm.data.generate_synthetic(spec).instances


class TestWeightVector:
    def test_reporting_native_round_trip(self):
        w = WeightVector(np.array([0.6, 0.4]))
        native = w.as_native(0.15)
        assert native.normalization is Normalization.SUMS_TO_ONE_MINUS_LAMBDA
        assert_allclose(native.values, [0.51, 0.34], atol=1e-15)
        back = native.as_reporting()
        assert_allclose(back.values, w.values, atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.6, 0.6]))

    def test_native_requires_lam(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.51, 0.34]), Normalization.SUMS_TO_ONE_MINUS_LAMBDA)

    ENTRIES = {
        "as_native": lambda w, lam: w.as_native(lam),
        "sample_error": lambda w, lam: rsm.learner.sample_error(two_feature_instances(), w, lam),
        "linearized_row": lambda w, lam: rsm.learner.linearized_row(two_feature_instances()[0], w, lam),
        "SyntheticSpec": lambda w, lam: rsm.data.SyntheticSpec(k=2, num_queries=2, weights=w, lam=lam),
        "generate_flip_dataset": lambda w, lam: rsm.data.generate_flip_dataset(2, w, lam),
        "fixed_weights_model": lambda w, lam: rsm.evaluation.fixed_weights_model(rsm.data.synthetic_schema(2), w, lam).fit([]),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_every_kernel_entry_refuses_native_weights_and_a_bad_lam(self, entry):
        """Each way into the rank kernel converts through ``as_native``, and so gives its one error for each."""
        native = WeightVector(np.array([0.51, 0.34]), Normalization.SUMS_TO_ONE_MINUS_LAMBDA, lam=0.15)
        with pytest.raises(ValueError, match=r"^expected reporting-form weights; convert with as_reporting\(\)$"):
            self.ENTRIES[entry](native, 0.15)
        with pytest.raises(ValueError, match=r"^lam must lie in \(0, 1\)$"):
            self.ENTRIES[entry](WeightVector(np.array([0.6, 0.4])), 1.5)

    @pytest.mark.parametrize("lam", [1.5, 2.0, float("nan")])
    def test_as_native_names_a_bad_lam(self, lam):
        """``lam`` is checked before the values it scales, which it would make negative or NaN."""
        with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\)"):
            WeightVector(np.array([0.6, 0.4])).as_native(lam)


class TestCombine:
    def test_restart_floor(self):
        """Every transition keeps at least lam/n mass from the uniform restart."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, 5))
            items = tuple(range(n))
            tops = tuple(encode_rank_topology(rng.random(n), item_ids=items) for _ in range(k))
            vals = rng.random(k) + 0.01
            weights = WeightVector(vals / vals.sum())
            lam = float(rng.uniform(0.05, 0.5))
            combined = combine(tops, weights, lam)
            assert np.all(combined.entries >= lam / n - 1e-15)
            assert_allclose(combined.entries.sum(axis=1), np.ones(n), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 5, 64, 65, 200]),
        lam=st.sampled_from([1e-3, 0.15, 0.999]),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_meets_every_stochastic_matrix_invariant(self, n, lam, k, seed):
        """combine skips StochasticMatrix's checks, so its output must pass them by construction."""
        rng = np.random.default_rng(seed)
        tops = random_topologies(rng, n, k)
        combined = combine(tops, random_reporting_weights(rng, k), lam)
        entries = combined.entries
        assert entries.dtype == np.float64 and entries.shape == (n, n)
        assert not entries.flags.writeable
        assert np.all(np.isfinite(entries))
        assert np.all(entries >= lam / n)
        assert np.max(np.abs(entries.sum(axis=1) - 1.0)) <= config.ROW_SUM_TOL
        assert not any(np.shares_memory(entries, t.matrix.entries) for t in tops)
        assert_array_equal(StochasticMatrix(entries).entries, entries)

    def test_closed_form_two_items(self):
        # single topology, n=2: P = lam/2 + (1-lam) * T
        t = price_topology(("A", "B"))
        combined = combine((t,), WeightVector(np.array([1.0])), 0.2)
        expected = 0.1 + 0.8 * t.matrix.entries
        assert_allclose(combined.entries, expected, atol=1e-15)

    def test_mismatched_items_rejected(self):
        t1 = price_topology(("A", "B"))
        t2 = cap_topology(("A", "C"))
        with pytest.raises(ShapeError):
            combine((t1, t2), WeightVector(np.array([0.5, 0.5])), 0.15)

    def test_weight_arity_checked(self):
        t = price_topology(("A", "B"))
        with pytest.raises(ShapeError):
            combine((t,), WeightVector(np.array([0.5, 0.5])), 0.15)

    def test_native_weights_rejected(self):
        t1, t2 = price_topology(("A", "B")), cap_topology(("A", "B"))
        native = WeightVector(np.array([0.6, 0.4])).as_native(0.15)
        with pytest.raises(ValueError):
            combine((t1, t2), native, 0.15)


class TestRankItems:
    def test_sorted_by_probability_then_id(self):
        t1, t2 = price_topology(("A", "B")), cap_topology(("A", "B"))
        combined = combine((t1, t2), WeightVector(np.array([0.6, 0.4])), 0.15)
        ranked = rank_items(combined, ("A", "B"))
        assert [item for item, _ in ranked] == ["A", "B"]
        probs = stationary(combined).probs
        assert_allclose([p for _, p in ranked], sorted(probs, reverse=True), atol=1e-15)

    def test_tie_breaks_lexicographically(self):
        ranked = rank_items(StochasticMatrix(np.full((3, 3), 1.0 / 3)), ("c", "a", "b"))
        assert [item for item, _ in ranked] == ["a", "b", "c"]

    def test_ties_are_measured_from_the_first_item_of_the_group(self):
        """a-b and b-c lie within the tolerance, a-c beyond it: c opens a new group."""
        tol = config.RANK_TIE_TOL
        probs = np.array([0.3, 0.3 - 0.6 * tol, 0.3 - 1.2 * tol])
        ranked = ranked_with_probs(probs, ("z", "y", "x"))
        assert [item for item, _ in ranked] == ["y", "z", "x"]

    def test_a_gap_of_exactly_the_tolerance_ties(self):
        """Gaps between normal-sized floats never equal 1e-12 exactly; at this scale they can."""
        tol = config.RANK_TIE_TOL
        probs = np.array([1.0 - 2.5e-12 - 1.5e-12, 2.5e-12, 2.5e-12 - tol])
        assert probs[1] - probs[2] == tol
        ranked = ranked_with_probs(probs, ("c", "b", "a"))
        assert [item for item, _ in ranked] == ["c", "a", "b"]
        assert exact(ranked) == exact(oracle_rank_order(probs, ("c", "b", "a")))

    @settings(max_examples=200, deadline=None)
    @given(n=st.one_of(st.integers(1, 80), st.sampled_from([63, 64, 65, 200])), seed=st.integers(0, 2**32 - 1))
    def test_grouping_matches_the_old_loop_on_forced_near_ties(self, n, seed):
        probs, ids = near_tie_probs(seed, n)
        assert exact(ranked_with_probs(probs, ids)) == exact(oracle_rank_order(probs, ids))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 80), st.sampled_from([63, 64, 65, 200])),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_old_loop_on_chains_with_tied_items(self, n, k, seed):
        """Items tied on every feature get stationary masses equal up to roundoff."""
        rng = np.random.default_rng(seed)
        values = tied_values(seed, (k, n), 3)
        for _ in range(n // 3):
            values[:, rng.integers(n)] = values[:, rng.integers(n)]  # tie two items on every feature
        ids = shuffled_ids(rng, n)
        tops = [encode_rank_topology(values[i], item_ids=ids, feature=f"f{i}") for i in range(k)]
        raw = rng.random(k) + 0.01
        combined = combine(tops, WeightVector(raw / raw.sum()), float(rng.uniform(0.01, 0.99)))
        expected = oracle_rank_order(stationary(combined).probs, ids)
        assert exact(rank_items(combined, ids)) == exact(expected)

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_lam_near_zero_still_ranks_a_distribution(self, n):
        ids, combined = reversed_id_chain(n, 1e-12)
        ranked = rank_items(combined, ids)
        assert abs(math.fsum(p for _, p in ranked) - 1.0) <= config.DIST_SUM_TOL
        assert exact(ranked) == exact(oracle_rank_order(stationary(combined).probs, ids))

    @pytest.mark.parametrize("n", [5, 64, 65, 200])
    def test_lam_near_one_ties_every_item(self, n):
        """At lam = 1 - 1e-12 the chain is uniform up to the tolerance: one group, listed by id."""
        ids, combined = reversed_id_chain(n, 1.0 - 1e-12)
        ranked = rank_items(combined, ids)
        probs = [p for _, p in ranked]
        assert max(probs) - min(probs) <= config.RANK_TIE_TOL
        assert [item for item, _ in ranked] == sorted(ids)


class TestMixChains:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 80), st.sampled_from([200])),
        k=st.integers(1, 4),
        lam=st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.sampled_from([1e-12, 0.15, 1.0 - 1e-12])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_combine_repeats_the_old_arithmetic_bit_for_bit(self, n, k, lam, seed):
        rng = np.random.default_rng(seed)
        tops = [StochasticMatrix(m / m.sum(axis=1, keepdims=True)) for m in rng.random((k, n, n)) + 1e-3]
        raw = rng.random(k) + 0.01
        weights = WeightVector(raw / raw.sum())
        expected = oracle_combine_entries([t.entries for t in tops], weights.values, lam)
        ids = tuple(range(n))
        topologies = [rsm.topology.Topology(feature=f"f{i}", matrix=m, item_ids=ids) for i, m in enumerate(tops)]
        assert combine(topologies, weights, lam).entries.tobytes() == expected.tobytes()


def oracle_rank_order(probs, item_ids, tie_tol=1e-12):
    """The grouping loop of ``rank_items`` before it was vectorised, copied verbatim."""
    by_prob = sorted(range(len(item_ids)), key=lambda i: -probs[i])
    order: list = []
    group: list = [by_prob[0]]
    for i in by_prob[1:]:
        if probs[group[0]] - probs[i] <= tie_tol:
            group.append(i)
        else:
            order.extend(sorted(group, key=lambda g: item_ids[g]))
            group = [i]
    order.extend(sorted(group, key=lambda g: item_ids[g]))
    return [(item_ids[i], float(probs[i])) for i in order]


def oracle_combine_entries(stack, weights, lam):
    """``combine``'s mixing arithmetic before it mixed in place, copied verbatim."""
    n = stack[0].shape[0]
    mix = np.zeros((n, n))
    for w, entries in zip(weights, stack):
        mix += w * entries
    return lam / n + (1.0 - lam) * mix


def exact(ranking):
    """A ranking with each probability spelled out bit for bit."""
    return [(item, type(p), p.hex()) for item, p in ranking]


def ranked_with_probs(probs, ids):
    """``rank_items`` on a chain whose stationary vector is exactly ``probs``."""
    with mock.patch.object(rsm.topology, "stationary", lambda matrix: SimpleNamespace(probs=probs)):
        return rank_items(StochasticMatrix(np.full((len(ids), len(ids)), 1.0 / len(ids))), ids)


def shuffled_ids(rng, n):
    return tuple(f"i{j:03d}" for j in rng.permutation(n))


def near_tie_probs(seed, n):
    """Descending values whose gaps are 0, 1e-13, 2e-12, large, or straddle the tolerance, shuffled.

    A straddling gap is the largest one that still ties with the previous
    value, or the smallest one that does not, so runs of them also build
    chained ties (a-b and b-c tied, a-c not).
    """
    rng = np.random.default_rng(seed)
    tol = config.RANK_TIE_TOL
    values = [float(rng.uniform(1.0, 2.0)) / n]
    for _ in range(n - 1):
        v = values[-1]
        kind = rng.integers(6)
        if kind == 4:  # tied with v, or just not
            x = v - tol
            while v - x > tol:
                x = np.nextafter(x, np.inf)
            x = float(np.nextafter(x, -np.inf)) if rng.integers(2) else float(x)
        elif kind == 5:
            x = v * (1.0 - float(rng.uniform(1e-3, 2e-2)))
        else:
            x = v - (0.0, 1e-13, tol, 2e-12)[kind]
        values.append(x)
    return np.array(values)[rng.permutation(n)], shuffled_ids(rng, n)


def reversed_id_chain(n, lam):
    """Three random rank topologies over ids listed in reverse order, mixed at ``lam``."""
    rng = np.random.default_rng(8000 + n)
    ids = tuple(f"i{j:03d}" for j in reversed(range(n)))
    tops = [
        encode_rank_topology(rng.random(n), direction, ids, f"f{i}")
        for i, direction in enumerate((Direction.HIGHER_IS_BETTER, Direction.LOWER_IS_BETTER, Direction.HIGHER_IS_BETTER))
    ]
    return ids, combine(tops, WeightVector(np.array([0.5, 0.3, 0.2])), lam)
