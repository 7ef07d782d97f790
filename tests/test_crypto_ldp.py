"""Tests for the local differential privacy mechanisms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.oracles import FeatureBinPartitioner

from repro.crypto import (
    FeatureBounds,
    GaussianMechanism,
    OneBitMechanism,
    RandomizedResponse,
)


@pytest.mark.parametrize(
    "mechanism", [OneBitMechanism, GaussianMechanism, RandomizedResponse], ids=lambda m: m.__name__
)
@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_every_mechanism_rejects_a_non_finite_or_non_positive_epsilon(mechanism, epsilon):
    # NaN and inf pass a bare ``epsilon <= 0`` test, and would release data
    # under no meaningful guarantee.
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        mechanism(epsilon)


class TestFeatureBounds:
    def test_properties(self):
        bounds = FeatureBounds(-1.0, 3.0)
        assert bounds.midpoint == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureBounds(1.0, 1.0)


class TestOneBitMechanism:
    def test_probability_formula_matches_eq26(self):
        mechanism = OneBitMechanism(epsilon=2.0)
        eps_prime = mechanism.per_element_epsilon(workload=4, dimension=8)
        assert eps_prime == pytest.approx(1.0)
        probability = mechanism.probability_one(np.array([0.0, 1.0, 0.5]), eps_prime)
        e = np.e
        np.testing.assert_allclose(
            probability,
            [1 / (e + 1), 1 / (e + 1) + (e - 1) / (e + 1), 1 / (e + 1) + 0.5 * (e - 1) / (e + 1)],
        )

    def test_encode_outputs_bits(self):
        mechanism = OneBitMechanism(epsilon=2.0)
        rng = np.random.default_rng(0)
        encoded = mechanism.encode(np.linspace(0, 1, 50), workload=5, rng=rng)
        assert set(np.unique(encoded)) <= {0.0, 1.0}

    def test_encode_with_selection_mask_uses_neutral_symbol(self):
        mechanism = OneBitMechanism(epsilon=2.0)
        rng = np.random.default_rng(0)
        values = np.linspace(0, 1, 10)
        mask = np.zeros(10, dtype=bool)
        mask[:3] = True
        encoded = mechanism.encode(values, workload=2, selected=mask, rng=rng)
        assert np.all(encoded[~mask] == OneBitMechanism.NEUTRAL)
        assert set(np.unique(encoded[mask])) <= {0.0, 1.0}

    def test_recover_maps_neutral_to_midpoint(self):
        mechanism = OneBitMechanism(epsilon=2.0, bounds=FeatureBounds(0.0, 1.0))
        recovered = mechanism.recover(np.array([0.5, 0.5]), workload=3, dimension=2)
        np.testing.assert_allclose(recovered, [0.5, 0.5])

    def test_recovery_is_unbiased(self):
        """Theorem 3: E[x''] == x for every encoded element."""
        mechanism = OneBitMechanism(epsilon=2.0)
        rng = np.random.default_rng(0)
        true_value = 0.3
        values = np.full(40_000, true_value)
        recovered = mechanism.encode_and_recover(values, workload=4, dimension=8, rng=rng)
        assert recovered.mean() == pytest.approx(true_value, abs=0.02)

    @given(st.floats(0.05, 0.95), st.floats(0.5, 6.0), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_unbiasedness_property(self, true_value, epsilon, workload):
        mechanism = OneBitMechanism(epsilon=epsilon)
        eps_prime = mechanism.per_element_epsilon(workload, dimension=workload * 3)
        p1 = mechanism.probability_one(np.array([true_value]), eps_prime)[0]
        recovered_one = mechanism.recover(np.array([1.0]), workload, dimension=workload * 3)[0]
        recovered_zero = mechanism.recover(np.array([0.0]), workload, dimension=workload * 3)[0]
        expectation = p1 * recovered_one + (1 - p1) * recovered_zero
        assert expectation == pytest.approx(true_value, abs=1e-9)

    def test_smaller_epsilon_means_more_noise(self):
        rng = np.random.default_rng(1)
        values = np.full(20_000, 0.8)
        noisy = OneBitMechanism(0.5).encode_and_recover(values, workload=1, rng=np.random.default_rng(1))
        cleaner = OneBitMechanism(8.0).encode_and_recover(values, workload=1, rng=np.random.default_rng(1))
        assert np.var(noisy) > np.var(cleaner)

    def test_ldp_inequality_holds(self):
        """Definition 1: Pr[R(x)=y] <= e^eps Pr[R(x')=y] for the per-element encoder."""
        epsilon = 1.5
        mechanism = OneBitMechanism(epsilon=epsilon)
        # Single element with the whole budget (workload=d so eps' = eps).
        p_x = mechanism.probability_one(np.array([1.0]), epsilon)[0]
        p_xp = mechanism.probability_one(np.array([0.0]), epsilon)[0]
        for a, b in ((p_x, p_xp), (p_xp, p_x), (1 - p_x, 1 - p_xp), (1 - p_xp, 1 - p_x)):
            assert a <= np.exp(epsilon) * b + 1e-12

    def test_validation(self):
        mechanism = OneBitMechanism(epsilon=1.0)
        with pytest.raises(ValueError):
            mechanism.per_element_epsilon(0, 5)
        with pytest.raises(ValueError):
            mechanism.encode(np.ones(4), workload=2, selected=np.ones(3, dtype=bool))

    def test_values_outside_bounds_are_clipped(self):
        mechanism = OneBitMechanism(epsilon=2.0)
        probability = mechanism.probability_one(np.array([-5.0, 5.0]), 2.0)
        assert 0.0 <= probability[0] <= probability[1] <= 1.0


class TestFeatureBinPartitioner:
    def test_bins_partition_all_indices(self):
        partitioner = FeatureBinPartitioner(dimension=37, num_bins=5, rng=np.random.default_rng(0))
        union = np.zeros(37, dtype=int)
        for mask in partitioner.masks():
            union += mask.astype(int)
        np.testing.assert_array_equal(union, np.ones(37, dtype=int))

    def test_single_bin_contains_everything(self):
        partitioner = FeatureBinPartitioner(dimension=10, num_bins=1)
        assert partitioner.mask_for_bin(0).all()

    def test_invalid_bin_index(self):
        partitioner = FeatureBinPartitioner(dimension=10, num_bins=2)
        with pytest.raises(ValueError):
            partitioner.mask_for_bin(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureBinPartitioner(0, 2)
        with pytest.raises(ValueError):
            FeatureBinPartitioner(4, 0)


class TestGaussianMechanism:
    def test_sigma_decreases_with_epsilon(self):
        assert GaussianMechanism(4.0).sigma < GaussianMechanism(0.5).sigma

    def test_noise_distribution(self):
        mechanism = GaussianMechanism(epsilon=1.0, delta=1e-5)
        rng = np.random.default_rng(0)
        noisy = mechanism.randomize(np.zeros(50_000), rng=rng)
        assert abs(noisy.mean()) < 0.05 * mechanism.sigma + 1e-9
        assert abs(noisy.std() - mechanism.sigma) < 0.05 * mechanism.sigma

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            GaussianMechanism(1.0, delta=2.0)


class TestRandomizedResponse:
    def test_keep_probability_formula(self):
        mechanism = RandomizedResponse(epsilon=np.log(3), num_categories=2)
        assert mechanism.keep_probability == pytest.approx(0.75)

    def test_flipped_values_are_valid_categories(self):
        rng = np.random.default_rng(0)
        for categories in (2, 5):
            mechanism = RandomizedResponse(epsilon=0.5, num_categories=categories)
            values = rng.integers(categories, size=1000)
            noisy = mechanism.randomize(values, rng=rng)
            assert noisy.min() >= 0 and noisy.max() < categories

    def test_empirical_keep_rate(self):
        mechanism = RandomizedResponse(epsilon=1.0, num_categories=4)
        rng = np.random.default_rng(1)
        values = np.zeros(30_000, dtype=int)
        noisy = mechanism.randomize(values, rng=rng)
        assert abs((noisy == 0).mean() - mechanism.keep_probability) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomizedResponse(1.0, num_categories=1)

    @given(st.floats(0.2, 5.0), st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_keep_probability_satisfies_ldp_bound(self, epsilon, categories):
        mechanism = RandomizedResponse(epsilon, categories)
        p_keep = mechanism.keep_probability
        p_other = (1 - p_keep) / (categories - 1)
        assert p_keep <= np.exp(epsilon) * p_other + 1e-12
