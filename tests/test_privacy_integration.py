"""Integration tests for the privacy guarantees (paper Section VII).

These tests check the *system-level* privacy behaviour rather than the
individual mechanisms: what actually leaves a device during tree construction
and embedding initialisation, and that it matches what Theorems 4 and 5 allow.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LDPEmbeddingInitializer,
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
)
from repro.crypto import (
    OneBitMechanism,
    TranscriptAccountant,
    verify_zero_knowledge_transcript,
)
from repro.federation import FederatedEnvironment, MessageKind
from repro.graph import generate_facebook_like


@pytest.fixture(scope="module")
def privacy_graph():
    return generate_facebook_like(seed=21, num_nodes=100).normalized_features(0.0, 1.0)


class TestFeaturePrivacy:
    """Theorem 4: the embedding initialisation protects epsilon-LDP."""

    def test_per_element_budget_composes_to_epsilon(self):
        """d/wl elements per neighbour, each at eps*wl/d, compose to eps."""
        epsilon, dimension, workload = 2.0, 128, 8
        mechanism = OneBitMechanism(epsilon=epsilon)
        per_element = mechanism.per_element_epsilon(workload, dimension)
        elements_per_bin = dimension / workload
        assert per_element * elements_per_bin == pytest.approx(epsilon)

    def test_transmitted_symbols_are_discrete(self, privacy_graph):
        """Only the ternary alphabet {0, 0.5, 1} ever leaves a device."""
        mechanism = OneBitMechanism(epsilon=2.0)
        rng = np.random.default_rng(0)
        feature = privacy_graph.features[0]
        mask = np.zeros(feature.shape[0], dtype=bool)
        mask[::4] = True
        encoded = mechanism.encode(feature, workload=4, selected=mask, rng=rng)
        assert set(np.unique(encoded)) <= {0.0, 0.5, 1.0}

    def test_receivers_cannot_reconstruct_raw_features(self, privacy_graph):
        environment = FederatedEnvironment.from_graph(privacy_graph, seed=0)
        construction = TreeConstructor(
            TreeConstructorConfig(mcmc_iterations=20), rng=np.random.default_rng(0)
        ).construct(environment)
        initializer = LDPEmbeddingInitializer(epsilon=2.0, rng=np.random.default_rng(1))
        initialization = initializer.run(environment, construction.assignment)
        for receiver, per_sender in initialization.received_features.items():
            for sender, received in per_sender.items():
                raw = privacy_graph.features[sender]
                # The received vector is a noisy, partially-neutral estimate,
                # never the raw vector itself.
                assert not np.allclose(received, raw, atol=1e-6)

    def test_smaller_epsilon_gives_larger_recovery_spread(self):
        mechanism_tight = OneBitMechanism(epsilon=0.5)
        mechanism_loose = OneBitMechanism(epsilon=4.0)
        spread_tight = mechanism_tight.recover(np.array([1.0]), workload=1, dimension=16)[0]
        spread_loose = mechanism_loose.recover(np.array([1.0]), workload=1, dimension=16)[0]
        # The recovered "1" symbol sits farther from the midpoint under a
        # tighter budget (higher variance, same mean).
        assert spread_tight > spread_loose


class TestDegreePrivacy:
    """Theorem 5 / Definition 2: degree comparisons are zero-knowledge."""

    def test_greedy_transcript_reveals_only_sizes(self, privacy_graph):
        environment = FederatedEnvironment.from_graph(privacy_graph, seed=0)
        accountant = TranscriptAccountant()
        greedy_initialization(environment, accountant=accountant, rng=np.random.default_rng(0))
        assert verify_zero_knowledge_transcript(accountant)

    def test_ledger_messages_carry_no_degree_payload(self, privacy_graph):
        """Secure-comparison ledger entries record only byte counts."""
        environment = FederatedEnvironment.from_graph(privacy_graph, seed=0)
        greedy_initialization(environment, rng=np.random.default_rng(0))
        degree_values = set(int(d) for d in privacy_graph.degrees())
        for message in environment.ledger.messages:
            if message.kind is MessageKind.SECURE_COMPARISON:
                assert "deg" not in message.description or "comparison" in message.description
                # Message sizes are protocol transcript sizes, orders of
                # magnitude larger than any plausible raw degree encoding.
                assert message.size_bytes > max(degree_values)

    def test_server_only_sees_candidate_ids(self, privacy_graph):
        """Alg. 3: the server learns which devices are candidates, not workloads."""
        from helpers.oracles import find_max_workload_device
        from repro.core import Assignment

        environment = FederatedEnvironment.from_graph(privacy_graph, seed=0)
        assignment = Assignment.full(privacy_graph)
        find_max_workload_device(environment, assignment, per_device_ledger=True)
        server_messages = [
            message for message in environment.ledger.messages
            if message.kind is MessageKind.SERVER_COORDINATION
        ]
        assert server_messages, "Alg. 3 must involve the server"
        assert all(message.size_bytes <= 1 for message in server_messages)

    def test_labels_never_enter_the_ledger(self, privacy_graph):
        """Labels are used locally only (paper §IV-B): no label-bearing messages."""
        environment = FederatedEnvironment.from_graph(privacy_graph, seed=0)
        construction = TreeConstructor(
            TreeConstructorConfig(mcmc_iterations=10), rng=np.random.default_rng(0)
        ).construct(environment)
        initializer = LDPEmbeddingInitializer(epsilon=2.0, rng=np.random.default_rng(1))
        initializer.run(environment, construction.assignment)
        descriptions = {message.description for message in environment.ledger.messages}
        assert all("label" not in description for description in descriptions)
