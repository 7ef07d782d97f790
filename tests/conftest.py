"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from helpers.graphs import generate_small_world, generate_star
from repro.graph import generate_facebook_like, load_dataset
from repro.graph.splits import split_edges, split_nodes


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator shared by tests that only need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_graph():
    """A 60-node small-world graph with labels (fast, deterministic)."""
    return generate_small_world(num_nodes=60, k=4, num_features=6, num_classes=2, seed=3)


@pytest.fixture(scope="session")
def star_graph():
    """A 1-centre / 6-leaf star graph — the canonical degree-skew case."""
    return generate_star(num_leaves=6, num_features=4, seed=1)


@pytest.fixture(scope="session")
def social_graph():
    """A 200-node synthetic Facebook-like graph (heavy-tailed, homophilous)."""
    return generate_facebook_like(seed=7, num_nodes=200)


@pytest.fixture(scope="session")
def node_split(small_graph):
    """A 50/25/25 node split of the small graph."""
    return split_nodes(small_graph, seed=0)


@pytest.fixture(scope="session")
def edge_split(small_graph):
    """An 80/5/15 edge split of the small graph."""
    return split_edges(small_graph, seed=0)
