"""Synthetic social-graph generators standing in for the paper's datasets.

The paper evaluates on two public social graphs:

* **Facebook Page-Page** — 22,470 vertices, 170,912 edges, 4,714 binary
  features (page-description words), 4 classes (page category).
* **LastFM Asia** — 7,624 vertices, 55,612 edges, 128 binary features
  (preferred artists), 18 classes (nationality).

Both are downloads from SNAP / the original authors, which this offline
environment cannot fetch.  The generators below create graphs with the same
*qualitative* properties that drive the paper's results:

* a heavy-tailed (power-law-like) degree distribution — this is what causes
  the degree heterogeneity / workload-imbalance problem Lumos addresses;
* community structure with **label homophily** — neighbouring vertices tend
  to share labels, which is what lets any GNN beat a feature-only model;
* **feature-label correlation** — sparse binary features whose active set
  depends on the class, mimicking bag-of-words page descriptions / artist
  preference vectors.

Node counts default to scaled-down values so the pure-numpy pipeline stays
fast; the full-size counts can be requested explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class SocialGraphSpec:
    """Parameters of a synthetic social graph."""

    num_nodes: int
    num_features: int
    num_classes: int
    average_degree: float
    power_law_exponent: float
    homophily: float
    feature_signal: float
    name: str


FACEBOOK_SPEC = SocialGraphSpec(
    num_nodes=2247,          # 1/10 of the real graph; pass num_nodes to rescale
    num_features=128,        # compressed bag-of-words; real graph has 4,714
    num_classes=4,
    average_degree=15.2,     # 2 * 170,912 / 22,470 ≈ 15.2
    power_law_exponent=2.3,
    homophily=0.82,
    feature_signal=0.35,
    name="synthetic-facebook",
)

LASTFM_SPEC = SocialGraphSpec(
    num_nodes=1525,          # 1/5 of the real graph
    num_features=128,
    num_classes=18,
    average_degree=14.6,     # 2 * 55,612 / 7,624 ≈ 14.6
    power_law_exponent=2.1,
    homophily=0.78,
    feature_signal=0.4,
    name="synthetic-lastfm",
)


def power_law_degree_sequence(
    num_nodes: int,
    average_degree: float,
    exponent: float,
    rng: np.random.Generator,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
) -> np.ndarray:
    """Sample an integer degree sequence with a Pareto-like tail.

    The sequence is rescaled so its mean matches ``average_degree`` and its
    sum is even (required to realise it as a graph).
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if max_degree is None:
        max_degree = max(min_degree + 1, num_nodes // 4)
    raw = (rng.pareto(exponent - 1.0, size=num_nodes) + 1.0) * min_degree
    raw = raw * (average_degree / max(raw.mean(), 1e-9))
    degrees = np.clip(np.round(raw).astype(np.int64), min_degree, max_degree)
    if degrees.sum() % 2 == 1:
        degrees[int(np.argmin(degrees))] += 1
    return degrees


def _assign_communities(num_nodes: int, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Assign each vertex to a community with mildly unequal sizes."""
    weights = rng.dirichlet(np.full(num_classes, 4.0))
    return rng.choice(num_classes, size=num_nodes, p=weights)


def _sample_edges(
    degrees: np.ndarray,
    communities: np.ndarray,
    homophily: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Wire edges with a Chung-Lu style model biased towards same-community pairs.

    Each vertex receives a number of "stubs" proportional to its target
    degree; stubs are matched preferentially within the same community with
    probability ``homophily``.
    """
    num_nodes = degrees.shape[0]
    num_classes = int(communities.max()) + 1
    members = [np.where(communities == c)[0] for c in range(num_classes)]
    target_edges = int(degrees.sum() // 2)
    # ``rng.choice(pool, p=p)`` draws ``pool[cdf.searchsorted(rng.random(),
    # side="right")]``; the CDFs are built once here instead of per draw.
    cdf = _choice_cdf(degrees.astype(np.float64) / degrees.sum())
    local_cdfs = [
        _choice_cdf(degrees[pool] / degrees[pool].sum()) if pool.shape[0] >= 2 else None
        for pool in members
    ]

    edge_set = set()
    attempts = 0
    max_attempts = target_edges * 30
    while len(edge_set) < target_edges and attempts < max_attempts:
        attempts += 1
        u = int(cdf.searchsorted(rng.random(), side="right"))
        if rng.random() < homophily:
            community = communities[u]
            local_cdf = local_cdfs[community]
            if local_cdf is None:
                continue
            v = int(members[community][local_cdf.searchsorted(rng.random(), side="right")])
        else:
            v = int(cdf.searchsorted(rng.random(), side="right"))
        if u == v:
            continue
        edge_set.add((min(u, v), max(u, v)))

    edges = np.asarray(sorted(edge_set), dtype=np.int64).reshape(-1, 2)
    return _connect_isolated(edges, num_nodes, rng)


def _choice_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The normalised CDF ``Generator.choice`` builds from ``p``, after its checks."""
    tolerance = np.sqrt(np.finfo(np.float64).eps)
    if np.any(probabilities < 0) or abs(probabilities.sum() - 1.0) > tolerance:
        raise ValueError("probabilities must be non-negative and sum to 1")
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


def _connect_isolated(edges: np.ndarray, num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """Attach any isolated vertex to a random other vertex.

    Every device must have at least one neighbour for the ego-network setting
    to make sense (a degree-0 device has no edges to train on).
    """
    degree = np.zeros(num_nodes, dtype=np.int64)
    if edges.size:
        np.add.at(degree, edges[:, 0], 1)
        np.add.at(degree, edges[:, 1], 1)
    isolated = np.where(degree == 0)[0]
    extra = []
    for vertex in isolated:
        other = int(rng.integers(num_nodes - 1))
        if other >= vertex:
            other += 1
        extra.append((min(int(vertex), other), max(int(vertex), other)))
    if extra:
        edges = np.concatenate([edges.reshape(-1, 2), np.asarray(extra, dtype=np.int64)], axis=0)
    return edges


def _sample_features(
    communities: np.ndarray,
    num_features: int,
    feature_signal: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sparse binary features whose active set correlates with the community.

    Each class owns a block of "preferred" feature indices; a vertex activates
    preferred indices with elevated probability and background indices with a
    small base rate, mimicking bag-of-words / preferred-artist indicators.
    """
    num_nodes = communities.shape[0]
    num_classes = int(communities.max()) + 1
    block = max(1, num_features // max(num_classes, 1))
    base_rate = 0.02
    features = (rng.random((num_nodes, num_features)) < base_rate).astype(np.float64)
    for c in range(num_classes):
        rows = np.where(communities == c)[0]
        start = (c * block) % num_features
        stop = min(start + block, num_features)
        preferred = np.arange(start, stop)
        activation = rng.random((rows.shape[0], preferred.shape[0])) < (base_rate + feature_signal)
        features[np.ix_(rows, preferred)] = np.maximum(
            features[np.ix_(rows, preferred)], activation.astype(np.float64)
        )
    return features


def generate_social_graph(spec: SocialGraphSpec, seed: int = 0, num_nodes: Optional[int] = None) -> Graph:
    """Generate a synthetic attributed social graph from ``spec``."""
    rng = np.random.default_rng(seed)
    n = int(num_nodes) if num_nodes is not None else spec.num_nodes
    if n < max(4, spec.num_classes):
        raise ValueError("graph too small for the requested number of classes")
    degrees = power_law_degree_sequence(n, spec.average_degree, spec.power_law_exponent, rng)
    communities = _assign_communities(n, spec.num_classes, rng)
    edges = _sample_edges(degrees, communities, spec.homophily, rng)
    features = _sample_features(communities, spec.num_features, spec.feature_signal, rng)
    return Graph(
        num_nodes=n,
        edges=edges,
        features=features,
        labels=communities.astype(np.int64),
        name=spec.name,
    )


def generate_facebook_like(seed: int = 0, num_nodes: Optional[int] = None) -> Graph:
    """Synthetic stand-in for the Facebook Page-Page graph."""
    return generate_social_graph(FACEBOOK_SPEC, seed=seed, num_nodes=num_nodes)


def generate_lastfm_like(seed: int = 0, num_nodes: Optional[int] = None) -> Graph:
    """Synthetic stand-in for the LastFM Asia graph."""
    return generate_social_graph(LASTFM_SPEC, seed=seed, num_nodes=num_nodes)
