"""Seeded, vectorised input generator owned by the benchmark.

Pure numpy and deliberately independent of ``repro``: a change to the
program (``repro.graph.generators`` included) cannot change the benchmark's
inputs.  Everything is a function of ``(num_nodes, seed)`` — equal seeds give
byte-identical arrays, which ``input_digest`` witnesses.

The graph is a Chung-Lu graph with homophilous communities and
class-correlated sparse binary features, with the parameters of the repo's
``FACEBOOK_SPEC``.  Two choices keep run-to-run spread across seeds small so
timings of different seeds are comparable: the expected-degree sequence is
the deterministic quantile sequence of the power law (the seed only decides
which vertex gets which weight and how stubs are wired), and the edge count
before isolated vertices are attached is exactly ``round(n * avg_degree / 2)``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

# The values of the repo's ``FACEBOOK_SPEC``, copied: the recorded input
# digests pin them, and the program cannot move them.
AVERAGE_DEGREE = 15.2
POWER_LAW_EXPONENT = 2.3
NUM_FEATURES = 128
NUM_CLASSES = 4
HOMOPHILY = 0.82
FEATURE_SIGNAL = 0.35
BASE_RATE = 0.02

# The paper's splits: nodes 50/25/25, edges 80/5/15.
NODE_TRAIN_FRACTION, NODE_VAL_FRACTION = 0.5, 0.25
EDGE_TRAIN_FRACTION, EDGE_VAL_FRACTION = 0.8, 0.05


def _expected_degrees(n: int) -> np.ndarray:
    """Power-law quantiles rescaled to the target mean, hubs capped at n/4."""
    quantiles = (np.arange(n) + 0.5) / n
    weights = quantiles ** (-1.0 / (POWER_LAW_EXPONENT - 1.0))
    weights = np.minimum(weights * (AVERAGE_DEGREE / weights.mean()), n / 4.0)
    return weights * (AVERAGE_DEGREE / weights.mean())


def _sample_by_weight(
    rng: np.random.Generator, cumulative: np.ndarray, count: int
) -> np.ndarray:
    """``count`` indices drawn with probability proportional to the weights."""
    return np.searchsorted(cumulative, rng.random(count) * cumulative[-1], side="right")


def _append_new(codes: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """``codes`` followed by the values of ``batch`` not seen before, in draw order.

    First-occurrence order keeps a later truncation to a target count unbiased.
    """
    merged = np.concatenate([codes, batch])
    _, first = np.unique(merged, return_index=True)
    return merged[np.sort(first)]


def generate_graph(num_nodes: int, seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(edges (E, 2) int64, features (n, d) float64, labels (n,) int64)``.

    Edges are canonical (``u < v``), unique and sorted; every vertex has at
    least one neighbour.
    """
    n = num_nodes
    if n < 2 * NUM_CLASSES:
        raise ValueError("graph too small for the requested number of classes")
    rng = np.random.default_rng([int(seed), n])
    weights = rng.permutation(_expected_degrees(n))
    shares = np.arange(NUM_CLASSES, 0, -1, dtype=np.float64) + 2.0
    labels = rng.choice(NUM_CLASSES, size=n, p=shares / shares.sum()).astype(np.int64)

    # Vertices grouped by class, so "a same-class vertex by weight" is one
    # searchsorted inside the class's slice of a single cumulative array.
    order = np.argsort(labels, kind="stable")
    class_start = np.searchsorted(labels[order], np.arange(NUM_CLASSES + 1))
    grouped_cumulative = np.cumsum(weights[order])
    global_cumulative = np.cumsum(weights)

    target = int(round(n * AVERAGE_DEGREE / 2.0))
    codes = np.zeros(0, dtype=np.int64)
    while codes.shape[0] < target:
        count = int(1.3 * (target - codes.shape[0])) + 64
        u = _sample_by_weight(rng, global_cumulative, count)
        v = _sample_by_weight(rng, global_cumulative, count)
        intra = rng.random(count) < HOMOPHILY
        lo = class_start[labels[u]]
        hi = class_start[labels[u] + 1]
        base = np.where(lo > 0, grouped_cumulative[lo - 1], 0.0)
        span = grouped_cumulative[hi - 1] - base
        position = np.searchsorted(
            grouped_cumulative, base + rng.random(count) * span, side="right"
        )
        v = np.where(intra, order[np.minimum(position, hi - 1)], v)
        keep = u != v
        codes = _append_new(codes, np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep])
    codes = codes[:target]

    degree = np.bincount(codes // n, minlength=n) + np.bincount(codes % n, minlength=n)
    isolated = np.flatnonzero(degree == 0)
    if isolated.size:
        partner = _sample_by_weight(rng, global_cumulative, isolated.size)
        partner = np.where(partner == isolated, (partner + 1) % n, partner)
        extra = np.minimum(isolated, partner) * n + np.maximum(isolated, partner)
        codes = np.concatenate([codes, extra])
    codes = np.unique(codes)
    edges = np.stack([codes // n, codes % n], axis=1).astype(np.int64)

    block = max(1, NUM_FEATURES // NUM_CLASSES)
    owner = np.minimum(np.arange(NUM_FEATURES) // block, NUM_CLASSES - 1)
    probability = BASE_RATE + FEATURE_SIGNAL * (owner[None, :] == labels[:, None])
    features = (rng.random((n, NUM_FEATURES)) < probability).astype(np.float64)
    return edges, features, labels


def node_split_masks(num_nodes: int, seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint boolean train/val/test masks."""
    rng = np.random.default_rng([int(seed), num_nodes, 1])
    order = rng.permutation(num_nodes)
    num_train = int(round(NODE_TRAIN_FRACTION * num_nodes))
    num_val = int(round(NODE_VAL_FRACTION * num_nodes))
    masks = []
    for indices in (
        order[:num_train],
        order[num_train : num_train + num_val],
        order[num_train + num_val :],
    ):
        mask = np.zeros(num_nodes, dtype=bool)
        mask[indices] = True
        masks.append(mask)
    return masks[0], masks[1], masks[2]


def edge_split_arrays(num_nodes: int, edges: np.ndarray, seed: int) -> Dict[str, np.ndarray]:
    """Edge split with as many sampled non-edges as held-out positives."""
    rng = np.random.default_rng([int(seed), num_nodes, 2])
    order = rng.permutation(edges.shape[0])
    num_train = int(round(EDGE_TRAIN_FRACTION * edges.shape[0]))
    num_val = int(round(EDGE_VAL_FRACTION * edges.shape[0]))
    num_test = edges.shape[0] - num_train - num_val
    existing = edges[:, 0] * num_nodes + edges[:, 1]
    negatives = np.zeros(0, dtype=np.int64)
    while negatives.shape[0] < num_val + num_test:
        count = 2 * (num_val + num_test) + 64
        u = rng.integers(num_nodes, size=count)
        v = rng.integers(num_nodes, size=count)
        batch = (np.minimum(u, v) * num_nodes + np.maximum(u, v))[u != v]
        negatives = _append_new(negatives, batch[~np.isin(batch, existing)])
    negatives = negatives[: num_val + num_test]
    negative_pairs = np.stack([negatives // num_nodes, negatives % num_nodes], axis=1)
    return {
        "train_edges": edges[order[:num_train]],
        "val_edges": edges[order[num_train : num_train + num_val]],
        "test_edges": edges[order[num_train + num_val :]],
        "val_negatives": negative_pairs[:num_val],
        "test_negatives": negative_pairs[num_val:],
    }


def comparison_operands(count: int, bit_width: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Two ``uint64`` operand arrays of ``bit_width``-bit values."""
    rng = np.random.default_rng([int(seed), count, 3])
    high = 1 << bit_width
    return (
        rng.integers(0, high, size=count, dtype=np.uint64),
        rng.integers(0, high, size=count, dtype=np.uint64),
    )


def mutation_script(degrees: np.ndarray, cycles: int, seed: int) -> np.ndarray:
    """Devices to remove and re-insert, one cycle each, no device twice.

    The devices are evenly spaced ranks of the degree order (the top hub
    included), so every seed churns the same degree profile; only the order
    of the cycles is random.  A uniform sample would or would not contain a
    1000-edge hub, and the work of a script would swing with that.
    """
    num_nodes = degrees.shape[0]
    if cycles > num_nodes:
        raise ValueError("more churn cycles than devices")
    rng = np.random.default_rng([int(seed), num_nodes, 4])
    by_degree = np.argsort(-degrees, kind="stable")
    ranks = (np.arange(cycles) * num_nodes) // cycles
    return rng.permutation(by_degree[ranks]).astype(np.int64)


def input_digest(*arrays: np.ndarray) -> str:
    """SHA-256 over dtype, shape and bytes of every array, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(f"{array.dtype.str}{array.shape}".encode("ascii"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()
