"""Generated federations, assignments and canonical constructions for tests.

A case is a plain dict: devices ``ids``, ``edges`` as ``(u, v, keeper)``
(which endpoint keeps the edge, Eq. 10), the feature ``dimension``, the
local-graph layout (``use_virtual_nodes``), the feature ``bounds`` and a
``seed``; tests add their own keys.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.constructor import TreeConstructionResult
from repro.core.workload import Assignment
from repro.crypto.ldp import FeatureBounds
from repro.federation import FederatedEnvironment

#: Which endpoint keeps an edge ``(u, v)``: ``u``, ``v`` or both (Eq. 10).
KEEPERS = ("u", "v", "both")


def csr_from_lists(neighbor_lists):
    """``(indptr, indices)`` whose row ``v`` is ``neighbor_lists[v]``, sorted."""
    rows = [sorted(neighbors) for neighbors in neighbor_lists]
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    return indptr, indices


@st.composite
def exchange_cases(draw, max_devices: int, max_dimension: int, min_devices: int = 2):
    devices = draw(st.integers(min_devices, max_devices))
    edges = []
    if devices > 1:
        pairs = st.tuples(st.integers(0, devices - 1), st.integers(0, devices - 1)).filter(
            lambda pair: pair[0] < pair[1]
        )
        edges = draw(st.lists(pairs, max_size=3 * devices, unique=True))
    return dict(
        ids=list(range(devices)),
        edges=[(u, v, draw(st.sampled_from(KEEPERS))) for u, v in edges],
        dimension=draw(st.integers(1, max_dimension)),
        use_virtual_nodes=draw(st.booleans()),
        drop_first_pair=draw(st.booleans()),
        bounds=draw(st.sampled_from([(0.0, 1.0), (-1.0, 3.0)])),
        seed=draw(st.integers(0, 2**16)),
    )


def materialise(case):
    """``(environment factory, assignment, bounds)`` of a generated case."""
    ids = case["ids"]
    rng = np.random.default_rng(case["seed"])
    features = rng.random((len(ids), case["dimension"])) * (rng.random((len(ids), 1)) < 0.8)
    neighbors = {device_id: [] for device_id in ids}
    selected = {device_id: [] for device_id in ids}
    for u, v, keeper in case["edges"]:
        u, v = ids[u], ids[v]
        neighbors[u].append(v)
        neighbors[v].append(u)
        if keeper in ("u", "both"):
            selected[u].append(v)
        if keeper in ("v", "both"):
            selected[v].append(u)
    low, high = case["bounds"]

    def environment() -> FederatedEnvironment:
        indptr, indices = csr_from_lists(neighbors[device_id] for device_id in ids)
        return FederatedEnvironment.from_partition(
            (indptr, indices, low + (high - low) * features), seed=0
        )

    return environment, Assignment.from_lists(selected), FeatureBounds(low, high)


def canonical_construction(environment, assignment, use_virtual_nodes) -> TreeConstructionResult:
    """The construction result that installs ``assignment`` as it is."""
    return TreeConstructionResult(
        assignment=assignment,
        num_devices=environment.num_devices,
        used_virtual_nodes=use_virtual_nodes,
    )
