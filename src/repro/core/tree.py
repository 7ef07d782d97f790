"""Tree construction from ego networks (paper Section V-A).

For a device ``u`` with selected neighbours ``N_u = {v_1, ..., v_w}`` the
constructed tree ``T(u)`` is:

* ``w`` **leaf pairs** ``(u, v_k)`` — the centre vertex ``u`` is replicated
  once per pair so that its (only non-noised) feature is used more often;
* one virtual **parent node** ``P_k`` joining each leaf pair — it represents
  the two-vertex subgraph ``{u, v_k}`` plus the edge between them;
* one virtual **root node** ``R`` whose children are all parent nodes — it
  represents the whole ego network.

The ablation "Lumos w.o. VN" skips the virtual nodes and uses the plain ego
star (centre connected to each selected neighbour) as the local graph.  The
trainer lays both variants out columnar for all devices at once
(``TreeBatch.build``); this module keeps their node counts.
"""

from __future__ import annotations

import numpy as np


def local_graph_sizes(workloads: np.ndarray, virtual_nodes: bool = True) -> np.ndarray:
    """Node counts of the local graphs for an array of workloads: ``3 * wl + 1``
    for a Lumos tree (one node for an empty selection, the device's own
    centre leaf), or ``wl + 1`` for the plain ego star."""
    if not virtual_nodes:
        return workloads + 1
    return np.where(workloads > 0, 3 * workloads + 1, 1)
