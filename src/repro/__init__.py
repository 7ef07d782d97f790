"""Reproduction of *Lumos: Heterogeneity-aware Federated Graph Learning over
Decentralized Devices* (ICDE 2023).

Top-level subpackages
---------------------
``repro.nn``
    Numpy autograd / neural-network substrate (replaces PyTorch).
``repro.graph``
    Graph data structures, node-level partition, synthetic datasets, splits.
``repro.gnn``
    GCN / GAT layers, encoders and task heads.
``repro.crypto``
    Privacy substrate: local differential privacy encoders and a simulated
    CrypTFlow2-style secure integer comparison protocol.
``repro.federation``
    Synchronous federated runtime simulator with communication accounting.
``repro.core``
    Lumos itself: heterogeneity-aware tree constructor and tree-based GNN
    trainer.
``repro.engine``
    Staged execution pipeline with a content-keyed artifact store (stage
    reuse across sweeps and repeated runs).
``repro.baselines``
    Centralized GNN, LPGNN, and the naive federated GNN baseline.
``repro.runtime``
    Content-keyed work items (sweep points, ablation arms, baselines)
    collected in deduplicating work plans, and the two-party transport's
    framed channel.
``repro.eval``
    Metrics, experiment runner and per-figure reproduction entry points.
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "graph",
    "gnn",
    "crypto",
    "federation",
    "core",
    "engine",
    "baselines",
    "runtime",
    "eval",
]
