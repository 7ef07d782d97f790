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
    CrypTFlow2-style secure integer comparison protocol, with the framed
    channel its two-party transport runs over.
``repro.federation``
    Synchronous federated runtime simulator with communication accounting.
``repro.core``
    Lumos itself: heterogeneity-aware tree constructor and tree-based GNN
    trainer.
``repro.engine``
    The content-keyed artifact store ``LumosSystem`` caches its stages in
    (stage reuse across sweeps and repeated runs).
``repro.baselines``
    Centralized GNN, LPGNN, and the naive federated GNN baseline.
``repro.faults``
    Seeded fault scenarios (dropout, churn, stragglers, message loss).
``repro.maintenance``
    Journalled delta maintenance of a constructed tree under churn.
``repro.obs``
    Tracing spans, metrics and their exporters.
``repro.eval``
    Metrics, experiment runner (each experiment a loop over its arms) and
    per-figure reproduction entry points.
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
    "faults",
    "maintenance",
    "obs",
    "eval",
]
