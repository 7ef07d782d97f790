"""Unsupervised scenario: link prediction on a LastFM-like social graph.

Reproduces the Fig. 4 comparison on one dataset: Lumos trains without any
labels by predicting which vertex pairs are connected (Eq. 33), and is
compared against the centralized GNN and the naive federated baseline using
the ROC-AUC score on held-out edges.

Run with::

    python examples/link_prediction_unsupervised.py [--nodes 300] [--epochs 60]
"""

from __future__ import annotations

import argparse

from repro.baselines import train_centralized_unsupervised, train_naive_fedgnn_unsupervised
from repro.core import LumosSystem, default_config_for
from repro.eval.reporting import format_table
from repro.graph import load_dataset, split_edges


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="lastfm", choices=["facebook", "lastfm"])
    parser.add_argument("--nodes", type=int, default=300)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--mcmc", type=int, default=120)
    parser.add_argument("--backbone", default="gcn", choices=["gcn", "gat"])
    args = parser.parse_args()

    graph = load_dataset(args.dataset, seed=0, num_nodes=args.nodes)
    edge_split = split_edges(graph, train_fraction=0.8, val_fraction=0.05, seed=0)
    print(f"{graph.name}: {graph.num_nodes} devices, {graph.num_edges} edges "
          f"({len(edge_split.train_edges)} train / {len(edge_split.val_edges)} val / "
          f"{len(edge_split.test_edges)} test)")

    config = (
        default_config_for(args.dataset)
        .with_backbone(args.backbone)
        .with_mcmc_iterations(args.mcmc)
        .with_epochs(args.epochs)
    )
    lumos_result = LumosSystem(graph, config).run_unsupervised(edge_split)
    history = lumos_result.history
    for epoch in range(19, len(history.losses), 20):
        print(f"[lumos unsupervised] epoch {epoch + 1}/{len(history.losses)} "
              f"loss={history.losses[epoch]:.4f} val_auc={history.val_auc[epoch]:.4f}")
    centralized = train_centralized_unsupervised(
        graph, edge_split, backbone=args.backbone, epochs=args.epochs
    )
    naive = train_naive_fedgnn_unsupervised(
        graph, edge_split, backbone=args.backbone, epochs=args.epochs
    )

    print("\n=== Link prediction ROC-AUC (cf. paper Fig. 4) ===")
    print(
        format_table(
            ["method", "test AUC"],
            [
                ["Lumos", lumos_result.test_auc],
                ["Centralized GNN", centralized.test_auc],
                ["Naive FedGNN", naive.test_auc],
            ],
        )
    )
    print(f"\nLumos avg communication rounds per device per epoch: "
          f"{lumos_result.communication_rounds_per_device:.2f}")


if __name__ == "__main__":
    main()
