"""Configuration objects for the Lumos system.

Defaults follow Section VIII-B of the paper: 2 GNN layers, hidden/output
dimension 16, dropout 0.01, 4 attention heads for GAT, Adam with learning
rate 0.01, privacy budget ``epsilon = 2``, 300 training epochs, and 1,000 /
300 MCMC iterations for the Facebook / LastFM graphs (exposed here as a
single tunable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..faults.config import FaultScenarioConfig, _check_integer, _check_real


@dataclass(frozen=True)
class TreeConstructorConfig:
    """Hyper-parameters of the heterogeneity-aware tree constructor."""

    use_virtual_nodes: bool = True
    use_tree_trimming: bool = True
    mcmc_iterations: int = 300
    degree_comparison_bits: int = 8
    workload_comparison_bits: int = 24

    def __post_init__(self) -> None:
        _check_integer(self, "mcmc_iterations", 0)
        for name in ("degree_comparison_bits", "workload_comparison_bits"):
            _check_integer(self, name, 1, 64)


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of the tree-based GNN trainer."""

    backbone: str = "gcn"
    num_layers: int = 2
    hidden_dim: int = 16
    output_dim: int = 16
    dropout: float = 0.01
    num_heads: int = 4
    learning_rate: float = 0.01
    epochs: int = 300
    epsilon: float = 2.0

    def __post_init__(self) -> None:
        # Everything is checked here, before partition, LDP and MCMC run:
        # a bad value must not fail late or train to NaN weights.
        if self.backbone not in ("gcn", "gat"):
            raise ValueError(f"unknown backbone '{self.backbone}'")
        for name in ("num_layers", "hidden_dim", "output_dim", "num_heads", "epochs"):
            _check_integer(self, name, 1)
        for name in ("dropout", "learning_rate", "epsilon"):
            _check_real(self, name)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        for name in ("learning_rate", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class LumosConfig:
    """End-to-end configuration of a Lumos deployment."""

    constructor: TreeConstructorConfig = field(default_factory=TreeConstructorConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    seed: int = 0
    #: Fault-injection scenario applied at training time.  Empty by default;
    #: the pipeline *stage* keys never see it — every scenario of a sweep
    #: shares the partition / construction / tree-batch prefix, and only
    #: the (never cached) training differs.
    faults: FaultScenarioConfig = field(default_factory=FaultScenarioConfig)

    # ------------------------------------------------------------------ #
    # Convenience constructors used heavily by the evaluation harness
    # ------------------------------------------------------------------ #
    def with_backbone(self, backbone: str) -> "LumosConfig":
        """Return a copy using the given GNN backbone ('gcn' or 'gat')."""
        return replace(self, trainer=replace(self.trainer, backbone=backbone))

    def with_epsilon(self, epsilon: float) -> "LumosConfig":
        """Return a copy with a different privacy budget."""
        return replace(self, trainer=replace(self.trainer, epsilon=epsilon))

    def with_epochs(self, epochs: int) -> "LumosConfig":
        """Return a copy with a different number of training epochs."""
        return replace(self, trainer=replace(self.trainer, epochs=epochs))

    def with_mcmc_iterations(self, iterations: int) -> "LumosConfig":
        """Return a copy with a different MCMC iteration budget."""
        return replace(self, constructor=replace(self.constructor, mcmc_iterations=iterations))

    def without_virtual_nodes(self) -> "LumosConfig":
        """Ablation: Lumos w.o. VN (ego network fed directly to the trainer)."""
        return replace(self, constructor=replace(self.constructor, use_virtual_nodes=False))

    def without_tree_trimming(self) -> "LumosConfig":
        """Ablation: Lumos w.o. TT (all neighbours kept, no balancing)."""
        return replace(self, constructor=replace(self.constructor, use_tree_trimming=False))

    def with_seed(self, seed: int) -> "LumosConfig":
        """Return a copy with a different random seed."""
        return replace(self, seed=seed)

    def with_faults(self, faults: FaultScenarioConfig) -> "LumosConfig":
        """Return a copy training under the given fault scenario."""
        return replace(self, faults=faults)


def default_config_for(dataset_name: str) -> LumosConfig:
    """Return the paper's per-dataset defaults (MCMC iterations differ)."""
    name = dataset_name.lower()
    mcmc = 1000 if "facebook" in name else 300
    return LumosConfig(constructor=TreeConstructorConfig(mcmc_iterations=mcmc))
