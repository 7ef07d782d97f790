"""Configuration objects for the Lumos system.

Defaults follow Section VIII-B of the paper: 2 GNN layers, hidden/output
dimension 16, dropout 0.01, 4 attention heads for GAT, Adam with learning
rate 0.01, privacy budget ``epsilon = 2``, 300 training epochs, and 1,000 /
300 MCMC iterations for the Facebook / LastFM graphs (exposed here as a
single tunable).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..faults.config import FaultScenarioConfig


@dataclass(frozen=True)
class TreeConstructorConfig:
    """Hyper-parameters of the heterogeneity-aware tree constructor."""

    use_virtual_nodes: bool = True
    use_tree_trimming: bool = True
    mcmc_iterations: int = 300
    degree_comparison_bits: int = 8
    workload_comparison_bits: int = 24

    def __post_init__(self) -> None:
        if self.mcmc_iterations < 0:
            raise ValueError("mcmc_iterations must be non-negative")


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
    pooling: str = "mean"

    def __post_init__(self) -> None:
        if self.backbone not in ("gcn", "gat"):
            raise ValueError(f"unknown backbone '{self.backbone}'")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class LumosConfig:
    """End-to-end configuration of a Lumos deployment."""

    constructor: TreeConstructorConfig = field(default_factory=TreeConstructorConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    seed: int = 0
    #: Fault-injection scenario applied at training time.  Empty by default;
    #: a non-empty scenario enters the work-item fingerprint (so cached
    #: artifacts never mix scenarios) while the pipeline *stage* keys stay
    #: untouched — every scenario of a sweep shares the partition /
    #: construction / tree-batch prefix.
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
