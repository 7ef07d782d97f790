"""Heterogeneity-aware tree constructor (paper Section V).

Orchestrates the full pipeline:

1. start from the untrimmed assignment (every device keeps every neighbour);
2. if tree trimming is enabled, run the greedy initialisation (Alg. 1) and
   the MCMC iteration (Alg. 2) to balance workloads;
3. charge the per-device local-graph build — the virtual-node tree of
   Section V-A, or the plain ego star for the "Lumos w.o. VN" ablation; the
   trainer lays every tree out columnar (``TreeBatch.build``).

The result bundles the final assignment, the balancing history and the
secure-comparison transcript so that the evaluation harness can report both
accuracy-side and system-side metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..crypto.oblivious_transfer import TranscriptAccountant
from ..federation.simulator import FederatedEnvironment
from .config import TreeConstructorConfig
from .greedy import greedy_initialization
from .mcmc import MCMCBalancer, MCMCResult
from .tree import local_graph_sizes
from .workload import Assignment


@dataclass
class TreeConstructionResult:
    """Everything the tree constructor produces."""

    assignment: Assignment
    num_devices: int
    mcmc_result: Optional[MCMCResult] = None
    transcript: TranscriptAccountant = field(default_factory=TranscriptAccountant)
    used_virtual_nodes: bool = True
    used_tree_trimming: bool = True

    def workload_array(self) -> np.ndarray:
        """Per-device workloads of the final assignment."""
        return self.assignment.workload_array()

    def max_workload(self) -> int:
        """The final objective value ``f(X)``."""
        return self.assignment.objective()

    def total_tree_nodes(self) -> int:
        """Total number of local-graph nodes across all devices: a function
        of the workloads (:func:`~repro.core.tree.local_graph_sizes`)."""
        workloads = self.assignment.workload_array()
        return int(local_graph_sizes(workloads, self.used_virtual_nodes).sum())


class TreeConstructor:
    """Builds balanced per-device trees for a federated environment."""

    def __init__(
        self,
        config: TreeConstructorConfig = TreeConstructorConfig(),
        rng: Optional[np.random.Generator] = None,
        secure: bool = False,
    ) -> None:
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng()
        self.secure = secure

    def construct(self, environment: FederatedEnvironment) -> TreeConstructionResult:
        """Run the constructor over ``environment`` and install the assignment."""
        transcript = TranscriptAccountant()

        mcmc_result: Optional[MCMCResult] = None
        if self.config.use_tree_trimming:
            greedy_assignment = greedy_initialization(
                environment,
                accountant=transcript,
                bit_width=self.config.degree_comparison_bits,
                rng=self.rng,
                secure=self.secure,
            )
            balancer = MCMCBalancer(
                environment,
                iterations=self.config.mcmc_iterations,
                accountant=transcript,
                bit_width=self.config.workload_comparison_bits,
                secure=self.secure,
                rng=self.rng,
            )
            # The balancer installs what it returns.
            mcmc_result = balancer.run(greedy_assignment)
            assignment = mcmc_result.assignment
        else:
            indptr, indices = environment.adjacency_csr()
            everything = np.ones(indices.shape[0], dtype=bool)
            assignment = Assignment(indptr, indices, everything)
            environment.apply_assignment(everything)

        # Charge the (local, cheap) tree-building computation.
        num_devices = environment.num_devices
        environment.ledger.compute_many(
            np.arange(num_devices),
            assignment.workload_array().astype(np.float64),
            description="tree-construction",
        )

        return TreeConstructionResult(
            assignment=assignment,
            num_devices=num_devices,
            mcmc_result=mcmc_result,
            transcript=transcript,
            used_virtual_nodes=self.config.use_virtual_nodes,
            used_tree_trimming=self.config.use_tree_trimming,
        )
