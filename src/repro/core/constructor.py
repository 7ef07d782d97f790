"""Heterogeneity-aware tree constructor (paper Section V).

Orchestrates the full pipeline:

1. start from the untrimmed assignment (every device keeps every neighbour);
2. if tree trimming is enabled, run the greedy initialisation (Alg. 1) and
   the MCMC iteration (Alg. 2) to balance workloads;
3. build the per-device local graph — the virtual-node tree of Section V-A,
   or the plain ego star for the "Lumos w.o. VN" ablation.

The result bundles the final assignment, the local graphs, the balancing
history and the secure-comparison transcript so that the evaluation harness
can report both accuracy-side and system-side metrics.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from ..crypto.oblivious_transfer import TranscriptAccountant
from ..federation.simulator import FederatedEnvironment
from .config import TreeConstructorConfig
from .greedy import greedy_initialization
from .mcmc import MCMCBalancer, MCMCResult
from .tree import LocalGraph, build_star, build_tree, local_graph_sizes
from .workload import Assignment


class CanonicalLocalGraphs(Mapping):
    """``device -> LocalGraph`` of a construction, built on first access.

    Production reads tree *sizes* only (a function of the workload), so the
    per-device ``build_tree`` / ``build_star`` graph over the sorted selected
    neighbours is materialised just for the callers that index or iterate the
    mapping — canonical by construction, since nothing else is ever built.
    """

    def __init__(
        self, assignment: Assignment, device_ids: Iterable[int], use_virtual_nodes: bool
    ) -> None:
        self._assignment = assignment
        self._build = build_tree if use_virtual_nodes else build_star
        self._graphs = dict.fromkeys(device_ids)  # device -> its graph, once built

    def __getitem__(self, device_id: int) -> LocalGraph:
        graph = self._graphs[device_id]
        if graph is None:
            selected = sorted(self._assignment.selected.get(device_id, ()))
            graph = self._graphs[device_id] = self._build(device_id, selected)
        return graph

    def __iter__(self) -> Iterator[int]:
        return iter(self._graphs)

    def __len__(self) -> int:
        return len(self._graphs)


@dataclass
class TreeConstructionResult:
    """Everything the tree constructor produces."""

    assignment: Assignment
    local_graphs: Mapping  # device -> its build_tree / build_star LocalGraph, lazy
    greedy_assignment: Optional[Assignment] = None
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
        """Total number of local-graph nodes across all devices.

        Sizes follow from the workloads (``build_tree`` / ``build_star`` over
        the selected neighbours), so the lazy local graphs are not built.
        """
        workloads = self.assignment.workload_vector(len(self.local_graphs))
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

        greedy_assignment: Optional[Assignment] = None
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
            assignment = Assignment.from_lists(
                {
                    device_id: device.ego.neighbors.tolist()
                    for device_id, device in environment.devices.items()
                }
            )
            environment.apply_assignment(assignment.selected)

        for device_id in environment.devices:
            # Charge the (local, cheap) tree-building computation.
            environment.charge_compute(
                device_id, cost=float(assignment.workload(device_id)), description="tree-construction"
            )

        return TreeConstructionResult(
            assignment=assignment,
            local_graphs=CanonicalLocalGraphs(
                assignment, environment.devices, self.config.use_virtual_nodes
            ),
            greedy_assignment=greedy_assignment,
            mcmc_result=mcmc_result,
            transcript=transcript,
            used_virtual_nodes=self.config.use_virtual_nodes,
            used_tree_trimming=self.config.use_tree_trimming,
        )
