"""Run one Lumos experiment arm and keep the state an audit compares.

``repro.eval.runner`` returns only each arm's value.  The bit-for-bit
contracts (warm store == cold store, traced == untraced, empty fault
scenario == no scenario) also compare what the run left behind: the
communication ledger, the secure-comparison accountant and the RNG end
state.  :func:`run_lumos_arm` runs the runner's own experiment body on a
system it builds, then reads those off the system.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core import LumosConfig, LumosSystem
from repro.engine import ArtifactStore
from repro.eval import runner
from repro.graph import Graph


def run_lumos_arm(
    graph: Graph,
    config: LumosConfig,
    store: ArtifactStore,
    task: str = "supervised",
    split_seed: int = 0,
) -> Dict[str, Any]:
    """One Lumos arm: its ``value`` plus ``ledger_summary``,
    ``ledger_records`` (the canonical transcript), ``accountant`` and
    ``rng_state``."""
    system = LumosSystem(graph, config, store=store)
    value = runner._lumos_value(system, task, split_seed)
    construction = system.construct_trees()
    ledger = system.environment.ledger
    return {
        "value": value,
        "ledger_summary": ledger.summary(system.environment.num_devices),
        "ledger_records": tuple(ledger.message_records()),
        "accountant": construction.transcript.snapshot(),
        "rng_state": system.rng.bit_generator.state,
    }
