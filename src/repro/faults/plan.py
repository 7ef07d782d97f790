"""Compilation of fault scenarios into deterministic per-round schedules.

``FaultPlan.compile`` turns a :class:`FaultScenarioConfig` into concrete
boolean/latency matrices of shape ``(num_rounds, num_devices)``.  The plan
owns its RNG stream (``np.random.default_rng(config.fault_seed)``) and draws
in a fixed block order so the schedule is bit-for-bit reproducible across
processes and platforms:

1. **churn** (only when ``join_rate > 0 or leave_rate > 0``): one uniform
   block of shape ``(num_devices,)`` for the stationary initial state, then
   one block of shape ``(num_rounds - 1, num_devices)`` for the per-round
   Markov transitions (skipped when ``num_rounds <= 1``);
2. **dropout** (only when ``dropout_rate > 0``): one
   ``(num_rounds, num_devices)`` block;
3. **stragglers** (only when ``straggler_rate > 0``): a selection block then
   a magnitude block, both ``(num_rounds, num_devices)``;
4. **message loss** (only when ``message_loss_rate > 0``): one
   ``(num_rounds, num_devices)`` block.

Disabled mechanisms draw nothing, so e.g. adding message loss to a dropout
scenario does not shift the dropout schedule.

Derived mask algebra (all ``(num_rounds, num_devices)``):

- ``online``   — churn state AND not dropped out; only online devices do any
  work or send any bytes in a round.
- ``latency``  — float multiplier of the nominal per-round time; 1.0 for
  non-stragglers.
- ``evicted``  — online devices whose multiplier exceeds the round deadline;
  they sent their update (charged) but the server stopped waiting.
- ``lost``     — online, non-evicted devices whose update was lost in
  transit (charged, never delivered).
- ``participating`` — ``online & ~evicted & ~lost``: the devices whose
  updates actually enter the round's aggregation.

This module imports only numpy + stdlib (see ``repro.faults.config``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .config import FaultScenarioConfig

__all__ = ["FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """A compiled, immutable per-round availability/latency schedule."""

    config: FaultScenarioConfig
    num_devices: int
    num_rounds: int
    online: np.ndarray
    latency: np.ndarray
    evicted: np.ndarray
    lost: np.ndarray
    participating: np.ndarray
    #: Pre-dropout churn state (the raw Markov chain): ``present[r, d]`` is
    #: True when device ``d`` is a federation member in round ``r``.  All
    #: ones for churn-free scenarios.  This is the schedule the maintenance
    #: layer turns into real tree mutations (``churn_events``), while
    #: ``online`` additionally masks per-round dropout — a dropped-out
    #: device skipped a round but never left the tree.
    present: np.ndarray = None

    @classmethod
    def compile(
        cls,
        config: FaultScenarioConfig,
        num_devices: int,
        num_rounds: int,
    ) -> "FaultPlan":
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        if num_rounds < 0:
            raise ValueError(f"num_rounds must be >= 0, got {num_rounds}")
        shape = (num_rounds, num_devices)
        rng = np.random.default_rng(config.fault_seed)

        # Block 1: Markov join/leave churn.
        churn = config.join_rate > 0.0 or config.leave_rate > 0.0
        if churn:
            denominator = config.join_rate + config.leave_rate
            stationary = config.join_rate / denominator if denominator > 0 else 1.0
            state = rng.random(num_devices) < stationary
            present = np.empty(shape, dtype=bool)
            if num_rounds > 0:
                present[0] = state
                if num_rounds > 1:
                    transitions = rng.random((num_rounds - 1, num_devices))
                    for r in range(1, num_rounds):
                        u = transitions[r - 1]
                        state = np.where(
                            state, u >= config.leave_rate, u < config.join_rate
                        )
                        present[r] = state
        else:
            present = np.ones(shape, dtype=bool)

        # Block 2: Bernoulli per-round dropout.
        if config.dropout_rate > 0.0:
            dropped = rng.random(shape) < config.dropout_rate
        else:
            dropped = np.zeros(shape, dtype=bool)
        online = present & ~dropped

        # Block 3: straggler selection + latency magnitude.
        latency = np.ones(shape, dtype=np.float64)
        if config.straggler_rate > 0.0:
            selected = rng.random(shape) < config.straggler_rate
            magnitude = rng.random(shape)
            latency = np.where(
                selected,
                1.0 + magnitude * (config.straggler_multiplier - 1.0),
                latency,
            )
        if config.round_deadline is not None:
            evicted = online & (latency > config.round_deadline)
        else:
            evicted = np.zeros(shape, dtype=bool)

        # Block 4: message loss for surviving updates.
        if config.message_loss_rate > 0.0:
            lost = online & ~evicted & (rng.random(shape) < config.message_loss_rate)
        else:
            lost = np.zeros(shape, dtype=bool)

        participating = online & ~evicted & ~lost
        return cls(
            config=config,
            num_devices=num_devices,
            num_rounds=num_rounds,
            online=online,
            latency=latency,
            evicted=evicted,
            lost=lost,
            participating=participating,
            present=present,
        )

    def churn_events(self):
        """Yield ``(round_index, joins, leaves)`` from the churn chain.

        Diffs consecutive rows of ``present`` against an all-present start
        (the tree is constructed over the full graph), returning sorted
        device-id lists.  This is the bridge from the compiled schedule to
        the maintenance layer: a leave removes the device from the tree, a
        join re-inserts it with its original ego edges.
        """
        previous = np.ones(self.num_devices, dtype=bool)
        for round_index in range(self.num_rounds):
            row = self.present[round_index]
            leaves = [int(d) for d in np.where(previous & ~row)[0]]
            joins = [int(d) for d in np.where(~previous & row)[0]]
            yield round_index, joins, leaves
            previous = row

    def summary(self) -> Dict[str, float]:
        total = float(self.num_rounds * self.num_devices)
        mean_participation = (
            float(self.participating.sum()) / total if total else 1.0
        )
        return {
            "mean_participation": mean_participation,
            "offline_device_rounds": float((~self.online).sum()),
            "evicted_device_rounds": float(self.evicted.sum()),
            "lost_update_rounds": float(self.lost.sum()),
            "mean_latency_multiplier": float(self.latency.mean()) if total else 1.0,
        }
