"""Scenario configuration for fault injection.

A :class:`FaultScenarioConfig` describes *what can go wrong* in a federation:
Bernoulli per-round dropout, Markov join/leave churn, straggler latency
multipliers with an optional round deadline, and message loss.  The config is
a frozen dataclass so it can be fingerprinted by the staged engine and used
as a dictionary key; compiling it into a concrete per-round schedule is the
job of :class:`repro.faults.plan.FaultPlan`.

This module must stay import-light (stdlib only): ``repro.core.config``
embeds a scenario in every :class:`LumosConfig`, so importing anything from
``repro.core`` or ``repro.engine`` here would create a cycle.  For the same
reason the configs' two type rules, :func:`_check_integer` and
:func:`_check_real`, live here and ``repro.core.config`` imports them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultScenarioConfig"]


def _check_integer(config, name: str, low: int, high: float = math.inf) -> None:
    """The one integer rule of the configs: an ``int`` (or numpy integer) in
    ``[low, high]``.  A bool or a float is a ``ValueError`` like a value out
    of range, raised at construction — not after partition, greedy and MCMC
    have run, and never silently taken as ``1`` or truncated."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bounds = f"in [{low}, {high}]" if high < math.inf else f"at least {low}"
        raise ValueError(f"{name} must be {bounds}, got {value!r}")


def _check_real(config, name: str) -> None:
    """The one real-number rule of the configs: a bool is a ``ValueError``,
    not ``1.0`` or ``0.0`` (``dropout_rate=True`` would drop every device)."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_rate(config, name: str) -> None:
    _check_real(config, name)
    value = getattr(config, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class FaultScenarioConfig:
    """Declarative description of an unreliable-federation scenario.

    Parameters
    ----------
    dropout_rate:
        Bernoulli probability that an otherwise-online device skips a round
        entirely (no compute, no messages, nothing charged).
    join_rate / leave_rate:
        Markov churn transition probabilities: an offline device comes online
        with ``join_rate`` per round, an online device leaves with
        ``leave_rate``.  The initial state is drawn from the stationary
        distribution ``join / (join + leave)``; with ``leave_rate == 0`` the
        chain is always online and the scenario is effectively churn-free.
    straggler_rate / straggler_multiplier:
        Each round, each device independently becomes a straggler with
        ``straggler_rate``; its latency multiplier is drawn uniformly from
        ``[1, straggler_multiplier]``.  Non-stragglers run at multiplier 1.
    round_deadline:
        Optional deadline expressed as a latency *multiple* of the nominal
        round.  A device whose sampled multiplier exceeds the deadline is
        evicted from that round's aggregation: its messages were sent (and
        are charged) but arrive too late to be merged.
    message_loss_rate:
        Probability that an online, non-evicted device's round update is lost
        in transit — charged to the sender, never delivered.
    fault_seed:
        Seed for the fault plan's *own* RNG stream.  The pipeline RNG is
        never touched, so an empty scenario leaves training bit-identical.
    """

    dropout_rate: float = 0.0
    join_rate: float = 0.0
    leave_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_multiplier: float = 4.0
    round_deadline: Optional[float] = None
    message_loss_rate: float = 0.0
    fault_seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "dropout_rate", "join_rate", "leave_rate", "straggler_rate", "message_loss_rate"
        ):
            _check_rate(self, name)
        _check_real(self, "straggler_multiplier")
        if not self.straggler_multiplier >= 1.0:  # NaN fails too
            raise ValueError(
                "straggler_multiplier must be >= 1, got "
                f"{self.straggler_multiplier!r}"
            )
        if self.round_deadline is not None:
            _check_real(self, "round_deadline")
            if not self.round_deadline > 0.0:  # NaN fails too
                raise ValueError(
                    f"round_deadline must be positive, got {self.round_deadline!r}"
                )
        _check_integer(self, "fault_seed", 0)

    def is_empty(self) -> bool:
        """True when the scenario cannot perturb any round.

        ``fault_seed`` (and a pure ``join_rate`` with ``leave_rate == 0``,
        whose stationary chain never goes offline) are deliberately ignored:
        two empty scenarios must share cache keys with the fault-free path.
        """
        return (
            self.dropout_rate == 0.0
            and self.leave_rate == 0.0
            and self.straggler_rate == 0.0
            and self.message_loss_rate == 0.0
        )
