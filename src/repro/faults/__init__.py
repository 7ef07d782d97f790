"""Deterministic fault injection for unreliable federations.

The package is deliberately dependency-light: ``config`` and ``plan`` import
only the standard library and numpy so that ``repro.core.config`` can depend
on :class:`FaultScenarioConfig` without creating an import cycle through the
staged engine.
"""

from .config import FaultScenarioConfig
from .plan import FaultPlan
from .scenarios import default_robustness_scenarios

__all__ = [
    "FaultScenarioConfig",
    "FaultPlan",
    "default_robustness_scenarios",
]
