"""Evaluation harness: metrics, experiment runner and figure reproduction."""

from . import reporting
from .metrics import accuracy, relative_change, roc_auc_score

__all__ = [
    "reporting",
    "accuracy",
    "roc_auc_score",
    "relative_change",
]


def __getattr__(name):
    """Lazily expose the heavier submodules (they import the full system)."""
    if name in ("figures", "runner"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    if name == "ExperimentScale":
        from .runner import ExperimentScale

        return ExperimentScale
    raise AttributeError(f"module 'repro.eval' has no attribute '{name}'")
