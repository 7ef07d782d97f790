"""Weight initialisation schemes used by the GNN layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def xavier_uniform(
    shape: Tuple[int, ...],
    gain: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation.

    Samples from ``U(-a, a)`` with ``a = gain * sqrt(6 / (fan_in + fan_out))``.
    This matches PyTorch's ``nn.init.xavier_uniform_`` which both the GCN and
    GAT reference implementations use for weight matrices.
    """
    rng = rng if rng is not None else np.random.default_rng()
    fan_in, fan_out = _compute_fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape, dtype=np.float64)


def _compute_fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight of the given shape."""
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[:-1]))
    fan_out = int(shape[-1])
    return fan_in, fan_out
