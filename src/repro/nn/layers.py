"""Generic (non graph-specific) layers: the classifier head and dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, inputs: Tensor) -> Tensor:
        return F.linear(inputs, self.weight, self.bias)


class Dropout(Module):
    """Inverted dropout layer; active only in training mode."""

    def __init__(self, probability: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {probability}")
        self.probability = probability
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, inputs: Tensor) -> Tensor:
        return F.dropout(inputs, self.probability, training=self.training, rng=self._rng)
