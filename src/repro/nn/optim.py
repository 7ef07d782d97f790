"""The optimizer: Adam.

The paper trains all models with Adam at learning rate 0.01, and so do Lumos
and every baseline here (through :func:`repro.nn.fit.fit`).
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .module import Parameter


class Adam:
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment = [np.zeros_like(p.data) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            self._first_moment[index] = (
                self.beta1 * self._first_moment[index] + (1.0 - self.beta1) * grad
            )
            self._second_moment[index] = (
                self.beta2 * self._second_moment[index] + (1.0 - self.beta2) * grad ** 2
            )
            m_hat = self._first_moment[index] / bias_correction1
            v_hat = self._second_moment[index] / bias_correction2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
