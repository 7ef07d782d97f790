"""Module / Parameter abstractions, mirroring a small subset of ``torch.nn``.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
exposes :meth:`parameters` for the optimizers, and carries a ``training``
flag toggled by :meth:`train` / :meth:`eval` (used by dropout).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural network modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, parameter: Parameter) -> None:
        """Explicitly register a parameter under ``name``."""
        self._parameters[name] = parameter
        object.__setattr__(self, name, parameter)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def children(self) -> Iterator["Module"]:
        """Yield immediate child modules."""
        yield from self._modules.values()

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------ #
    # State handling
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter names to array copies."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from a mapping produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter '{name}': "
                    f"expected {parameter.data.shape}, got {value.shape}"
                )
            parameter.data = value.copy()
        for module in self.modules():
            module.drop_memos()

    def drop_memos(self) -> None:
        """Release any output this module keeps for a later pass.

        :meth:`load_state_dict` calls it on every module: a memo keyed on the
        replaced parameter arrays can never hit again.  The default keeps
        nothing.
        """

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(parameter.data.size for parameter in self.parameters())

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def forward(self, inputs):
        for module in self._modules.values():
            inputs = module(inputs)
        return inputs
