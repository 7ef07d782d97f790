"""Numpy-based neural network substrate (autograd, layers, Adam).

This subpackage replaces the PyTorch dependency of the original Lumos
implementation, and holds exactly what Lumos and the baselines train with:
dense/sparse linear algebra with reverse-mode autodiff, the row gather, Glorot
initialisation, the linear head, dropout, the Adam optimizer (the paper's
only one) and the supervised / unsupervised losses of the evaluation.  Every
kernel runs on the one numpy backend :func:`get_backend` returns; each GNN
layer and loss is one fused autograd node, and its composite (op-for-op) form
is the test oracle in ``tests/helpers/oracles.py``.
"""

from . import functional
from . import init
from .backend import get_backend
from .layers import Dropout, Linear
from .loss import cross_entropy, link_prediction_loss
from .module import Module, Parameter
from .optim import Adam
from .tensor import Tensor, no_grad

__all__ = [
    "functional",
    "init",
    "get_backend",
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "Dropout",
    "Adam",
    "cross_entropy",
    "link_prediction_loss",
]
