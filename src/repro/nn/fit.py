"""The training loop: Adam, validation-based model selection, one clock.

Lumos and every comparison method train the same way (paper Section VIII):
Adam on the task loss, the state with the best validation metric kept.
:func:`fit` is that loop, written once; an entry point is set-up plus the
two closures that say which tensors go in.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

from .module import Module
from .optim import Adam
from .tensor import Tensor, no_grad


class FitResult(NamedTuple):
    """What :func:`fit` observed; the model itself ends on the best state."""

    losses: List[float]
    metrics: List[float]
    best_metric: float
    best_output: Any
    skipped_updates: int
    seconds: float


def fit(
    model: Module,
    learning_rate: float,
    epochs: int,
    loss: Callable[[int], Optional[Tensor]],
    evaluate: Callable[[], Tuple[float, Any]],
    after_epoch: Optional[Callable[[int], None]] = None,
) -> FitResult:
    """Train ``model`` for ``epochs`` epochs and restore its best state.

    Per epoch: ``loss(epoch)`` runs in training mode and is stepped on
    (``zero_grad``, ``backward``, ``step``); a ``None`` loss — no participant
    held a training vertex — clears the gradients, skips the step and records
    ``0.0``.  ``evaluate()`` then runs in evaluation mode without gradient
    recording and returns ``(validation metric, output)``; a metric ``>=``
    the best so far wins (the last epoch among ties) and its state and output
    are kept.  ``after_epoch(epoch)`` runs last.

    Afterwards the best state is loaded back and its kept output returned —
    evaluation is deterministic given the state, so callers read the test
    metric from it without another forward pass.  Only a run in which no
    epoch won (``epochs == 0``) evaluates once more, on the untrained model.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    start = time.perf_counter()
    optimizer = Adam(model.parameters(), lr=learning_rate)
    losses: List[float] = []
    metrics: List[float] = []
    best_metric, best_state, best_output = 0.0, None, None
    skipped_updates = 0

    for epoch in range(epochs):
        model.train()
        value = loss(epoch)
        optimizer.zero_grad()
        if value is None:
            skipped_updates += 1
            losses.append(0.0)
        else:
            value.backward()
            optimizer.step()
            losses.append(value.item())

        model.eval()
        with no_grad():
            metric, output = evaluate()
        metrics.append(metric)
        if metric >= best_metric:
            best_metric, best_state, best_output = metric, model.state_dict(), output
        if after_epoch is not None:
            after_epoch(epoch)

    if best_state is None:
        model.eval()
        with no_grad():
            _, best_output = evaluate()
    else:
        model.load_state_dict(best_state)
    return FitResult(
        losses, metrics, best_metric, best_output, skipped_updates,
        time.perf_counter() - start,
    )
