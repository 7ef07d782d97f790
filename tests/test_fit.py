"""The contract of the one training loop, on a two-parameter toy module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.link_prediction import negative_sampler
from repro.nn.fit import fit
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled


class Toy(Module):
    """``w . x`` with two weights; every call logs the mode it ran in."""

    def __init__(self) -> None:
        super().__init__()
        self.w = Parameter(np.array([1.0, -1.0]))
        self.modes = []

    def forward(self) -> Tensor:
        self.modes.append(("train" if self.training else "eval", is_grad_enabled()))
        return (self.w * Tensor(np.array([1.0, 2.0]))).sum()


def _run(metrics, epochs=None):
    """Fit a :class:`Toy` whose validation metric follows the script ``metrics``."""
    model = Toy()
    seen = iter(metrics)
    states = []

    def evaluate():
        model()
        states.append(model.w.data.copy())
        return next(seen), len(states) - 1

    epochs = len(metrics) if epochs is None else epochs
    run = fit(model, 0.1, epochs, lambda _epoch: model(), evaluate)
    return model, run, states


def test_ties_keep_the_last_tied_epochs_state_and_output():
    model, run, states = _run([0.5, 0.7, 0.7, 0.6])
    assert run.best_metric == 0.7
    assert run.best_output == 2
    assert np.array_equal(model.w.data, states[2])
    assert run.metrics == [0.5, 0.7, 0.7, 0.6]


def test_model_ends_on_the_best_epoch_not_the_last():
    model, run, states = _run([0.9, 0.1, 0.2])
    assert run.best_output == 0
    assert np.array_equal(model.w.data, states[0])
    assert not np.array_equal(model.w.data, states[2])
    # The kept output was read, not recomputed: three evaluations, no fourth.
    assert len(states) == 3


def test_none_loss_leaves_the_parameters_untouched_and_counts_a_skip():
    model = Toy()
    states = []

    def loss(epoch):
        value = model()  # the forward pass still runs on a skipped round
        return None if epoch == 1 else value

    def evaluate():
        states.append(model.w.data.copy())
        return 0.0, None

    run = fit(model, 0.1, 3, loss, evaluate)
    assert np.array_equal(states[1], states[0])
    assert not np.array_equal(states[2], states[1])
    assert run.losses[0] != 0.0 and run.losses[1] == 0.0
    assert run.skipped_updates == 1


def test_after_epoch_runs_once_per_epoch_after_its_evaluation():
    events = []
    model = Toy()

    def evaluate():
        events.append("evaluate")
        return 0.0, None

    fit(model, 0.1, 3, lambda _epoch: model(), evaluate, lambda epoch: events.append(epoch))
    assert events == ["evaluate", 0, "evaluate", 1, "evaluate", 2]


def test_modes_are_train_inside_loss_and_eval_without_grad_inside_evaluate():
    model, _, _ = _run([0.1, 0.2])
    assert model.modes == [("train", True), ("eval", False)] * 2
    assert is_grad_enabled()


def test_no_winning_epoch_evaluates_the_untrained_model_once():
    model, run, states = _run([0.3], epochs=0)
    assert run.losses == [] and run.metrics == []
    assert run.best_metric == 0.0 and run.best_output == 0
    assert np.array_equal(model.w.data, [1.0, -1.0])
    assert model.modes == [("eval", False)]


def test_negative_epochs_are_rejected_before_anything_runs():
    model = Toy()
    with pytest.raises(ValueError, match="epochs must be non-negative"):
        fit(model, 0.1, -3, lambda _epoch: model(), lambda: (0.0, None))
    assert model.modes == []


def test_shared_sampler_draws_non_neighbours():
    # A 6-cycle: every vertex has two neighbours, so three valid negatives.
    pairs = np.array([[i, (i + 1) % 6] for i in range(6)] * 50)
    sample = negative_sampler(pairs, 6, np.random.default_rng(0))
    for _ in range(3):
        negatives = sample()
        assert negatives.shape == (300,)
        assert np.all(negatives != pairs[:, 0])
        assert np.all((negatives - pairs[:, 0]) % 6 != 1)
        assert np.all((pairs[:, 0] - negatives) % 6 != 1)
