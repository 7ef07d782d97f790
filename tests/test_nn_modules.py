"""Tests for Module/Parameter, layers, Adam and the losses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Dropout,
    Linear,
    Module,
    Parameter,
    Tensor,
    cross_entropy,
    link_prediction_loss,
)
from repro.nn import init


class TwoLayers(Module):
    """Two linear layers with a dropout between them: nested parameters."""

    def __init__(self, dropout: float = 0.0) -> None:
        super().__init__()
        self.first = Linear(3, 4)
        self.drop = Dropout(dropout)
        self.second = Linear(4, 2)

    def forward(self, inputs: Tensor) -> Tensor:
        return self.second(self.drop(self.first(inputs)))


def every_row(rows: int) -> np.ndarray:
    return np.ones(rows, dtype=bool)


class TestModuleInfrastructure:
    def test_parameters_are_registered(self):
        layer = Linear(3, 2)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert all(isinstance(p, Parameter) for p in layer.parameters())

    def test_nested_module_parameters(self):
        model = TwoLayers()
        assert len(model.parameters()) == 4
        names = [name for name, _ in model.named_parameters()]
        assert names == ["first.weight", "first.bias", "second.weight", "second.bias"]
        assert model(Tensor(np.ones((5, 3)))).shape == (5, 2)

    def test_state_dict_roundtrip(self):
        model = TwoLayers()
        state = model.state_dict()
        for parameter in model.parameters():
            parameter.data = parameter.data + 1.0
        model.load_state_dict(state)
        for name, parameter in model.named_parameters():
            np.testing.assert_allclose(parameter.data, state[name])

    def test_load_state_dict_rejects_unknown_keys(self):
        model = Linear(2, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({"nope": np.zeros((2, 2))})

    def test_load_state_dict_rejects_bad_shape(self):
        model = Linear(2, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = TwoLayers(dropout=0.5)
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_zero_grad(self):
        layer = Linear(2, 1)
        out = layer(Tensor(np.ones((3, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        Adam(layer.parameters()).zero_grad()
        assert layer.weight.grad is None and layer.bias.grad is None


class TestLayers:
    def test_linear_shapes_and_validation(self):
        layer = Linear(4, 3)
        assert layer(Tensor(np.ones((5, 4)))).shape == (5, 3)
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_linear_no_bias(self):
        layer = Linear(2, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_dropout_layer_respects_training_flag(self):
        layer = Dropout(0.9, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(layer(x).data, x.data)
        layer.train()
        assert (layer(x).data == 0).any()

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestInit:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        weight = init.xavier_uniform((100, 50), rng=rng)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(weight).max() <= bound + 1e-12

    def test_zeros(self):
        np.testing.assert_allclose(init.zeros((3,)), np.zeros(3))


class TestAdam:
    def test_adam_converges_on_quadratic(self):
        target = np.array([1.0, -2.0, 3.0])
        parameter = Parameter(np.zeros(3))
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(300):
            difference = parameter + Tensor(-target)
            loss = (difference * difference).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        parameter = Parameter(np.full(4, 10.0))
        optimizer = Adam([parameter], lr=0.1, weight_decay=0.5)
        for _ in range(50):
            loss = (parameter * 0.0).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.all(np.abs(parameter.data) < 10.0)

    def test_step_skips_parameters_without_grad(self):
        parameter = Parameter(np.ones(2))
        optimizer = Adam([parameter], lr=0.1)
        optimizer.step()  # no gradient yet: should be a no-op, not an error
        np.testing.assert_allclose(parameter.data, np.ones(2))

    def test_optimizer_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.1, betas=(1.5, 0.9))


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = cross_entropy(logits, np.array([0, 1]), mask=every_row(2))
        assert loss.item() < 1e-4

    def test_cross_entropy_uniform_prediction(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = cross_entropy(logits, np.array([0, 1, 2, 0]), mask=every_row(4))
        assert loss.item() == pytest.approx(np.log(3), rel=1e-6)

    def test_cross_entropy_mask_restricts_rows(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        # Second row is wrong, but masked out.
        loss = cross_entropy(logits, np.array([0, 0]), mask=np.array([True, False]))
        assert loss.item() < 1e-4

    def test_cross_entropy_validates_shapes(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(3)), np.array([0]), mask=every_row(3))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((3, 2))), np.array([0]), mask=every_row(3))

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 2)), requires_grad=True)
        cross_entropy(logits, np.array([0]), mask=every_row(1)).backward()
        # Increasing the correct logit should decrease the loss.
        assert logits.grad[0, 0] < 0 < logits.grad[0, 1]

    def test_link_prediction_loss_prefers_aligned_pairs(self):
        source = Tensor(np.array([[1.0, 0.0]]))
        aligned = Tensor(np.array([[1.0, 0.0]]))
        opposed = Tensor(np.array([[-1.0, 0.0]]))
        good = link_prediction_loss(source, aligned, opposed).item()
        bad = link_prediction_loss(source, opposed, aligned).item()
        assert good < bad

    @given(st.integers(2, 6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_cross_entropy_is_nonnegative(self, rows, classes):
        rng = np.random.default_rng(rows * 7 + classes)
        logits = Tensor(rng.normal(size=(rows, classes)))
        targets = rng.integers(classes, size=rows)
        assert cross_entropy(logits, targets, mask=every_row(rows)).item() >= 0.0
