"""Work plans: content-keyed dedupe, and the loop the runner runs them with.

A :class:`~repro.runtime.WorkPlan` maps requests whose content keys collide
to one item; ``repro.eval.runner._run_plan`` runs each unique item once, in
first-request order, on one artifact store, and hands every requester its
value back under its own name.
"""

from __future__ import annotations

import pytest

from repro.core import default_config_for
from repro.engine import ArtifactStore, default_store
from repro.eval import runner
from repro.runtime import BaselineItem, GraphSpec, LumosItem, WorkItem, WorkPlan

SPEC = GraphSpec(dataset="facebook", seed=0, num_nodes=40)


def _sweep_item(epsilon):
    config = (
        default_config_for("facebook")
        .with_mcmc_iterations(10)
        .with_epochs(3)
        .with_epsilon(epsilon)
    )
    return LumosItem(
        graph_spec=SPEC, config=config, task="supervised",
        split_seed=0, label=f"eps={epsilon}",
    )


class _Recorded(WorkItem):
    """An item keyed by its name that records every execution."""

    def __init__(self, name, calls):
        self.name, self.calls = name, calls

    def key(self):
        return self.name

    def execute(self, store):
        self.calls.append((self.name, store))
        return {"value": self.name.upper()}


class TestWorkPlan:
    def test_colliding_keys_dedupe_to_one_item(self):
        plan = WorkPlan()
        first = plan.add(_sweep_item(0.5))
        second = plan.add(_sweep_item(2.0))
        duplicate = plan.add(_sweep_item(0.5))
        assert duplicate == first and first != second
        assert len(plan.unique_items()) == 2 and len(plan.requests) == 3
        assert plan.requests == [first, second, first]

    def test_run_plan_executes_each_unique_item_once_on_one_store(self):
        calls = []
        store = ArtifactStore()
        items = {
            "a": _Recorded("x", calls),
            "b": _Recorded("y", calls),
            "c": _Recorded("x", calls),
        }
        values = runner._run_plan(items, store)
        assert values == {"a": "X", "b": "Y", "c": "X"}
        assert list(values) == ["a", "b", "c"]
        assert calls == [("x", store), ("y", store)]

    def test_run_plan_defaults_to_the_process_wide_store(self):
        calls = []
        runner._run_plan({"a": _Recorded("x", calls)}, None)
        assert calls == [("x", default_store())]


class TestGraphSpec:
    @pytest.mark.parametrize(
        "num_nodes, error", [(0, ValueError), (2.5, TypeError)], ids=["zero", "fractional"]
    )
    def test_size_is_checked_by_load_dataset(self, num_nodes, error):
        # A spec loads through load_dataset, which rejects the size instead of
        # resizing; the rejected spec leaves nothing in the per-process memo.
        spec = GraphSpec(dataset="small-world", seed=0, num_nodes=num_nodes)
        with pytest.raises(error, match="num_nodes"):
            spec.load()
        with pytest.raises(error, match="num_nodes"):
            spec.load()


class TestBaselineItem:
    def _item(self, **overrides):
        fields = dict(
            method="centralized", task="supervised", graph_spec=SPEC,
            backbone="gcn", epochs=3, seed=0, split_seed=0,
        )
        fields.update(overrides)
        return BaselineItem(**fields)

    @pytest.mark.parametrize(
        "override",
        [
            {"method": "lpgnn"},
            {"task": "unsupervised"},
            {"backbone": "gat"},
            {"epochs": 4},
            {"seed": 1},
            {"split_seed": 1},
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_key_changes_with_every_field(self, override):
        assert self._item(**override).key() != self._item().key()
        assert self._item(**override).key() == self._item(**override).key()

    def test_label_does_not_enter_the_key(self):
        assert self._item().key() == self._item(label="x").key()

    def test_invalid_method_for_task_raises(self):
        with pytest.raises(ValueError, match="method must be one of"):
            self._item(method="lpgnn", task="unsupervised")
        with pytest.raises(ValueError, match="method must be one of"):
            self._item(method="lumos")
        with pytest.raises(ValueError, match="task must be one of"):
            self._item(task="workload")

    def test_baselines_carry_no_federation_state(self):
        payload = self._item(method="naive_fedgnn").execute(ArtifactStore())
        # Baselines touch no ledger, accountant or system RNG.
        assert payload["ledger_summary"] is None
        assert payload["rng_state"] is None

    @pytest.mark.parametrize("task", ["supervised", "unsupervised"])
    def test_baselines_neither_read_nor_fill_the_store(self, task):
        stores = [ArtifactStore(), ArtifactStore()]
        payloads = [
            self._item(method="naive_fedgnn", task=task).execute(store) for store in stores
        ]
        assert payloads[0] == payloads[1]
        for store in stores:
            assert len(store) == 0 and store.stats()["misses"] == 0
