"""Derived structure lives on the object it comes from; a run owns its store.

(a) The prepared operators and GAT edge plans a training run reads are built
    by the tree batch, its factored input and the first layer's memo on the
    first epoch, and never again: no later epoch of a GCN or GAT run, on
    either task, cold or re-bound to another sweep point's LDP exchange,
    builds a ``PreparedMatrix``, a ``PreparedEdges`` or a head-blocked plan.
(b) A ``LumosSystem`` built without ``store=`` keeps its artifacts in a
    store of its own, so once the system is deleted nothing it computed is
    left alive.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core import LumosConfig, LumosSystem, TrainerConfig, TreeConstructorConfig
from repro.core.trainer import TreeBasedGNNTrainer
from repro.engine import ArtifactStore
from repro.graph import generate_facebook_like, split_edges, split_nodes
from repro.nn.backend import HeadBlockedEdges, PreparedEdges, PreparedMatrix

EPOCHS = 4


@pytest.fixture(scope="module")
def graph():
    return generate_facebook_like(seed=3, num_nodes=120)


def _config(backbone: str, epsilon: float, epochs: int = EPOCHS) -> LumosConfig:
    return LumosConfig(
        constructor=TreeConstructorConfig(mcmc_iterations=20),
        trainer=TrainerConfig(backbone=backbone, epochs=epochs, epsilon=epsilon),
        seed=0,
    )


def _builds_per_epoch(system: LumosSystem, task: str, graph, monkeypatch) -> list:
    """The running count of prepared structures at the end of every epoch."""
    builds = []
    epoch_ends = []
    for cls in (PreparedMatrix, PreparedEdges, HeadBlockedEdges):

        def spy(instance, *args, _build=cls.__init__, **kwargs):
            builds.append(type(instance).__name__)
            _build(instance, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    charge = TreeBasedGNNTrainer._charge_epoch

    def end_of_epoch(trainer, *args):
        epoch_ends.append(list(builds))
        charge(trainer, *args)

    monkeypatch.setattr(TreeBasedGNNTrainer, "_charge_epoch", end_of_epoch)
    if task == "supervised":
        system.run_supervised(split_nodes(graph, seed=0))
    else:
        system.run_unsupervised(split_edges(graph, seed=0))
    monkeypatch.undo()
    assert len(epoch_ends) == EPOCHS
    return epoch_ends


@pytest.mark.parametrize("task", ["supervised", "unsupervised"])
@pytest.mark.parametrize("backbone", ["gcn", "gat"])
def test_no_epoch_after_the_first_prepares_structure(graph, backbone, task, monkeypatch):
    store = ArtifactStore()
    cold = LumosSystem(graph, _config(backbone, 2.0), store=store)
    cold_epochs = _builds_per_epoch(cold, task, graph, monkeypatch)
    assert cold_epochs[0]  # epoch 0 did prepare what the run reads
    assert cold_epochs[-1] == cold_epochs[0]

    # Another sweep point re-binds the stored batch: it shares the batch's
    # structure, so only its own factored input is prepared, on epoch 0.
    warm = LumosSystem(graph, _config(backbone, 4.0), store=store)
    warm_epochs = _builds_per_epoch(warm, task, graph, monkeypatch)
    assert store.summary()["tree_batch"] == {"hits": 1, "misses": 1}
    assert warm_epochs[-1] == warm_epochs[0]
    assert "PreparedEdges" not in warm_epochs[0]
    assert "HeadBlockedEdges" not in warm_epochs[0]


def test_a_storeless_system_holds_nothing_once_deleted():
    config = _config("gcn", 2.0, epochs=2)
    # First-use imports and module state, on another graph: nothing the
    # measured run computes is there to be found.
    warm_up = generate_facebook_like(seed=1, num_nodes=60)
    LumosSystem(warm_up, config).run_supervised(split_nodes(warm_up, seed=0))
    graph = generate_facebook_like(seed=0, num_nodes=300)
    split = split_nodes(graph, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        system = LumosSystem(graph, config)
        system.run_supervised(split)
        held = tracemalloc.get_traced_memory()[0] - before
        del system
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held > 1_000_000  # the run did hold its stages
    assert left < 64 * 1024
