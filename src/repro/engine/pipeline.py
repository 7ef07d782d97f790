"""Staged execution pipeline with content-keyed artifact reuse.

A :class:`Pipeline` runs an ordered list of :class:`~repro.engine.stages.Stage`
objects over a :class:`~repro.engine.stages.PipelineContext`, consulting an
:class:`~repro.engine.store.ArtifactStore` before every stage:

* **miss** — the stage computes for real; the pipeline records the stage's
  RNG consumption and the rows the communication ledger gained since a
  :meth:`~repro.federation.network.CommunicationLedger.mark` alongside the
  value;
* **hit** — the stage's cached value is replayed: the ledger delta is
  appended to the fresh environment's ledger (rounds shifted to where that
  ledger stands), the shared RNG is fast-forwarded
  to the post-stage state, and the stage's ``replay`` hook re-installs cheap
  derived state (assignments, received features).

The two bookkeeping steps are what make reuse *transparent*: a downstream
consumer (the trainer, the ledger summary, a later stage) cannot distinguish
a warm run from a cold one — results are bit-for-bit identical.
"""

from __future__ import annotations

from typing import List, Optional

from .. import obs
from .stages import PipelineContext, Stage, lumos_stages
from .store import ArtifactStore, StoredArtifact, default_store


class Pipeline:
    """Runs stages in order with artifact reuse."""

    def __init__(self, stages: List[Stage], store: Optional[ArtifactStore] = None) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages = list(stages)
        self.store = store if store is not None else default_store()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, context: PipelineContext, through: Optional[str] = None) -> PipelineContext:
        """Execute stages (up to and including ``through``) over ``context``.

        Stages already present in ``context.artifacts`` are skipped, so a
        context can be advanced incrementally (``through="construction"``
        now, ``through="tree_batch"`` later) without recomputation.
        """
        if through is not None and all(stage.name != through for stage in self.stages):
            raise KeyError(f"unknown stage '{through}'")
        for stage in self.stages:
            if stage.name not in context.artifacts:
                self._run_stage(stage, context)
            if stage.name == through:
                break
        return context

    def _run_stage(self, stage: Stage, context: PipelineContext) -> None:
        with obs.span(f"engine.stage.{stage.name}") as trace_span:
            key = stage.key(context)
            artifact = self.store.get(key)
            if artifact is not None:
                self.store.record_hit(stage.name)
                trace_span["attributes"]["cache"] = "hit"
                obs.add_counter(f"engine.stage.{stage.name}.hits")
                # A stage may derive a per-run value from the cached one (e.g.
                # the tree batch re-binds the current run's LDP features); when
                # replay returns None the cached value is used as-is.
                replayed = stage.replay(context, artifact.value)
                self._replay_side_effects(context, artifact)
                value = artifact.value if replayed is None else replayed
            else:
                self.store.record_miss(stage.name)
                trace_span["attributes"]["cache"] = "miss"
                obs.add_counter(f"engine.stage.{stage.name}.misses")
                mark = self._ledger_mark(context)
                value = stage.compute(context)
                artifact = self._capture(context, value, mark)
                self.store.put(key, artifact)
        context.artifacts[stage.name] = value
        context.keys[stage.name] = key

    # ------------------------------------------------------------------ #
    # Side-effect capture / replay
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ledger_mark(context: PipelineContext):
        environment = context.environment
        return environment.ledger.mark() if environment is not None else None

    @staticmethod
    def _capture(context: PipelineContext, value, mark) -> StoredArtifact:
        environment = context.environment
        return StoredArtifact(
            value=value,
            rng_state=context.rng.bit_generator.state,
            ledger_delta=environment.ledger.since(mark) if environment is not None else None,
        )

    @staticmethod
    def _replay_side_effects(context: PipelineContext, artifact: StoredArtifact) -> None:
        if artifact.rng_state is not None:
            context.rng.bit_generator.state = artifact.rng_state
        if context.environment is not None and artifact.ledger_delta is not None:
            context.environment.ledger.replay(artifact.ledger_delta)


def build_lumos_pipeline(store: Optional[ArtifactStore] = None) -> Pipeline:
    """The standard Lumos pipeline: partition -> trees -> LDP -> batch."""
    return Pipeline(lumos_stages(), store=store)
