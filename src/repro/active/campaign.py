"""Partition-parallel alignment campaigns.

A *campaign* is the full DAAKG lifecycle for one aligned KG pair: embedding
pre-training, joint alignment training, and the batch active-learning loop.
The monolithic pipeline runs all of it single-process over the entire pair;
:class:`PartitionedCampaign` instead cuts the pair into ρ-bounded
cross-linked sub-pairs (:func:`repro.kg.partition.partition_pair`), hands
one self-contained :class:`~repro.runtime.executor.PieceSpec` per partition
to a :class:`~repro.runtime.executor.CampaignExecutor` (serial or
GIL-breaking process backend — both running the same
:func:`~repro.runtime.executor.run_piece_spec`), adopts each piece's
finished loop, and merges the per-partition similarity states
into one global :class:`~repro.runtime.merge.MergedSimilarityState` that
answers ``top_k`` / ``evaluate`` / ``mine`` queries over the original index
spaces without ever materialising the global matrix.

Determinism contract: results are identical
for **any** executor backend and **any** worker count.  Each partition's
pipeline draws from its own RNG (seeded by ``(campaign seed, partition
index)``), runs from a spec that shares no mutable state with its siblings,
and the merge folds pieces in partition order — so scheduling (and even the
process boundary) can change wall-clock, never results.  With a single
partition the campaign *is* the monolithic pipeline, bit for bit: the piece
is the original pair object and the seed is the configured seed.

Failure contract: a piece that crashes (in-process exception or a worker
process dying) becomes a *failed* piece, not a corrupted campaign —
:meth:`PartitionedCampaign.run` folds every completed piece, then raises
:class:`CampaignExecutionError`; checkpoints taken afterwards stay loadable
and the next ``run()`` re-executes only the unfinished pieces.

Configuration: ``DAAKGConfig.partition`` carries the knobs.  Only the
executor backend can be overridden per process, by
``REPRO_CAMPAIGN_EXECUTOR`` (environment wins), which is how CI runs every
campaign on the process executor without touching configs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.active.loop import ActiveLearningConfig, ActiveLearningLoop, ActiveLearningRecord
from repro.alignment.evaluation import AlignmentScores, evaluate_pair
from repro.alignment.similarity import DEFAULT_BLOCK_SIZE
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair
from repro.kg.partition import KGPairPartition, PartitionConfig, partition_pair
import repro.obs as obs
from repro.runtime.executor import (
    PieceOutcome,
    PieceSpec,
    create_executor,
    effective_executor_name,
    resolve_campaign_executor,
)
from repro.runtime.merge import MergedSimilarityState
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle with core
    from repro.core.config import DAAKGConfig
    from repro.core.daakg import DAAKG
    from repro.updates.delta import KGDelta
    from repro.updates.routing import DeltaRouting

logger = get_logger(__name__)

_KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)

# Multiplier separating per-partition seed streams.  Any fixed odd constant
# works; what matters is that the derivation depends only on (campaign seed,
# partition index), never on scheduling.
_SEED_STRIDE = 1_000_003


def piece_seed(base_seed: int, index: int, num_partitions: int) -> int:
    """The seed of partition ``index``'s pipeline.

    A single-partition campaign uses the campaign seed itself so it is
    bit-exact with the monolithic pipeline; multi-partition campaigns give
    each piece its own deterministic stream.
    """
    if num_partitions == 1:
        return base_seed
    return (base_seed * _SEED_STRIDE + index + 1) % (2**31 - 1)


@dataclass
class PartitionRunResult:
    """Outcome of one partition's campaign run.

    ``status`` is ``"completed"`` (the piece ran and its result was folded
    in), ``"skipped"`` (the piece had already exhausted its batch budget, so
    nothing was scheduled), or ``"failed"`` (the piece crashed; ``error``
    holds the reason and the piece keeps its pre-run state).
    """

    index: int
    seconds: float
    records: list[ActiveLearningRecord] = field(default_factory=list)
    status: str = "completed"
    error: str | None = None


@dataclass
class CampaignResult:
    """Outcome of a full (possibly resumed) campaign run."""

    partition_results: list[PartitionRunResult]
    seconds: float
    executor: str = "serial"

    @property
    def total_labels(self) -> int:
        return sum(
            r.records[-1].labels_used for r in self.partition_results if r.records
        )

    @property
    def failed(self) -> list[PartitionRunResult]:
        return [r for r in self.partition_results if r.status == "failed"]


@dataclass
class UpdateReport:
    """Outcome of one :meth:`PartitionedCampaign.apply_update` call."""

    touched: tuple[int, ...]
    untouched: tuple[int, ...]
    routing: "DeltaRouting"
    delta_summary: dict
    result: CampaignResult | None
    seconds: float
    route_seconds: float


class CampaignExecutionError(RuntimeError):
    """One or more pieces failed; the campaign itself stays resumable.

    Raised by :meth:`PartitionedCampaign.run` *after* every completed
    piece's result has been folded in, so the campaign object (and any
    checkpoint taken from it) keeps all successful work.  ``result`` holds
    the full per-piece breakdown; calling ``run()`` again re-executes only
    the failed pieces.
    """

    def __init__(self, result: CampaignResult) -> None:
        self.result = result
        failed = result.failed
        detail = "; ".join(
            f"piece {r.index} after {r.seconds:.2f}s: {r.error}" for r in failed
        )
        super().__init__(
            f"{len(failed)} of {len(result.partition_results)} campaign pieces "
            f"failed on the {result.executor!r} executor ({detail}); completed "
            "pieces kept their results — run() again (or save()/load() first) "
            "re-executes only the failed pieces"
        )


class PartitionedCampaign:
    """Orchestrates per-partition DAAKG campaigns and merges their states.

    The campaign itself only *orchestrates*: it cuts the pair, derives one
    self-contained :class:`PieceSpec` per partition, hands the specs to a
    :class:`CampaignExecutor` backend (serial / process — selected
    via ``partition.executor``, overridable with ``REPRO_CAMPAIGN_EXECUTOR``)
    and adopts the per-piece finished loops.  All training runs
    inside :func:`repro.runtime.executor.run_piece_spec`, whichever backend
    hosts it.

    Parameters
    ----------
    pair:
        The aligned KG pair (with its entity splits already drawn).
    config:
        The pipeline configuration shared by every partition; its
        ``partition`` field supplies the partitioning knobs unless
        ``partition`` is given explicitly.  ``REPRO_CAMPAIGN_EXECUTOR``
        overrides its executor either way, unless ``resolve_env=False``.
    strategy:
        Registry name of the selection strategy (each partition gets its own
        instance).
    active_config:
        Active-loop budget settings shared by every partition (defaults to
        the pipeline config's pool/inference/calibration settings).
    """

    def __init__(
        self,
        pair: AlignedKGPair,
        config: "DAAKGConfig | None" = None,
        strategy: str = "daakg",
        active_config: ActiveLearningConfig | None = None,
        partition: PartitionConfig | None = None,
        resolve_env: bool = True,
        partition_state: KGPairPartition | None = None,
    ) -> None:
        from repro.core.config import DAAKGConfig  # circular at module level

        self.dataset = pair
        self.config = config or DAAKGConfig()
        self.strategy = strategy
        self.active_config = active_config
        configured = partition if partition is not None else self.config.partition
        # ``resolve_env=False`` is the campaign-restore path: a restored
        # campaign keeps the executor its saved partition config names,
        # whatever this process's environment says.
        self.partition_config = (
            replace(configured, executor=resolve_campaign_executor(configured.executor))
            if resolve_env
            else configured
        )
        # ``partition_state`` is the restore path: a checkpoint's saved
        # pieces are adopted as they are (deltas may have evolved them away
        # from anything the partitioner would build), never re-partitioned.
        self.partition: KGPairPartition = (
            partition_state
            if partition_state is not None
            else partition_pair(pair, self.partition_config)
        )
        # touched pieces stash their pre-update pipelines here until the
        # retrain consumes them as warm starts
        self._warm: dict[int, "DAAKG"] = {}
        n = self.partition.num_partitions
        self.pipelines: list["DAAKG | None"] = [None] * n
        self.loops: list[ActiveLearningLoop | None] = [None] * n
        # merged-state cache, keyed on every piece engine's version token so
        # training through ANY path (run(), or a piece's public pipeline()/
        # loop() accessors) invalidates it
        self._merged: tuple[tuple, MergedSimilarityState] | None = None
        # per-piece obs payloads ({"snapshot", "events"}) from the most
        # recent run() — populated only while repro.obs is enabled
        self.piece_obs: dict[int, dict] = {}
        # working-space KGs of ``self.dataset``, keyed on its identity
        self._working: tuple[AlignedKGPair, tuple[KnowledgeGraph, KnowledgeGraph]] | None = None

    # ------------------------------------------------------------------ build
    @property
    def num_partitions(self) -> int:
        return self.partition.num_partitions

    def _piece_config(self, index: int) -> "DAAKGConfig":
        # each piece runs a plain single-partition pipeline on its own seed
        return replace(
            self.config,
            seed=piece_seed(self.config.seed, index, self.num_partitions),
            partition=PartitionConfig(),
        )

    def pipeline(self, index: int) -> "DAAKG":
        """The partition's pipeline, built on first use."""
        if self.pipelines[index] is None:
            from repro.core.daakg import DAAKG  # circular at module level

            self.pipelines[index] = DAAKG(
                self.partition.pieces[index].pair, self._piece_config(index)
            )
        return self.pipelines[index]

    def loop(self, index: int) -> ActiveLearningLoop:
        """The partition's active-learning loop, built on first use."""
        if self.loops[index] is None:
            self.loops[index] = self.pipeline(index).active_learning(
                self.strategy, self.active_config
            )
        return self.loops[index]

    # -------------------------------------------------------------------- run
    @property
    def executor_name(self) -> str:
        """The concrete executor backend ``run()`` will use on this machine.

        ``partition_config.executor`` (after environment resolution) mapped
        through :func:`repro.runtime.executor.effective_executor_name`:
        ``"auto"`` becomes ``"process"`` when the campaign has more than one
        piece, more than one worker and more than one core.
        """
        return effective_executor_name(
            self.partition_config.executor,
            workers=self.partition_config.workers,
            num_partitions=self.num_partitions,
        )

    def _piece_complete(self, index: int) -> bool:
        """True when the piece has nothing left to run (fit + full budget)."""
        pipeline = self.pipelines[index]
        loop = self.loops[index]
        return (
            pipeline is not None
            and pipeline.is_fitted
            and loop is not None
            and loop.batches_done >= loop.config.num_batches
        )

    def piece_specs(
        self,
        max_batches: int | None = None,
        indices: list[int] | None = None,
    ) -> list[PieceSpec]:
        """Self-contained, picklable specs for the given (default: all) pieces.

        Each spec carries everything its runner needs, as values: a started
        piece carries its pipeline and loop as a checkpoint value (so the
        runner resumes it bit-exactly, wherever it runs, and a crash leaves
        the campaign's own objects untouched); an unstarted piece carries
        its encoded dataset arrays and seeded config JSON, plus its
        pre-update pipeline's checkpoint value when it warm-starts.  This is
        the whole campaign↔executor interface — shipping these specs to
        another machine is all a multi-machine fleet needs.
        """
        from repro.core.config import config_to_dict  # circular at module level
        from repro.persistence.checkpoint import checkpoint_of  # circular at module level

        active_config = (
            config_to_dict(self.active_config) if self.active_config is not None else None
        )
        specs = []
        for index in indices if indices is not None else range(self.num_partitions):
            checkpoint = warm_start = dataset_arrays = None
            if self.pipelines[index] is not None:
                checkpoint = checkpoint_of(self.pipelines[index], self.loops[index])
            else:
                dataset_arrays = self._encode_piece(index)
                if index in self._warm:
                    # the piece's pre-update pipeline: the runner transplants
                    # its parameters by name into the fresh pipeline it
                    # builds on the updated pair (see repro.updates.warm_start)
                    warm_start = checkpoint_of(self._warm[index])
            specs.append(
                PieceSpec(
                    index=index,
                    config_json=self._piece_config(index).to_json(),
                    strategy=self.strategy,
                    active_config=active_config,
                    max_batches=max_batches,
                    dataset_arrays=dataset_arrays,
                    checkpoint=checkpoint,
                    warm_start=warm_start,
                    obs=obs.enabled(),
                )
            )
        return specs

    def _encode_piece(self, index: int) -> dict[str, np.ndarray]:
        """Piece ``index``'s pair encoded as codec arrays."""
        from repro.persistence.codec import pair_to_arrays  # circular at module level

        arrays: dict[str, np.ndarray] = {}
        pair_to_arrays(self.partition.pieces[index].pair, "dataset", arrays)
        return arrays

    def _fold_outcome(self, outcome: PieceOutcome) -> None:
        """Adopt a completed piece's finished loop and its pipeline."""
        self.loops[outcome.index] = outcome.loop
        self.pipelines[outcome.index] = outcome.loop.daakg
        self._warm.pop(outcome.index, None)

    def _fold_piece_obs(self, outcomes: list[PieceOutcome]) -> None:
        """Merge every piece's obs payload into the current scope.

        Counter and histogram merges are exact (fixed buckets), so the
        campaign-level snapshot equals the sum of the per-piece snapshots no
        matter which executor backend produced them.  Per-piece payloads are
        also kept on ``self.piece_obs`` for inspection.
        """
        for outcome in outcomes:
            if outcome.obs is None:
                continue
            self.piece_obs[outcome.index] = outcome.obs
            obs.merge_snapshot(outcome.obs["snapshot"])
            obs.extend_events(outcome.obs["events"])

    def run(self, max_batches: int | None = None) -> CampaignResult:
        """Fit + run the active loop of every unfinished partition.

        Pieces execute on the configured :class:`CampaignExecutor` backend
        (``executor_name``); every backend runs the same
        :func:`~repro.runtime.executor.run_piece_spec`, and the campaign
        adopts each finished loop — the serial backend's as it ran, the
        process backend's through the bit-exact checkpoint restore — so the
        backend and worker count can never change results, only wall-clock.
        Nothing is written to disk.
        ``max_batches`` caps how many *new* batches each partition processes
        this call (resume semantics identical to ``ActiveLearningLoop.run``).
        Pieces that already exhausted their batch budget are skipped; failed
        pieces raise :class:`CampaignExecutionError` *after* all completed
        pieces have been folded in, keeping the campaign resumable.
        """
        start = time.perf_counter()
        executor_name = self.executor_name
        outcomes: dict[int, PieceOutcome] = {}
        pending = [
            index
            for index in range(self.num_partitions)
            if not self._piece_complete(index)
        ]
        if pending:
            with obs.span("campaign.run", executor=executor_name, pieces=len(pending)):
                specs = self.piece_specs(max_batches, indices=pending)
                executor = create_executor(
                    executor_name, workers=self.partition_config.workers
                )
                for spec in specs:
                    obs.event(
                        "executor.piece.queued", piece=spec.index, executor=executor_name
                    )
                logger.info(
                    "running %d/%d pieces on the %s executor (%d workers)",
                    len(pending),
                    self.num_partitions,
                    executor_name,
                    executor.workers,
                )
                finished = executor.execute(specs)
                for outcome in finished:
                    outcomes[outcome.index] = outcome
                    if outcome.completed:
                        self._fold_outcome(outcome)
                self._fold_piece_obs(finished)

        results = []
        for index in range(self.num_partitions):
            outcome = outcomes.get(index)
            loop = self.loops[index]
            records = list(loop.records) if loop is not None else []
            if outcome is None:
                results.append(
                    PartitionRunResult(
                        index=index, seconds=0.0, records=records, status="skipped"
                    )
                )
            else:
                results.append(
                    PartitionRunResult(
                        index=index,
                        seconds=outcome.seconds,
                        records=records,
                        status=outcome.status,
                        error=outcome.error,
                    )
                )
        result = CampaignResult(
            partition_results=results,
            seconds=time.perf_counter() - start,
            executor=executor_name,
        )
        if result.failed:
            raise CampaignExecutionError(result)
        return result

    # ---------------------------------------------------------------- updates
    def apply_update(
        self, delta: "KGDelta", max_batches: int | None = None
    ) -> UpdateReport:
        """Ingest one :class:`KGDelta` and warm-start retrain only touched pieces.

        The incremental path end to end:

        1. **route** — :func:`repro.updates.route_delta` restricts the delta
           to the pieces it touches via the partition membership;
        2. **apply** — the campaign dataset and every touched piece's
           sub-pair are replaced by their (pure) delta applications;
           untouched pieces keep their pairs, pipelines, checkpoints and
           cached similarity channels — byte for byte;
        3. **retrain** — touched pieces drop their pipelines, stash them as
           warm starts, and :meth:`run` re-executes exactly those pieces
           (untouched pieces report ``"skipped"``), with every transplant
           happening inside the executor's runner;
        4. **re-merge** — the merged-state cache is invalidated for real,
           but untouched pieces' channel factors stay cached under their
           unchanged engine version tokens, so the next
           :meth:`merged_state` recomputes only the scatter plus the
           retrained pieces' factors.

        A piece failure propagates as :class:`CampaignExecutionError` after
        completed pieces folded in; warm stashes for failed pieces survive
        in memory, so calling :meth:`run` again retries them warm.  An empty
        delta is a no-op.
        """
        from repro.updates.routing import route_delta  # circular at module level

        start = time.perf_counter()
        routing = route_delta(self.partition, delta)
        if not routing.touched:
            return UpdateReport(
                touched=(),
                untouched=tuple(range(self.num_partitions)),
                routing=routing,
                delta_summary=delta.summary(),
                result=None,
                seconds=time.perf_counter() - start,
                route_seconds=time.perf_counter() - start,
            )
        new_dataset = self.dataset.apply_delta(delta)
        for index in routing.touched:
            piece = self.partition.pieces[index]
            if self.num_partitions == 1:
                # the identity piece *is* the dataset (bit-exact monolithic
                # contract), so it adopts the updated pair object directly
                piece.pair = new_dataset
            else:
                piece_delta = routing.piece_deltas.get(index)
                if piece_delta is not None:
                    piece.pair = piece.pair.apply_delta(piece_delta)
            if self.pipelines[index] is not None and self.pipelines[index].is_fitted:
                self._warm[index] = self.pipelines[index]
            self.pipelines[index] = None
            self.loops[index] = None
        self.dataset = new_dataset
        self._merged = None
        route_seconds = time.perf_counter() - start
        logger.info(
            "delta routed to pieces %s (%d untouched); warm-start retraining",
            list(routing.touched),
            self.num_partitions - len(routing.touched),
        )
        result = self.run(max_batches)
        return UpdateReport(
            touched=routing.touched,
            untouched=tuple(
                index
                for index in range(self.num_partitions)
                if index not in set(routing.touched)
            ),
            routing=routing,
            delta_summary=delta.summary(),
            result=result,
            seconds=time.perf_counter() - start,
            route_seconds=route_seconds,
        )

    # ------------------------------------------------------------------ merge
    def working_kgs(self) -> tuple[KnowledgeGraph, KnowledgeGraph]:
        """The working-space KGs a ``DAAKG`` built on the dataset trains over.

        Built by :func:`repro.core.daakg.augment_working_kgs` — the same
        function ``DAAKG._build_models`` uses — so the merged and served
        index spaces can never drift from the pipelines' model vocabularies.
        Original element indices are preserved (augmentation only appends),
        so gold id arrays computed on the dataset stay valid in the working
        space.  Cached on the identity of ``self.dataset``: an update
        replaces the dataset, which invalidates it.
        """
        if self._working is None or self._working[0] is not self.dataset:
            from repro.core.daakg import augment_working_kgs  # circular at module level

            kg1, kg2, _ = augment_working_kgs(self.dataset, self.config)
            self._working = (self.dataset, (kg1, kg2))
        return self._working[1]

    def _working_index(self) -> dict[ElementKind, tuple[dict[str, int], dict[str, int]]]:
        kg1, kg2 = self.working_kgs()
        return {
            ElementKind.ENTITY: (kg1.entity_index, kg2.entity_index),
            ElementKind.RELATION: (kg1.relation_index, kg2.relation_index),
            ElementKind.CLASS: (kg1.class_index, kg2.class_index),
        }

    @staticmethod
    def _ids(names: list[str], index: dict[str, int]) -> np.ndarray:
        return np.array([index[name] for name in names], dtype=np.int64)

    def _state_fingerprint(self) -> tuple:
        """Every piece engine's version token — changes whenever any trains."""
        return tuple(
            self.pipeline(i).model.similarity.state_token()
            for i in range(self.num_partitions)
        )

    def merged_state(self) -> MergedSimilarityState:
        """Fold every partition's similarity state into one global state.

        Per-piece channel factors are scattered into the original pair's
        (working-space) index spaces; see :mod:`repro.runtime.merge` for the
        semantics.  The merged state is cached against the pieces' engine
        version tokens, so further training through *any* path (another
        :meth:`run`, or a piece's ``pipeline()``/``loop()`` accessors)
        rebuilds it instead of serving stale similarities.
        """
        unfitted = [
            index
            for index in range(self.num_partitions)
            if self.pipelines[index] is None or not self.pipelines[index].is_fitted
        ]
        if unfitted:
            raise CampaignExecutionError(
                CampaignResult(
                    partition_results=[
                        PartitionRunResult(
                            index=index,
                            seconds=0.0,
                            status="failed",
                            error="piece has not been trained (run() the campaign "
                            "first; resume re-runs only unfinished pieces)",
                        )
                        for index in unfitted
                    ],
                    seconds=0.0,
                    executor=self.executor_name,
                )
            )
        fingerprint = self._state_fingerprint()
        if self._merged is not None and self._merged[0] == fingerprint:
            return self._merged[1]
        working = self._working_index()
        shapes = {
            kind: (len(left), len(right)) for kind, (left, right) in working.items()
        }
        contributions: dict[ElementKind, list] = {kind: [] for kind in _KINDS}
        block_size = DEFAULT_BLOCK_SIZE
        for index in range(self.num_partitions):
            pipeline = self.pipeline(index)
            engine = pipeline.model.similarity
            block_size = engine.block_size
            model = pipeline.model
            names = {
                ElementKind.ENTITY: (model.kg1.entities, model.kg2.entities),
                ElementKind.RELATION: (model.kg1.relations, model.kg2.relations),
                ElementKind.CLASS: (model.kg1.classes, model.kg2.classes),
            }
            for kind in _KINDS:
                left_index, right_index = working[kind]
                left_names, right_names = names[kind]
                contributions[kind].append(
                    (
                        engine.channels(kind),
                        self._ids(left_names, left_index),
                        self._ids(right_names, right_index),
                    )
                )
        merged = MergedSimilarityState.from_contributions(contributions, shapes, block_size)
        # token read after building: channel construction may lazily refresh
        # a piece snapshot, which bumps that piece's version
        self._merged = (self._state_fingerprint(), merged)
        return merged

    # ------------------------------------------------------------- evaluation
    def evaluate(self, test_only: bool = True) -> dict[str, AlignmentScores]:
        """Merged-state metrics over the *original* pair's gold matches.

        Gold id arrays computed on the original pair stay valid in the
        working space (augmentation only appends vocabulary), so this is
        directly comparable to ``DAAKG.evaluate`` on a monolithic run.
        """
        return evaluate_pair(self.merged_state(), self.dataset, test_only)

    # ------------------------------------------------------------ persistence
    def save(self, path: str) -> None:
        """Checkpoint the whole campaign (manifest + per-partition dirs)."""
        from repro.persistence.campaign import save_campaign  # circular at module level

        save_campaign(path, self)

    @classmethod
    def load(cls, path: str) -> "PartitionedCampaign":
        """Restore a campaign saved by :meth:`save`; ``run()`` resumes it."""
        from repro.persistence.campaign import load_campaign  # circular at module level

        return load_campaign(path)

    # ------------------------------------------------------------------ stats
    def summary(self) -> dict:
        """Partitioning statistics plus per-piece progress."""
        return {
            "partition": self.partition.summary(),
            "strategy": self.strategy,
            "workers": self.partition_config.workers,
            "executor": self.executor_name,
            "progress": [
                {
                    "index": i,
                    "fitted": self.pipelines[i] is not None and self.pipelines[i].is_fitted,
                    "batches_done": self.loops[i].batches_done if self.loops[i] else 0,
                }
                for i in range(self.num_partitions)
            ],
        }
