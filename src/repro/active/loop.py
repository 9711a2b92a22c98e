"""The active alignment loop (Figure 2, right-hand side).

Each iteration: build the selection state (calibrated probabilities and,
for strategies that need it, an inference-power estimator over the alignment
graph), ask the strategy for a batch, label it with the oracle, fine-tune the
joint alignment model on the new labels (focal loss), and record progressive
evaluation scores.  The pool and its alignment graph depend only on the model
before the first batch and on the two KGs, so both are built once and kept
for the whole loop; the estimator is rebuilt per batch because fine-tuning
changes the model it reads.  Strategies pick pool ids; the loop builds
``ElementPair`` objects for the picked ids only, for the oracle and the
record.  The loop stops when the labelling budget (number of batches) runs
out, as in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.active.oracle import Oracle
from repro.active.pool import ElementPairPool, PoolConfig, build_pool
from repro.active.strategies import SelectionState, SelectionStrategy
from repro.alignment.calibration import AlignmentCalibrator, CalibrationConfig
from repro.alignment.evaluation import AlignmentScores, evaluate_pair
from repro.alignment.trainer import JointAlignmentTrainer
from repro.inference.alignment_graph import AlignmentGraph, graph_from_pool
from repro.inference.pairs import ElementPair
from repro.inference.power import InferencePowerConfig, InferencePowerEstimator
from repro.kg.elements import ElementKind
from repro.kg.pair import AlignedKGPair
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, ensure_rng

logger = get_logger(__name__)

_KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)


@dataclass(frozen=True)
class ActiveLearningConfig:
    """Budget settings of the active loop.

    The pool is built once, from the model as it stands before the first
    batch, and reused by every later batch.  So is its alignment graph, built
    on the first batch whose strategy needs inference power.
    """

    batch_size: int = 50
    num_batches: int = 5
    fine_tune_epochs: int = 15
    pool: PoolConfig = PoolConfig()
    inference: InferencePowerConfig = InferencePowerConfig()
    calibration: CalibrationConfig = CalibrationConfig()

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.num_batches < 1:
            raise ValueError("batch_size and num_batches must be >= 1")


@dataclass
class ActiveLearningRecord:
    """Progressive scores after one labelled batch."""

    batch_index: int
    labels_used: int
    matches_labelled: int
    match_fraction: float
    entity_scores: AlignmentScores
    relation_scores: AlignmentScores
    class_scores: AlignmentScores
    seconds: float
    selected: list[ElementPair] = field(default_factory=list)


class ActiveLearningLoop:
    """Drives strategy → oracle → fine-tune iterations."""

    def __init__(
        self,
        pair: AlignedKGPair,
        trainer: JointAlignmentTrainer,
        oracle: Oracle,
        strategy: SelectionStrategy,
        config: ActiveLearningConfig | None = None,
        seed: RandomState = None,
    ) -> None:
        self.pair = pair
        self.trainer = trainer
        self.model = trainer.model
        self.oracle = oracle
        self.strategy = strategy
        self.config = config or ActiveLearningConfig()
        self.rng = ensure_rng(seed)
        self.calibrator = AlignmentCalibrator(self.config.calibration)
        self._pool: ElementPairPool | None = None
        self._graph: tuple[ElementPairPool, AlignmentGraph] | None = None
        self.records: list[ActiveLearningRecord] = []
        # Campaign persistence: ``daakg`` is the owning pipeline facade
        # (attached by ``DAAKG.active_learning``), which checkpointing needs
        # because the loop only sees the derived working pair, not the
        # original dataset.  ``autosave_path`` triggers a checkpoint after
        # every completed batch; ``_next_batch`` is the resume cursor.
        self.daakg = None
        self.autosave_path: str | None = None
        self._next_batch = 0

    # ----------------------------------------------------------------- state
    @property
    def batches_done(self) -> int:
        """Completed batches (the resume cursor) — public progress surface."""
        return self._next_batch

    def pool(self) -> ElementPairPool:
        if self._pool is None:
            self._pool = build_pool(self.model, self.config.pool)
        return self._pool

    def graph(self) -> AlignmentGraph:
        """The alignment graph of :meth:`pool`, built on first use and kept
        for as long as the loop keeps that pool object."""
        pool = self.pool()
        if self._graph is None or self._graph[0] is not pool:
            self._graph = (pool, graph_from_pool(self.model.kg1, self.model.kg2, pool))
        return self._graph[1]

    def _probability_lookup(self, pool: ElementPairPool) -> np.ndarray:
        """Calibrated probability of every pool pair, indexed by pool id.

        Similarities come from the model's SimilarityEngine (cached between
        optimiser steps).  Probabilities are computed only for the pool's
        pairs, by a streamed tile softmax over the rows and columns they
        touch (the full probability matrix never exists).
        """
        engine = self.model.similarity
        parts = []
        for kind in _KINDS:
            sides = pool.sides(kind)
            parts.append(
                self.calibrator.pair_probabilities_from_engine(
                    engine, kind, sides[:, 0], sides[:, 1]
                )
            )
        return np.concatenate(parts)

    def _build_state(self) -> SelectionState:
        pool = self.pool()
        unlabelled = np.ones(len(pool), dtype=bool)
        for kind in _KINDS:
            labelled = self.trainer.labels.labelled_pairs(kind)
            sides = np.array(list(labelled), dtype=np.int64).reshape(-1, 2)
            ids = pool.pair_ids(kind, sides[:, 0], sides[:, 1])
            unlabelled[ids[ids >= 0]] = False
        probabilities = self._probability_lookup(pool)
        graph = None
        estimator = None
        if self.strategy.requires_inference:
            graph = self.graph()
            estimator = InferencePowerEstimator(self.model, graph, self.config.inference)
        return SelectionState(
            pool=pool,
            candidates=np.flatnonzero(unlabelled),
            probabilities=probabilities,
            model=self.model,
            graph=graph,
            estimator=estimator,
            rng=self.rng,
        )

    # ------------------------------------------------------------- evaluation
    def evaluate(self) -> tuple[AlignmentScores, AlignmentScores, AlignmentScores]:
        """Entity, relation and class scores, as ``DAAKG.evaluate`` reads them.

        Entities are scored on the test split (every gold match when the
        split is empty), schema elements on all their gold matches.
        """
        scores = evaluate_pair(self.model.similarity, self.pair)
        return scores["entity"], scores["relation"], scores["class"]

    # ------------------------------------------------------------ persistence
    def save(self, path: str) -> None:
        """Checkpoint the campaign (pipeline + loop progress) to ``path``."""
        if self.daakg is None:
            raise RuntimeError(
                "loop is not attached to a DAAKG pipeline; create it via "
                "DAAKG.active_learning (or set loop.daakg) before saving"
            )
        from repro.persistence import save_checkpoint  # circular at module level

        save_checkpoint(path, self.daakg, loop=self)

    @classmethod
    def resume(cls, checkpoint, daakg=None, strategy=None) -> "ActiveLearningLoop":
        """Rebuild a campaign from a checkpoint written by :meth:`save`.

        ``checkpoint`` is a checkpoint directory path or an already-loaded
        :class:`repro.persistence.Checkpoint`.  The restored loop continues at
        its first uncompleted batch and reproduces the uninterrupted run's
        records bit-exactly (everything the next batch depends on — model,
        optimiser, labels, pool, RNG streams — is part of the checkpoint).
        """
        from repro.persistence import Checkpoint, load_checkpoint, restore_loop

        if not isinstance(checkpoint, Checkpoint):
            checkpoint = load_checkpoint(checkpoint)
        return restore_loop(checkpoint, daakg=daakg, strategy=strategy)

    # -------------------------------------------------------------------- run
    def run(self, max_batches: int | None = None) -> list[ActiveLearningRecord]:
        """Run the remaining batches; returns the full record list.

        ``max_batches`` caps how many *new* batches this call processes — a
        resumed campaign continues where the checkpoint left off, and tests /
        operators can deliberately stop a campaign mid-budget.  When
        ``autosave_path`` is set, the campaign is checkpointed after every
        completed batch, so a killed process restarts at its last completed
        round.
        """
        total_matches = max(len(self.pair.entity_alignment), 1)
        processed = 0
        while self._next_batch < self.config.num_batches:
            if max_batches is not None and processed >= max_batches:
                break
            batch_index = self._next_batch
            start = time.perf_counter()
            with obs.span("active.batch", batch=batch_index):
                state = self._build_state()
                with obs.timer("active.select.seconds"):
                    picks = self.strategy.select(state, self.config.batch_size)
                selected = [state.pool.pair(pick) for pick in np.asarray(picks).tolist()]
                if not selected:
                    logger.info(
                        "strategy returned no pairs; stopping at batch %d", batch_index
                    )
                    break
                answers = self.oracle.label_batch(selected)
                new_matches: dict[ElementKind, list[tuple[int, int]]] = {k: [] for k in _KINDS}
                new_non_matches: dict[ElementKind, list[tuple[int, int]]] = {k: [] for k in _KINDS}
                for pair, is_match in answers:
                    target = new_matches if is_match else new_non_matches
                    target[pair.kind].append((pair.left, pair.right))
                with obs.timer("active.fine_tune.seconds"):
                    self.trainer.fine_tune(
                        new_matches, new_non_matches, epochs=self.config.fine_tune_epochs
                    )
                with obs.timer("active.evaluate.seconds"):
                    entity_scores, relation_scores, class_scores = self.evaluate()
            matches_labelled = sum(
                len(v) for v in self.trainer.labels.matches.values()
            )
            record = ActiveLearningRecord(
                batch_index=batch_index,
                labels_used=self.oracle.questions_asked,
                matches_labelled=matches_labelled,
                match_fraction=len(self.trainer.labels.matches[ElementKind.ENTITY]) / total_matches,
                entity_scores=entity_scores,
                relation_scores=relation_scores,
                class_scores=class_scores,
                seconds=time.perf_counter() - start,
                selected=selected,
            )
            self.records.append(record)
            self._next_batch = batch_index + 1
            processed += 1
            if self.autosave_path:
                self.save(self.autosave_path)
            logger.info(
                "batch %d: labels=%d entity H@1=%.3f F1=%.3f",
                batch_index,
                record.labels_used,
                entity_scores.hits_at_1,
                entity_scores.f1,
            )
        return self.records
