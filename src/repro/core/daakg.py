"""The DAAKG pipeline facade.

Typical use::

    from repro import DAAKG, DAAKGConfig, make_benchmark

    pair = make_benchmark("D-W")
    daakg = DAAKG(pair, DAAKGConfig(base_model="compgcn"))
    daakg.fit()                                   # seed matches = train split
    scores = daakg.evaluate()                     # H@1/MRR/F1 per element kind
    loop = daakg.active_learning("daakg")         # batch active learning
    loop.run()
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.active.loop import ActiveLearningConfig, ActiveLearningLoop
from repro.active.oracle import Oracle
from repro.active.pool import ElementPairPool, build_pool
from repro.active.strategies import SelectionStrategy, create_strategy
from repro.alignment.calibration import AlignmentCalibrator
from repro.alignment.evaluation import AlignmentScores, evaluate_pair, greedy_match
from repro.alignment.model import JointAlignmentModel
from repro.alignment.trainer import JointAlignmentTrainer
from repro.core.config import DAAKGConfig
from repro.embedding import CompGCN, EntityClassScorer, create_embedding_model
from repro.embedding.trainer import KGEmbeddingTrainer
from repro.inference.alignment_graph import AlignmentGraph, graph_from_pool
from repro.inference.power import InferencePowerEstimator
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng, spawn
from repro.utils.timer import Timer

logger = get_logger(__name__)


def _classes_as_entities(kg: KnowledgeGraph) -> tuple[KnowledgeGraph, np.ndarray]:
    """Turn classes into pseudo-entities linked by a ``type`` relation.

    Used by the "w/o class embeddings" ablation: the resulting KG has one extra
    entity per class and one extra relation; the returned array maps each class
    index to its pseudo-entity index in the new KG.
    """
    n, types = kg.num_entities, kg.type_array
    type_edges = np.stack(
        [types[:, 0], np.full(len(types), kg.num_relations, dtype=np.int64), types[:, 1] + n],
        axis=1,
    )
    new_kg = KnowledgeGraph.from_arrays(
        kg.name,
        list(kg.entities) + [f"__class__:{c}" for c in kg.classes],
        list(kg.relations) + ["__type__"],
        list(kg.classes),
        np.concatenate([kg.triple_array, type_edges]),
        types,
    )
    class_entity_map = np.arange(n, n + kg.num_classes, dtype=np.int64)
    return new_kg, class_entity_map


def augment_working_kgs(
    pair: AlignedKGPair, config: DAAKGConfig
) -> tuple[KnowledgeGraph, KnowledgeGraph, tuple[np.ndarray, np.ndarray] | None]:
    """The working-space KGs a pipeline trains over, plus class-entity maps.

    Single source of truth for the dataset→working-space augmentation
    (inverse relations always; classes as pseudo-entities under the
    "w/o class embeddings" ablation).  The partition-parallel campaign's
    merge layer derives its global index spaces from this same function, so
    the two can never drift apart.  Augmentation only appends vocabulary —
    original element indices are preserved.
    """
    kg1 = pair.kg1.with_inverse_relations()
    kg2 = pair.kg2.with_inverse_relations()
    class_entity_maps = None
    if not config.use_class_embeddings:
        kg1, map1 = _classes_as_entities(kg1)
        kg2, map2 = _classes_as_entities(kg2)
        class_entity_maps = (map1, map2)
    return kg1, kg2, class_entity_maps


class DAAKG:
    """Deep active alignment of KG entities and schemata."""

    def __init__(self, pair: AlignedKGPair, config: DAAKGConfig | None = None) -> None:
        self.dataset = pair
        self.config = config or DAAKGConfig()
        self.rng = ensure_rng(self.config.seed)
        self._build_models()
        self.calibrator = AlignmentCalibrator(self.config.calibration)
        self.training_time = Timer()
        self._fitted = False

    # ------------------------------------------------------------------ build
    def _build_models(self) -> None:
        config = self.config
        kg1, kg2, class_entity_maps = augment_working_kgs(self.dataset, config)
        self.kg1 = kg1
        self.kg2 = kg2
        # the working pair shares gold alignments but uses the augmented KGs
        self.pair = AlignedKGPair(
            name=self.dataset.name,
            kg1=kg1,
            kg2=kg2,
            entity_alignment=self.dataset.entity_alignment,
            relation_alignment=self.dataset.relation_alignment,
            class_alignment=self.dataset.class_alignment,
            train_entity_pairs=list(self.dataset.train_entity_pairs),
            valid_entity_pairs=list(self.dataset.valid_entity_pairs),
            test_entity_pairs=list(self.dataset.test_entity_pairs),
        )
        rng1, rng2, rng3, rng4 = spawn(self.rng, 4)
        model_name = config.base_model.lower()
        self.embedding_model_1 = create_embedding_model(
            model_name, kg1, dim=config.entity_dim, rng=rng1
        )
        # the two CompGCN encoders always share their GNN weights
        if model_name == "compgcn":
            self.embedding_model_2 = CompGCN(
                kg2,
                dim=config.entity_dim,
                num_layers=self.embedding_model_1.num_layers,
                rng=rng2,
                share_weights_with=self.embedding_model_1,
            )
        else:
            self.embedding_model_2 = create_embedding_model(
                model_name, kg2, dim=config.entity_dim, rng=rng2
            )
        if config.use_class_embeddings:
            self.class_scorer_1 = EntityClassScorer(
                kg1, config.entity_dim, config.class_dim, rng=rng3
            )
            self.class_scorer_2 = EntityClassScorer(
                kg2, config.entity_dim, config.class_dim, rng=rng4
            )
        else:
            self.class_scorer_1 = None
            self.class_scorer_2 = None
        self.model = JointAlignmentModel(
            self.pair,
            self.embedding_model_1,
            self.embedding_model_2,
            self.class_scorer_1,
            self.class_scorer_2,
            class_entity_maps=class_entity_maps,
            use_mean_embeddings=config.use_mean_embeddings,
            use_structural_channel=config.use_structural_channel,
            rng=self.rng,
        )
        self.trainer = JointAlignmentTrainer(
            self.model, config.alignment, seed=self.rng,
            semi_supervised=config.use_semi_supervision,
        )

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        entity_matches: list[tuple[str, str]] | None = None,
        relation_matches: list[tuple[str, str]] | None = None,
        class_matches: list[tuple[str, str]] | None = None,
    ) -> "DAAKG":
        """Pre-train the embeddings and train the joint alignment model.

        ``entity_matches`` defaults to the dataset's training split; relation
        and class matches default to none (they are normally discovered by
        semi-supervision or active learning).  Matches are given as name pairs.
        """
        config = self.config
        with self.training_time, obs.span("pipeline.fit", base_model=config.base_model):
            if config.pretrain.epochs > 0:
                with obs.span("pipeline.pretrain"):
                    KGEmbeddingTrainer(
                        self.kg1, self.embedding_model_1, self.class_scorer_1, config.pretrain,
                        seed=self.rng,
                    ).train()
                    KGEmbeddingTrainer(
                        self.kg2, self.embedding_model_2, self.class_scorer_2, config.pretrain,
                        seed=self.rng,
                    ).train()
            seeds = entity_matches if entity_matches is not None else self.pair.train_entity_pairs
            if seeds:
                self.trainer.add_matches(ElementKind.ENTITY, self.pair.entity_match_ids(seeds))
            if relation_matches:
                ids = [
                    (self.kg1.relation_id(a), self.kg2.relation_id(b)) for a, b in relation_matches
                ]
                self.trainer.add_matches(ElementKind.RELATION, ids)
            if class_matches:
                ids = [(self.kg1.class_id(a), self.kg2.class_id(b)) for a, b in class_matches]
                self.trainer.add_matches(ElementKind.CLASS, ids)
            with obs.span("pipeline.align"):
                self.trainer.train()
        self._fitted = True
        return self

    # ------------------------------------------------------------- evaluation
    def evaluate(self, test_only: bool = True) -> dict[str, AlignmentScores]:
        """H@k / MRR / precision / recall / F1 for entity, relation and class alignment.

        Metrics are read through the similarity engine, which gathers only
        the gold-row slab; :func:`~repro.alignment.evaluation.gold_match_ids`
        picks the gold matches.
        """
        return evaluate_pair(self.model.similarity, self.pair, test_only)

    # -------------------------------------------------------------- prediction
    def predict_matches(self, kind: ElementKind, threshold: float = 0.5) -> list[tuple[str, str]]:
        """One-to-one predicted matches above ``threshold``, as element names.

        The engine's row-major threshold scan (collected from streamed
        tiles, never the full matrix) feeds
        :func:`~repro.alignment.evaluation.greedy_match`, the matcher mining
        and evaluation use; matches come in the order greedy takes them.
        """
        engine = self.model.similarity
        rows, cols, values = engine.threshold_candidates(kind, threshold)
        taken = greedy_match(rows, cols, values, engine.shape(kind))
        if kind is ElementKind.ENTITY:
            left_names, right_names = self.kg1.entities, self.kg2.entities
        elif kind is ElementKind.RELATION:
            left_names, right_names = self.kg1.relations, self.kg2.relations
        else:
            left_names, right_names = self.kg1.classes, self.kg2.classes
        pairs = zip(rows[taken].tolist(), cols[taken].tolist())
        return [(left_names[i], right_names[j]) for i, j in pairs]

    def match_probabilities(self, kind: ElementKind) -> np.ndarray:
        """Calibrated match probabilities (Eq. 12) for all pairs of one kind."""
        return self.calibrator.probability_matrix(self.model.similarity_matrix(kind), kind)

    # --------------------------------------------------------- active learning
    def build_pool(self) -> ElementPairPool:
        """The element pair pool from the current model (Sect. 6.1)."""
        return build_pool(self.model, self.config.pool)

    def build_inference_estimator(
        self, pool: ElementPairPool | None = None
    ) -> tuple[AlignmentGraph, InferencePowerEstimator]:
        """The alignment graph and inference power estimator for a pool."""
        if pool is None:
            pool = self.build_pool()
        graph = graph_from_pool(self.kg1, self.kg2, pool)
        estimator = InferencePowerEstimator(self.model, graph, self.config.inference)
        return graph, estimator

    def active_learning(
        self,
        strategy: str | SelectionStrategy = "daakg",
        config: ActiveLearningConfig | None = None,
        oracle: Oracle | None = None,
    ) -> ActiveLearningLoop:
        """Create an active learning loop using this pipeline's trainer."""
        if isinstance(strategy, str):
            strategy = create_strategy(strategy)
        loop_config = config or ActiveLearningConfig(
            pool=self.config.pool, inference=self.config.inference, calibration=self.config.calibration
        )
        loop = ActiveLearningLoop(
            self.pair,
            self.trainer,
            oracle or Oracle(self.pair),
            strategy,
            loop_config,
            seed=self.rng,
        )
        # the loop checkpoints through the facade (it needs the original
        # dataset and config, which only the facade holds)
        loop.daakg = self
        return loop

    # ------------------------------------------------------------- persistence
    def save(self, path: str, loop: ActiveLearningLoop | None = None) -> None:
        """Checkpoint the full pipeline state to the directory ``path``.

        The checkpoint (one ``arrays.npz`` + one ``manifest.json``) captures
        the dataset, model and optimiser state, labels, mined matches,
        landmarks, the statistics snapshot and all RNG streams; pass ``loop``
        to include an active-learning campaign's progress.  ``DAAKG.load``
        restores the pipeline bit-exactly: ``evaluate()`` after a round-trip
        reproduces the in-memory scores.
        """
        from repro.persistence import save_checkpoint  # circular at module level

        save_checkpoint(path, self, loop=loop)

    @classmethod
    def load(cls, path: str) -> "DAAKG":
        """Restore a pipeline from a checkpoint written by :meth:`save`."""
        from repro.persistence import load_checkpoint, restore_pipeline

        return restore_pipeline(load_checkpoint(path))

    # ------------------------------------------------------------------ stats
    def parameter_summary(self) -> dict[str, int]:
        return self.model.parameter_summary()

    @property
    def is_fitted(self) -> bool:
        return self._fitted
