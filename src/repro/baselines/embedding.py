"""Embedding-based entity alignment baselines.

These are restricted configurations of the same machinery DAAKG uses —
which is exactly how the original methods relate to DAAKG in the paper:

* **MTransE**: TransE embeddings per KG plus a linear mapping trained on seed
  matches.  No class modelling, no mean embeddings, no semi-supervision, no
  hard negatives, no structural channel.
* **GCN-Align**: GNN embeddings (shared weights across the KGs) aligned with
  seed matches; classes treated as entities; no semi-supervision.
* **BootEA**: TransE embeddings with bootstrapped (semi-supervised) entity
  matches; no schema modelling.

Relation and class similarities of these baselines are computed from their
entity/relation embeddings alone (classes as entities), which is why they do
poorly at schema alignment — the effect Table 3 shows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.base import AlignmentBaseline
from repro.core.config import DAAKGConfig
from repro.core.daakg import DAAKG
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.kg.pair import AlignedKGPair


@dataclass(frozen=True)
class EmbeddingBaselineConfig:
    """Shared knobs of the embedding baselines."""

    entity_dim: int = 32
    pretrain_epochs: int = 8
    rounds: int = 3
    epochs_per_round: int = 20
    learning_rate: float = 0.03
    seed: int = 0


class _RestrictedDAAKG(AlignmentBaseline):
    """Base class: run the DAAKG pipeline with components switched off."""

    name = "restricted"
    base_model = "transe"
    semi_supervised = False
    hard_negatives = False
    entity_anchor = True

    def __init__(self, config: EmbeddingBaselineConfig | None = None) -> None:
        super().__init__()
        self.config = config or EmbeddingBaselineConfig()
        self._pipeline: DAAKG | None = None

    def _daakg_config(self) -> DAAKGConfig:
        cfg = self.config
        alignment = AlignmentTrainingConfig(
            rounds=cfg.rounds,
            epochs_per_round=cfg.epochs_per_round,
            learning_rate=cfg.learning_rate,
            num_negatives=10,
            embedding_batches_per_round=4,
            embedding_batch_size=512,
            align_relations_via_entity_map=False,
            hard_negative_fraction=0.5 if self.hard_negatives else 0.0,
            entity_anchor_weight=1.0 if self.entity_anchor else 0.0,
        )
        pretrain = replace(DAAKGConfig().pretrain, epochs=cfg.pretrain_epochs)
        return DAAKGConfig(
            base_model=self.base_model,
            entity_dim=cfg.entity_dim,
            pretrain=pretrain,
            alignment=alignment,
            use_class_embeddings=False,
            use_mean_embeddings=False,
            use_semi_supervision=self.semi_supervised,
            use_structural_channel=False,
            seed=cfg.seed,
        )

    def fit(self, pair: AlignedKGPair) -> "_RestrictedDAAKG":
        self.pair = pair
        with self.training_time:
            self._pipeline = DAAKG(pair, self._daakg_config())
            self._pipeline.fit()
        return self

    def entity_similarity_matrix(self) -> np.ndarray:
        return self._pipeline.model.entity_similarity_matrix()

    def relation_similarity_matrix(self) -> np.ndarray:
        return self._pipeline.model.relation_similarity_matrix()

    def class_similarity_matrix(self) -> np.ndarray:
        return self._pipeline.model.class_similarity_matrix()


class MTransE(_RestrictedDAAKG):
    """Translation embeddings + linear mapping trained on seeds only."""

    name = "mtranse"
    base_model = "transe"
    semi_supervised = False
    hard_negatives = False


class GCNAlign(_RestrictedDAAKG):
    """GNN embeddings with shared weights, structure-only, seeds only."""

    name = "gcn-align"
    base_model = "compgcn"
    semi_supervised = False
    hard_negatives = True


class BootEA(_RestrictedDAAKG):
    """Translation embeddings with bootstrapped entity matches."""

    name = "bootea"
    base_model = "transe"
    semi_supervised = True
    hard_negatives = True
