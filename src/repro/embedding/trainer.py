"""Training loop for one KG's embedding model (Eqs. 1 and 3).

The trainer optimises the entity-relation margin loss ``O_er`` and, when the
KG has classes, the entity-class margin loss ``O_ec``, using tail/entity
corruption from :class:`~repro.kg.sampling.NegativeSampler`.  The joint
alignment model (Sect. 4.2) later continues training these parameters through
its own losses, so this is the "embedding learning" half of the workflow in
Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd import functional as F
from repro.embedding.base import KGEmbeddingModel
from repro.embedding.entity_class import EntityClassScorer
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NegativeSampler
from repro.nn.optim import Adam
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, ensure_rng

logger = get_logger(__name__)

#: Margins of the entity-relation loss ``O_er`` (Eq. 1) and the entity-class
#: loss ``O_ec`` (Eq. 3).
MARGIN_ER = 1.0
MARGIN_EC = 0.5


@dataclass(frozen=True)
class EmbeddingTrainingConfig:
    """Hyper-parameters of per-KG embedding training.

    Entity embeddings are renormalised after every epoch's ``O_er`` pass.
    """

    epochs: int = 30
    batch_size: int = 512
    learning_rate: float = 0.05
    num_negatives: int = 2

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch loss traces."""

    er_loss: list[float] = field(default_factory=list)
    ec_loss: list[float] = field(default_factory=list)


class KGEmbeddingTrainer:
    """Trains an embedding model (and optional class scorer) on one KG."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        model: KGEmbeddingModel,
        class_scorer: EntityClassScorer | None = None,
        config: EmbeddingTrainingConfig | None = None,
        seed: RandomState = None,
    ) -> None:
        self.kg = kg
        self.model = model
        self.class_scorer = class_scorer
        self.config = config or EmbeddingTrainingConfig()
        self.rng = ensure_rng(seed)
        self.sampler = NegativeSampler(kg, seed=self.rng)
        params = list(model.parameters())
        if class_scorer is not None:
            params += class_scorer.parameters()
        self.optimizer = Adam(params, lr=self.config.learning_rate)

    # ------------------------------------------------------------------ steps
    # Both batch losses score positives and negatives against the model's
    # cached forward session: the two (or three) reads per batch share one
    # full forward, which for GNN models halves the per-batch message passing.
    def _er_batch_loss(self, batch: np.ndarray):
        negatives = self.sampler.corrupt_tails(batch, self.config.num_negatives)
        positives = np.repeat(batch, self.config.num_negatives, axis=0)
        return self.model.margin_loss(positives, negatives, MARGIN_ER)

    def _ec_batch_loss(self, batch: np.ndarray):
        assert self.class_scorer is not None
        negatives = self.sampler.corrupt_class_entities(batch, self.config.num_negatives)
        positives = np.repeat(batch, self.config.num_negatives, axis=0)
        pos_emb = self.model.entity_output(positives[:, 0])
        neg_emb = self.model.entity_output(negatives[:, 0])
        pos_scores = self.class_scorer.scores(pos_emb, positives[:, 1])
        neg_scores = self.class_scorer.scores(neg_emb, negatives[:, 1])
        return F.margin_ranking_loss(pos_scores, neg_scores, MARGIN_EC)

    # ------------------------------------------------------------------- train
    def train(self) -> TrainingHistory:
        """Run the configured number of epochs; returns the loss history."""
        history = TrainingHistory()
        triples = self.kg.triple_array
        types = self.kg.type_array
        has_types = self.class_scorer is not None and types.size > 0
        for epoch in range(self.config.epochs):
            er_losses: list[float] = []
            ec_losses: list[float] = []
            if triples.size:
                order = self.rng.permutation(triples.shape[0])
                for start in range(0, len(order), self.config.batch_size):
                    batch = triples[order[start : start + self.config.batch_size]]
                    self.optimizer.zero_grad()
                    loss = self._er_batch_loss(batch)
                    loss.backward()
                    self.optimizer.step()
                    er_losses.append(loss.item())
                self.model.renormalize()
            if has_types:
                order = self.rng.permutation(types.shape[0])
                for start in range(0, len(order), self.config.batch_size):
                    batch = types[order[start : start + self.config.batch_size]]
                    self.optimizer.zero_grad()
                    loss = self._ec_batch_loss(batch)
                    loss.backward()
                    self.optimizer.step()
                    ec_losses.append(loss.item())
            history.er_loss.append(float(np.mean(er_losses)) if er_losses else 0.0)
            history.ec_loss.append(float(np.mean(ec_losses)) if ec_losses else 0.0)
            logger.debug(
                "epoch %d: er=%.4f ec=%.4f", epoch, history.er_loss[-1], history.ec_loss[-1]
            )
        return history
