"""TransE (Bordes et al., 2013): translation-based KG embedding.

``f_er(h, r, t) = ||h + r − t||₂``; observed triples should have near-zero
scores.  Given a head and a relation the optimum tail is ``h + r`` with no
residual, the fit under which the inference-power edge cost reduces to the
paper's ``||A_ent·r₁ − r₂||`` (Sect. 5.2).
"""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.embedding.base import TranslationalModel
from repro.kg.graph import KnowledgeGraph
from repro.nn.layers import Embedding
from repro.utils.rng import RandomState


class TransE(TranslationalModel):
    """Translation model: ``h + r ≈ t``."""

    def __init__(self, kg: KnowledgeGraph, dim: int = 32, rng: RandomState = None) -> None:
        super().__init__(kg, dim, rng)
        rng = self.rng
        self.entity_embeddings = Embedding(kg.num_entities, dim, rng=rng, name="entity")
        self.relation_embeddings = Embedding(max(kg.num_relations, 1), dim, rng=rng, name="relation")

    # ----------------------------------------------------------------- forward
    def _forward_outputs(self) -> tuple[Tensor, Tensor]:
        """The output space *is* the embedding space: the session tensors are
        the parameter tables themselves, so gathers parent directly on the
        parameters and the session is bit-identical to per-call lookups."""
        return self.entity_embeddings.all(), self.relation_embeddings.all()

    # -------------------------------------------------------------- bookkeeping
    def renormalize(self) -> None:
        self.entity_embeddings.renormalize()
