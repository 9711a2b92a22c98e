"""KG embedding models.

The paper plugs three base entity-relation embedding models into DAAKG —
TransE, RotatE and CompGCN — plus a dedicated entity-class scoring function
(Eq. 2) that models every class as a subspace of the entity embedding space.
All models are implemented on the :mod:`repro.autograd` substrate and share
the :class:`~repro.embedding.base.KGEmbeddingModel` interface so the alignment
and inference-power code is model-agnostic.
"""

from repro.embedding.base import KGEmbeddingModel
from repro.embedding.transe import TransE
from repro.embedding.rotate import RotatE
from repro.embedding.compgcn import CompGCN
from repro.embedding.entity_class import EntityClassScorer
from repro.embedding.trainer import EmbeddingTrainingConfig, KGEmbeddingTrainer, TrainingHistory

MODEL_REGISTRY = {
    "transe": TransE,
    "rotate": RotatE,
    "compgcn": CompGCN,
}


def create_embedding_model(name, kg, dim=32, rng=None, **kwargs):
    """Instantiate a registered embedding model by name (case-insensitive)."""
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown embedding model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key](kg, dim=dim, rng=rng, **kwargs)


__all__ = [
    "CompGCN",
    "EmbeddingTrainingConfig",
    "EntityClassScorer",
    "KGEmbeddingModel",
    "KGEmbeddingTrainer",
    "MODEL_REGISTRY",
    "RotatE",
    "TrainingHistory",
    "TransE",
    "create_embedding_model",
]
