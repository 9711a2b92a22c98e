"""Element pair pool generation (Sect. 6.1).

Each entity gets a *schema signature* — the concatenation of its
relation-evidence vector and class-evidence vector, where dangling relations
and classes are down-weighted by their best alignment similarity (Eqs. 24–25).
The pool keeps, for every entity, its top-N nearest neighbours by signature
cosine similarity (mutually, i.e. a pair survives only if each side ranks the
other), plus every relation pair and every class pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alignment.model import JointAlignmentModel
from repro.inference.pairs import ElementPair, class_pair, entity_pair, relation_pair
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.runtime.streaming import mutual_top_n


@dataclass(frozen=True)
class PoolConfig:
    """Parameters of pool generation."""

    top_n: int = 200

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass(frozen=True)
class ElementPairPool:
    """The candidate element pairs active learning may ask the oracle about.

    Immutable: the pair sequences are normalised to tuples at construction, so
    the membership sets built in ``__post_init__`` can never silently go stale
    (mutating a pair list after construction used to desynchronise
    ``__contains__`` and ``recall_of_matches`` from the lists).
    """

    entity_pairs: tuple[ElementPair, ...] = ()
    relation_pairs: tuple[ElementPair, ...] = ()
    class_pairs: tuple[ElementPair, ...] = ()

    @property
    def all_pairs(self) -> list[ElementPair]:
        return list(self.entity_pairs) + list(self.relation_pairs) + list(self.class_pairs)

    def __len__(self) -> int:
        return len(self.entity_pairs) + len(self.relation_pairs) + len(self.class_pairs)

    def __contains__(self, pair: ElementPair) -> bool:
        if pair.kind is ElementKind.ENTITY:
            return pair in self._entity_set
        if pair.kind is ElementKind.RELATION:
            return pair in self._relation_set
        return pair in self._class_set

    def __post_init__(self) -> None:
        object.__setattr__(self, "entity_pairs", tuple(self.entity_pairs))
        object.__setattr__(self, "relation_pairs", tuple(self.relation_pairs))
        object.__setattr__(self, "class_pairs", tuple(self.class_pairs))
        object.__setattr__(self, "_entity_set", frozenset(self.entity_pairs))
        object.__setattr__(self, "_relation_set", frozenset(self.relation_pairs))
        object.__setattr__(self, "_class_set", frozenset(self.class_pairs))

    def entity_pair_set(self) -> set[tuple[int, int]]:
        return {(p.left, p.right) for p in self.entity_pairs}

    def recall_of_matches(self, gold_pairs: set[tuple[int, int]]) -> float:
        """Fraction of gold entity matches preserved by the pool (Figure 6)."""
        if not gold_pairs:
            return 0.0
        kept = sum(1 for pair in gold_pairs if entity_pair(*pair) in self._entity_set)
        return kept / len(gold_pairs)


def _evidence_vector(
    kg: KnowledgeGraph,
    entity: int,
    weights: np.ndarray,
    embeddings: np.ndarray,
    incident: list[int],
) -> np.ndarray:
    """Weighted average of evidence embeddings incident to one entity."""
    dim = embeddings.shape[1] if embeddings.size else 0
    if not incident or dim == 0:
        return np.zeros(dim)
    w = weights[incident]
    total = w.sum()
    if total < 1e-9:
        return embeddings[incident].mean(axis=0)
    return (embeddings[incident] * w[:, None]).sum(axis=0) / total


def schema_signatures(
    kg: KnowledgeGraph,
    relation_weights: np.ndarray,
    class_weights: np.ndarray,
    mean_relations: np.ndarray,
    mean_classes: np.ndarray,
) -> np.ndarray:
    """Schema signatures ``sig(e)`` for every entity of one KG (Eq. 24).

    ``relation_weights`` / ``class_weights`` are the best alignment
    similarities of each relation / class (Eq. 25); ``mean_relations`` /
    ``mean_classes`` are the weighted mean embeddings (Eqs. 7 and 9).
    """
    rel_dim = mean_relations.shape[1] if mean_relations.size else 0
    cls_dim = mean_classes.shape[1] if mean_classes.size else 0
    signatures = np.zeros((kg.num_entities, rel_dim + cls_dim))
    for e in range(kg.num_entities):
        incident_relations = sorted(kg.relations_of_entity(e))
        incident_classes = kg.classes_of(e)
        rel_part = _evidence_vector(kg, e, relation_weights, mean_relations, incident_relations)
        cls_part = _evidence_vector(kg, e, class_weights, mean_classes, incident_classes)
        signatures[e] = np.concatenate([rel_part, cls_part])
    return signatures


def build_pool(model: JointAlignmentModel, config: PoolConfig | None = None) -> ElementPairPool:
    """Build the element pair pool from the current joint alignment model.

    Schema-evidence weights (Eq. 25) are per-row / per-column similarity
    maxima read through the engine, and the mutual top-N entity filter on
    the schema signatures is two streamed top-N passes plus a
    ``searchsorted`` membership check
    (:func:`~repro.runtime.streaming.mutual_top_n`), so pool construction
    never materialises an ``N × M`` array.
    """
    config = config or PoolConfig()
    kg1, kg2 = model.kg1, model.kg2
    engine = model.similarity
    snap = engine.snapshot
    rel_weights_1, rel_weights_2 = engine.row_col_max(ElementKind.RELATION)
    cls_weights_1, cls_weights_2 = engine.row_col_max(ElementKind.CLASS)

    signatures_1 = schema_signatures(
        kg1, rel_weights_1, cls_weights_1, snap.mean_relations_1, snap.mean_classes_1
    )
    signatures_2 = schema_signatures(
        kg2, rel_weights_2, cls_weights_2, snap.mean_relations_2, snap.mean_classes_2
    )
    lefts, rights = mutual_top_n(signatures_1, signatures_2, config.top_n, engine.block_size)
    entity_pairs = [entity_pair(int(a), int(b)) for a, b in zip(lefts, rights)]

    relation_pairs = [
        relation_pair(a, b) for a in range(kg1.num_relations) for b in range(kg2.num_relations)
    ]
    class_pairs = [class_pair(a, b) for a in range(kg1.num_classes) for b in range(kg2.num_classes)]
    return ElementPairPool(tuple(entity_pairs), tuple(relation_pairs), tuple(class_pairs))
