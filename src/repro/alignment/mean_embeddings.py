"""Dangling-entity weights and weighted mean embeddings (Eqs. 6, 7 and 9).

Schema embeddings are learned mostly from entity structure, so dangling
entities (those without a counterpart in the other KG) pollute them.  The
paper therefore weights every entity by its best alignment similarity and
builds *mean* relation/class embeddings from weighted entity evidence:

* ``w_e = max_{e'} S(e, e')`` (Eq. 6),
* ``r̄`` = weighted average over triples of the local-optimum relation
  embedding, weighted by ``min(w_head, w_tail)`` (Eq. 7),
* ``c̄`` = weighted average of the embeddings of the class's entities (Eq. 9).

All functions here operate on NumPy snapshots; the joint alignment model
refreshes them once per training round (they act as constants for the
optimiser, the gradient flows through the mapping matrices and the direct
embedding channel).
"""

from __future__ import annotations

import numpy as np

from repro.embedding.base import KGEmbeddingModel
from repro.kg.graph import KnowledgeGraph


def entity_weights(similarity_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-entity weights for both KGs from the entity similarity matrix.

    Returns ``(w1, w2)`` where ``w1[i] = max_j S[i, j]`` and
    ``w2[j] = max_i S[i, j]``.  Values are clipped to ``[0, 1]`` since cosine
    similarities can be slightly negative and a negative weight would flip the
    sign of the evidence it is supposed to damp.
    """
    if similarity_matrix.size == 0:
        return (
            np.zeros(similarity_matrix.shape[0]),
            np.zeros(similarity_matrix.shape[1]),
        )
    w1 = np.clip(similarity_matrix.max(axis=1), 0.0, 1.0)
    w2 = np.clip(similarity_matrix.max(axis=0), 0.0, 1.0)
    return w1, w2


def mean_relation_embeddings(
    kg: KnowledgeGraph,
    model: KGEmbeddingModel,
    entity_matrix: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted mean relation embeddings ``r̄`` for every relation of ``kg``.

    ``entity_matrix`` holds the entity output representations and ``weights``
    the dangling-entity weights ``w_e`` of the same KG.  Relations with no
    triples (or only zero-weight triples) fall back to the unweighted mean of
    their local optima, or to a zero vector when they have no triples at all.
    """
    dim = entity_matrix.shape[1] if entity_matrix.size else model.dim
    result = np.zeros((kg.num_relations, dim))
    triples = kg.triple_array
    if triples.size == 0:
        return result
    heads, tails = triples[:, 0], triples[:, 2]
    # one row-batched call for every triple, then a per-relation reduce over
    # the relation's triples in their original order
    all_locals = model.local_relation_embedding(entity_matrix[heads], entity_matrix[tails])
    all_weights = np.minimum(weights[heads], weights[tails])
    for r, rows in enumerate(np.split(kg.relation_order, kg.relation_ptr[1:-1])):
        if rows.size == 0:
            continue
        locals_ = all_locals[rows]
        w = all_weights[rows]
        total = w.sum()
        if total < 1e-9:
            result[r] = locals_.mean(axis=0)
        else:
            result[r] = (locals_ * w[:, None]).sum(axis=0) / total
    return result


def mean_class_embeddings(
    kg: KnowledgeGraph,
    entity_matrix: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted mean class embeddings ``c̄`` for every class of ``kg`` (Eq. 9)."""
    dim = entity_matrix.shape[1] if entity_matrix.size else 0
    result = np.zeros((kg.num_classes, dim))
    for c in range(kg.num_classes):
        members = kg.entities_of_class(c)
        if not members:
            continue
        member_idx = np.asarray(members, dtype=np.int64)
        w = weights[member_idx]
        total = w.sum()
        if total < 1e-9:
            result[c] = entity_matrix[member_idx].mean(axis=0)
        else:
            result[c] = (entity_matrix[member_idx] * w[:, None]).sum(axis=0) / total
    return result
