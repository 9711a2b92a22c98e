"""Seed-anchored structural propagation channel for entity similarity.

The paper's GNN encoder makes two entities similar when their neighbourhoods
contain matched entities — the effect Example 1.1 describes.  Training a GNN
to express that signal end-to-end is expensive on the NumPy substrate, so the
joint alignment model complements the embedding channel with an explicit
*landmark propagation* channel that computes the same quantity directly:

1. every currently known entity match (labelled by the oracle or mined by
   semi-supervision) becomes a landmark with a shared indicator feature,
2. the indicators are propagated a few hops through each KG's normalised
   adjacency (personalised-PageRank style: ``P ← α·Â·P + X``),
3. two entities are similar when they see the same landmarks at similar
   proximities (cosine of their propagated feature vectors).

The channel improves monotonically as active learning adds labels, which is
exactly the behaviour the inference-power machinery assumes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import KnowledgeGraph


def normalized_adjacency(kg: KnowledgeGraph) -> sp.csr_matrix:
    """Row-normalised undirected adjacency matrix of the entity graph."""
    n = kg.num_entities
    if kg.triple_array.size == 0:
        return sp.csr_matrix((n, n))
    heads = kg.triple_array[:, 0]
    tails = kg.triple_array[:, 2]
    rows = np.concatenate([heads, tails])
    cols = np.concatenate([tails, heads])
    data = np.ones(rows.shape[0])
    adjacency = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    adjacency.data[:] = 1.0
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_degrees = sp.diags(1.0 / np.maximum(degrees, 1.0))
    return inv_degrees @ adjacency


class StructuralPropagation:
    """Computes the propagated landmark features of two KGs.

    The structural channel is the cosine of these features; the joint
    alignment model folds it into the entity channel factors.
    """

    def __init__(
        self,
        kg1: KnowledgeGraph,
        kg2: KnowledgeGraph,
        hops: int = 3,
        alpha: float = 0.6,
    ) -> None:
        if hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.kg1 = kg1
        self.kg2 = kg2
        self.hops = hops
        self.alpha = alpha
        self._adj1 = normalized_adjacency(kg1)
        self._adj2 = normalized_adjacency(kg2)

    def propagate(self, landmarks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagated landmark features for both KGs.

        ``landmarks`` is an ``(k, 2)`` array of (kg1 idx, kg2 idx) matches.
        Returns matrices of shape ``(|E1|, k)`` and ``(|E2|, k)``.
        """
        landmarks = np.asarray(landmarks, dtype=np.int64).reshape(-1, 2)
        k = landmarks.shape[0]
        x1 = np.zeros((self.kg1.num_entities, k))
        x2 = np.zeros((self.kg2.num_entities, k))
        if k == 0:
            return x1, x2
        x1[landmarks[:, 0], np.arange(k)] = 1.0
        x2[landmarks[:, 1], np.arange(k)] = 1.0
        p1, p2 = x1.copy(), x2.copy()
        for _ in range(self.hops):
            p1 = self.alpha * (self._adj1 @ p1) + x1
            p2 = self.alpha * (self._adj2 @ p2) + x2
        return p1, p2
