"""Per-entity reference for the schema signatures (Eq. 24), kept for tests only.

This is the signature loop as it stood before the two sparse products of
``repro.active.pool.schema_signatures`` replaced it: one weighted mean per
entity over its incident relations (sorted, each once) and over its type
triples' classes (in type-triple order), the plain mean when the weights sum
below ``1e-9`` and zeros without evidence.  The one change is the block
widths, read from ``.shape[1]`` so that a KG without classes still gets a
class block as wide as the other KG's.

The products sum each row's weighted embeddings in the same order as this
loop, but the loop's ``w.sum()`` is NumPy's pairwise sum, which for 8 or
more terms adds in another order, so rows with 8 or more incident relations
may differ in the last bit.
"""

from __future__ import annotations

import numpy as np


def evidence_vector(weights: np.ndarray, embeddings: np.ndarray, incident: list[int]) -> np.ndarray:
    """Weighted average of the evidence embeddings incident to one entity."""
    dim = embeddings.shape[1]
    if not incident or dim == 0:
        return np.zeros(dim)
    w = weights[incident]
    total = w.sum()
    if total < 1e-9:
        return embeddings[incident].mean(axis=0)
    return (embeddings[incident] * w[:, None]).sum(axis=0) / total


def schema_signatures(kg, relation_weights, class_weights, mean_relations, mean_classes):
    """Schema signatures of every entity of ``kg``, one entity at a time."""
    width = mean_relations.shape[1] + mean_classes.shape[1]
    signatures = np.zeros((kg.num_entities, width))
    for e in range(kg.num_entities):
        rel_part = evidence_vector(
            relation_weights, mean_relations, sorted(kg.relations_of_entity(e))
        )
        cls_part = evidence_vector(class_weights, mean_classes, kg.classes_of(e))
        signatures[e] = np.concatenate([rel_part, cls_part])
    return signatures
