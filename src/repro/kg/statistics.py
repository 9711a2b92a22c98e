"""Descriptive statistics of a KG.

These are used by the dataset benchmark (Table 2), by the blocking heuristics
(relation functionality informs how discriminative a relation is), and by the
Degree/PageRank active-learning baselines.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph


@dataclass(frozen=True)
class KGStatistics:
    """Summary statistics of one KG."""

    num_entities: int
    num_relations: int
    num_classes: int
    num_triples: int
    num_type_triples: int
    mean_entity_degree: float
    max_entity_degree: int
    mean_classes_per_entity: float
    relation_counts: dict[str, int]
    class_counts: dict[str, int]

    def as_dict(self) -> dict[str, float]:
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "classes": self.num_classes,
            "triples": self.num_triples,
            "type_triples": self.num_type_triples,
            "mean_degree": self.mean_entity_degree,
            "max_degree": self.max_entity_degree,
            "mean_classes_per_entity": self.mean_classes_per_entity,
        }


def compute_statistics(kg: KnowledgeGraph) -> KGStatistics:
    """Compute :class:`KGStatistics` for ``kg``."""
    degrees = np.diff(kg.out_ptr) + np.diff(kg.in_ptr)
    classes_per_entity = np.diff(kg.type_ptr)
    relation_counts = Counter(t.relation for t in kg.triples)
    class_counts = Counter(tt.cls for tt in kg.type_triples)
    return KGStatistics(
        num_entities=kg.num_entities,
        num_relations=kg.num_relations,
        num_classes=kg.num_classes,
        num_triples=kg.num_triples,
        num_type_triples=kg.num_type_triples,
        mean_entity_degree=float(np.mean(degrees)) if degrees.size else 0.0,
        max_entity_degree=int(degrees.max()) if degrees.size else 0,
        mean_classes_per_entity=(
            float(np.mean(classes_per_entity)) if classes_per_entity.size else 0.0
        ),
        relation_counts=dict(relation_counts),
        class_counts=dict(class_counts),
    )


def relation_functionality(kg: KnowledgeGraph) -> dict[str, float]:
    """Functionality of each relation: ``#distinct heads / #triples``.

    A relation with functionality close to 1 behaves like a function of its
    head entity (e.g. ``birthPlace``), which is exactly the kind of relation
    the paper's Example 1.1 exploits to infer entity matches.  PARIS also uses
    functionality as its core weight.
    """
    heads: dict[str, set[str]] = defaultdict(set)
    counts: Counter[str] = Counter()
    for t in kg.triples:
        heads[t.relation].add(t.head)
        counts[t.relation] += 1
    return {
        rel: (len(heads[rel]) / counts[rel]) if counts[rel] else 0.0
        for rel in kg.relations
    }


def inverse_relation_functionality(kg: KnowledgeGraph) -> dict[str, float]:
    """Inverse functionality: ``#distinct tails / #triples`` per relation."""
    tails: dict[str, set[str]] = defaultdict(set)
    counts: Counter[str] = Counter()
    for t in kg.triples:
        tails[t.relation].add(t.tail)
        counts[t.relation] += 1
    return {
        rel: (len(tails[rel]) / counts[rel]) if counts[rel] else 0.0
        for rel in kg.relations
    }


def entity_pagerank(kg: KnowledgeGraph, damping: float = 0.85, iterations: int = 50) -> np.ndarray:
    """PageRank scores over the entity graph (used by the PageRank baseline).

    Implemented directly with power iteration over the KG's out-edge index
    so the active-learning baselines do not need networkx at runtime.  Every
    score receives its additions in the order of a loop over the entities
    and their out-edges in triple order: ``np.add.at`` adds a run of
    entities' edge shares in that order, and each dangling entity spreads
    its score uniformly between the runs it splits.
    """
    n = kg.num_entities
    if n == 0:
        return np.empty(0)
    degree = np.diff(kg.out_ptr)
    out_degree = np.maximum(degree, 1).astype(float)
    tails = kg.triple_array[kg.out_order, 2]
    ptr = kg.out_ptr.tolist()
    dangling = np.flatnonzero(degree == 0).tolist()
    scores = np.full(n, 1.0 / n)
    for _ in range(iterations):
        new_scores = np.full(n, (1.0 - damping) / n)
        share = np.repeat(damping * scores / out_degree, degree)
        start = 0
        for e in dangling:
            np.add.at(new_scores, tails[ptr[start] : ptr[e]], share[ptr[start] : ptr[e]])
            new_scores += damping * scores[e] / n
            start = e + 1
        np.add.at(new_scores, tails[ptr[start] :], share[ptr[start] :])
        scores = new_scores
    return scores
