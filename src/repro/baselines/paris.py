"""PARIS (Suchanek et al., 2011): probabilistic alignment of relations, instances and schema.

A training-free iterative method.  Entity match probabilities are propagated
through shared (probabilistically matched) relations weighted by relation
functionality; relation match probabilities are re-estimated from the entity
match probabilities; class match probabilities come from the overlap of the
classes' (probabilistically matched) instance sets.  This implementation keeps
PARIS's core fixed-point structure at the scale of the synthetic benchmarks:
a few global iterations over dense probability matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import AlignmentBaseline
from repro.kg.pair import AlignedKGPair
from repro.kg.statistics import relation_functionality


#: Every relation pair starts at this match probability.
INITIAL_RELATION_PROBABILITY = 0.1
#: Training seed matches enter as entity matches of this probability.
SEED_PROBABILITY = 1.0


@dataclass(frozen=True)
class ParisConfig:
    """Iteration parameters of PARIS."""

    iterations: int = 4

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


class PARIS(AlignmentBaseline):
    """Probabilistic aligner of instances, relations and classes."""

    name = "paris"

    def __init__(self, config: ParisConfig | None = None) -> None:
        super().__init__()
        self.config = config or ParisConfig()
        self._entity_probability: np.ndarray | None = None
        self._relation_probability: np.ndarray | None = None
        self._class_probability: np.ndarray | None = None

    def fit(self, pair: AlignedKGPair) -> "PARIS":
        self.pair = pair
        kg1, kg2 = pair.kg1, pair.kg2
        config = self.config
        with self.training_time:
            functionality_1 = relation_functionality(kg1)

            entity_probability = np.zeros((kg1.num_entities, kg2.num_entities))
            if pair.train_entity_pairs:
                seeds = pair.entity_match_ids(pair.train_entity_pairs)
                entity_probability[seeds[:, 0], seeds[:, 1]] = SEED_PROBABILITY
            relation_probability = np.full(
                (kg1.num_relations, kg2.num_relations), INITIAL_RELATION_PROBABILITY
            )

            triples_1 = kg1.triple_array
            triples_2 = kg2.triple_array
            for _ in range(config.iterations):
                # --- entity update: evidence from matching (r, tail) / (r', tail') pairs
                new_entity = entity_probability.copy()
                evidence = np.zeros_like(entity_probability)
                for h1, r1, t1 in triples_1:
                    row = relation_probability[r1]
                    best_r2 = int(np.argmax(row))
                    rel_prob = float(row[best_r2])
                    if rel_prob < 1e-3:
                        continue
                    # heads become more likely matched if tails are matched (and vice versa)
                    tail_row = entity_probability[t1]
                    if tail_row.max() <= 0:
                        continue
                    weight = rel_prob * float(functionality_1.get(kg1.relations[r1], 0.0))
                    evidence[h1] = np.maximum(evidence[h1], weight * _tail_support(triples_2, best_r2, tail_row))
                new_entity = np.maximum(new_entity, evidence)

                # --- relation update: P(r ≡ r') from co-occurring matched endpoints
                relation_probability = _relation_update(
                    triples_1, triples_2, new_entity, kg1.num_relations, kg2.num_relations
                )
                entity_probability = new_entity

            self._entity_probability = entity_probability
            self._relation_probability = relation_probability
            self._class_probability = _class_update(pair, entity_probability)
        return self

    def entity_similarity_matrix(self) -> np.ndarray:
        return self._entity_probability

    def relation_similarity_matrix(self) -> np.ndarray:
        return self._relation_probability

    def class_similarity_matrix(self) -> np.ndarray:
        return self._class_probability


def _tail_support(triples_2: np.ndarray, relation_2: int, tail_row: np.ndarray) -> np.ndarray:
    """For each KG2 head, the best tail-match probability through ``relation_2``."""
    num_heads = int(triples_2[:, 0].max()) + 1 if triples_2.size else 0
    support = np.zeros(max(num_heads, 1))
    mask = triples_2[:, 1] == relation_2
    for h2, _, t2 in triples_2[mask]:
        support[h2] = max(support[h2], tail_row[t2])
    # pad to the full entity count of KG2 (tail_row length)
    if support.shape[0] < tail_row.shape[0]:
        support = np.pad(support, (0, tail_row.shape[0] - support.shape[0]))
    return support[: tail_row.shape[0]]


def _relation_update(
    triples_1: np.ndarray,
    triples_2: np.ndarray,
    entity_probability: np.ndarray,
    num_relations_1: int,
    num_relations_2: int,
) -> np.ndarray:
    """Estimate relation match probabilities from matched endpoints."""
    scores = np.zeros((num_relations_1, num_relations_2))
    counts = np.zeros((num_relations_1, 1)) + 1e-9
    if triples_1.size == 0 or triples_2.size == 0:
        return scores
    # index KG2 triples by relation for the co-occurrence scan
    by_relation_2: dict[int, np.ndarray] = {
        r2: triples_2[triples_2[:, 1] == r2] for r2 in range(num_relations_2)
    }
    for h1, r1, t1 in triples_1:
        counts[r1, 0] += 1.0
        head_row = entity_probability[h1]
        tail_row = entity_probability[t1]
        if head_row.max() <= 0 or tail_row.max() <= 0:
            continue
        for r2, rows in by_relation_2.items():
            if rows.size == 0:
                continue
            support = np.max(head_row[rows[:, 0]] * tail_row[rows[:, 2]])
            scores[r1, r2] += support
    return scores / counts


def _class_update(pair: AlignedKGPair, entity_probability: np.ndarray) -> np.ndarray:
    """Class match probabilities: probabilistic overlap of instance sets."""
    kg1, kg2 = pair.kg1, pair.kg2
    scores = np.zeros((kg1.num_classes, kg2.num_classes))
    for c1 in range(kg1.num_classes):
        members_1 = kg1.entities_of_class(c1)
        if not members_1:
            continue
        for c2 in range(kg2.num_classes):
            members_2 = kg2.entities_of_class(c2)
            if not members_2:
                continue
            sub = entity_probability[np.ix_(members_1, members_2)]
            overlap = float(sub.max(axis=1).sum())
            scores[c1, c2] = overlap / max(len(members_1), len(members_2))
    return scores
