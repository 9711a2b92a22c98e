"""Aligned KG pairs: two KGs plus gold entity/relation/class matches.

This is the unit of work for every experiment in the paper: the OpenEA-style
datasets (Table 2) are each an :class:`AlignedKGPair`, and train/valid/test
splits of the gold entity matches drive supervised, semi-supervised and active
learning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.kg.elements import ElementKind
from repro.kg.graph import KGError, KnowledgeGraph
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class SplitRatios:
    """Train/validation/test fractions of the gold entity matches."""

    train: float = 0.2
    valid: float = 0.1
    test: float = 0.7

    def __post_init__(self) -> None:
        total = self.train + self.valid + self.test
        if not np.isclose(total, 1.0):
            raise ValueError(f"split ratios must sum to 1, got {total}")
        if min(self.train, self.valid, self.test) < 0:
            raise ValueError("split ratios must be non-negative")


@dataclass
class GoldAlignment:
    """Gold matches for one element kind, as name pairs ``(kg1 name, kg2 name)``."""

    kind: ElementKind
    pairs: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._left = {a: b for a, b in self.pairs}
        self._right = {b: a for a, b in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return self._left.get(pair[0]) == pair[1]

    def counterpart_of_left(self, name: str) -> str | None:
        return self._left.get(name)

    def counterpart_of_right(self, name: str) -> str | None:
        return self._right.get(name)


@dataclass
class AlignedKGPair:
    """Two KGs, their gold alignments, and a train/valid/test split of entities."""

    name: str
    kg1: KnowledgeGraph
    kg2: KnowledgeGraph
    entity_alignment: GoldAlignment
    relation_alignment: GoldAlignment
    class_alignment: GoldAlignment
    train_entity_pairs: list[tuple[str, str]] = field(default_factory=list)
    valid_entity_pairs: list[tuple[str, str]] = field(default_factory=list)
    test_entity_pairs: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._check_alignment(self.entity_alignment, self.kg1.entity_index, self.kg2.entity_index)
        self._check_alignment(
            self.relation_alignment, self.kg1.relation_index, self.kg2.relation_index
        )
        self._check_alignment(self.class_alignment, self.kg1.class_index, self.kg2.class_index)

    @staticmethod
    def _check_alignment(alignment: GoldAlignment, left: dict, right: dict) -> None:
        for a, b in alignment.pairs:
            if a not in left:
                raise KGError(f"gold {alignment.kind} match references unknown left element {a!r}")
            if b not in right:
                raise KGError(f"gold {alignment.kind} match references unknown right element {b!r}")

    # ------------------------------------------------------------------ views
    def gold(self, kind: ElementKind) -> GoldAlignment:
        if kind is ElementKind.ENTITY:
            return self.entity_alignment
        if kind is ElementKind.RELATION:
            return self.relation_alignment
        return self.class_alignment

    def entity_match_ids(self, pairs: Sequence[tuple[str, str]] | None = None) -> np.ndarray:
        """Gold entity matches as an ``(n, 2)`` array of (kg1 idx, kg2 idx)."""
        use = self.entity_alignment.pairs if pairs is None else pairs
        if not use:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(
            [(self.kg1.entity_id(a), self.kg2.entity_id(b)) for a, b in use],
            dtype=np.int64,
        )

    def relation_match_ids(self) -> np.ndarray:
        if not self.relation_alignment.pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(
            [
                (self.kg1.relation_id(a), self.kg2.relation_id(b))
                for a, b in self.relation_alignment.pairs
            ],
            dtype=np.int64,
        )

    def class_match_ids(self) -> np.ndarray:
        if not self.class_alignment.pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(
            [
                (self.kg1.class_id(a), self.kg2.class_id(b))
                for a, b in self.class_alignment.pairs
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------ split
    def split_entity_matches(
        self, ratios: SplitRatios = SplitRatios(), seed: RandomState = 0
    ) -> None:
        """Shuffle gold entity matches into train/valid/test partitions in place."""
        rng = ensure_rng(seed)
        pairs = list(self.entity_alignment.pairs)
        order = rng.permutation(len(pairs))
        n_train = int(round(ratios.train * len(pairs)))
        n_valid = int(round(ratios.valid * len(pairs)))
        shuffled = [pairs[i] for i in order]
        self.train_entity_pairs = shuffled[:n_train]
        self.valid_entity_pairs = shuffled[n_train : n_train + n_valid]
        self.test_entity_pairs = shuffled[n_train + n_valid :]

    # ----------------------------------------------------------------- updates
    def apply_delta(self, delta) -> "AlignedKGPair":
        """Pure update: return a new pair with ``delta`` applied; ``self`` is untouched.

        ``delta`` is a :class:`repro.updates.KGDelta`.  Vocabulary is
        append-only, so every existing integer id stays valid in the new
        pair — see :mod:`repro.updates.delta` for the full semantics.
        """
        from repro.updates.delta import apply_delta_to_pair  # circular at module level

        return apply_delta_to_pair(self, delta)

    def dangling_entities_kg1(self) -> set[str]:
        """KG1 entities without a gold counterpart in KG2."""
        matched = {a for a, _ in self.entity_alignment.pairs}
        return set(self.kg1.entities) - matched

    def dangling_entities_kg2(self) -> set[str]:
        """KG2 entities without a gold counterpart in KG1."""
        matched = {b for _, b in self.entity_alignment.pairs}
        return set(self.kg2.entities) - matched

    def summary(self) -> dict[str, int]:
        """Dataset statistics in the shape of the paper's Table 2."""
        return {
            "entities_kg1": self.kg1.num_entities,
            "entities_kg2": self.kg2.num_entities,
            "relations_kg1": self.kg1.num_relations,
            "relations_kg2": self.kg2.num_relations,
            "classes_kg1": self.kg1.num_classes,
            "classes_kg2": self.kg2.num_classes,
            "triples_kg1": self.kg1.num_triples,
            "triples_kg2": self.kg2.num_triples,
            "entity_matches": len(self.entity_alignment),
            "relation_matches": len(self.relation_alignment),
            "class_matches": len(self.class_alignment),
        }
