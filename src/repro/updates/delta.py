"""The :class:`KGDelta` value type: one immutable batch of KG changes.

Production KGs do not arrive once — they grow (new entities and triples),
shed stale facts (removed triples) and their alignments drift (gold links
appear and get retracted).  ``KGDelta`` captures one such batch as a frozen
value that every layer of the pipeline can reason about:

* :meth:`AlignedKGPair.apply_delta` (implemented here as
  :func:`apply_delta_to_pair`) turns ``pair + delta`` into a **new** pair —
  the old pair is never mutated, so snapshots, checkpoints and running
  pipelines that still reference it stay valid.
* :func:`repro.updates.routing.route_delta` restricts a delta to the
  campaign pieces it actually touches.
* :meth:`PartitionedCampaign.apply_update` warm-start retrains exactly
  those pieces; :meth:`AlignmentService.apply_delta` absorbs pure-growth
  deltas straight into a serving snapshot.

Vocabulary discipline: a delta only ever **appends** vocabulary — new
entities go to the end of the entity list in delta order, relations named by
added triples but missing from the vocabulary are appended in first-appearance
order.  Existing integer ids therefore remain valid across an update, which
is what makes warm-start checkpoints and global↔piece id maps survivable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair, GoldAlignment


class DeltaError(ValueError):
    """Raised for malformed deltas or deltas inconsistent with their pair."""


def _as_triples(value: Iterable[Sequence[str]], label: str) -> tuple[tuple[str, str, str], ...]:
    out = []
    for item in value:
        triple = tuple(str(part) for part in item)
        if len(triple) != 3:
            raise DeltaError(f"{label} entries must be (head, relation, tail), got {item!r}")
        out.append(triple)
    return tuple(out)


def _as_links(value: Iterable[Sequence[str]], label: str) -> tuple[tuple[str, str], ...]:
    out = []
    for item in value:
        link = tuple(str(part) for part in item)
        if len(link) != 2:
            raise DeltaError(f"{label} entries must be (kg1 name, kg2 name), got {item!r}")
        out.append(link)
    return tuple(out)


def _no_duplicates(values: Sequence, label: str) -> None:
    if len(values) != len(set(values)):
        raise DeltaError(f"duplicate entries in {label}")


@dataclass(frozen=True)
class KGDelta:
    """One immutable batch of changes to an :class:`AlignedKGPair`.

    Fields come in per-side pairs (``_1`` for KG1, ``_2`` for KG2); gold
    links always name ``(kg1 entity, kg2 entity)``.  Construction validates
    internal consistency only — consistency against a concrete pair is
    checked by :func:`apply_delta_to_pair`.
    """

    added_entities_1: tuple[str, ...] = ()
    added_entities_2: tuple[str, ...] = ()
    added_triples_1: tuple[tuple[str, str, str], ...] = ()
    added_triples_2: tuple[tuple[str, str, str], ...] = ()
    removed_triples_1: tuple[tuple[str, str, str], ...] = ()
    removed_triples_2: tuple[tuple[str, str, str], ...] = ()
    added_gold_links: tuple[tuple[str, str], ...] = ()
    retracted_gold_links: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        coerce = {
            "added_entities_1": tuple(str(e) for e in self.added_entities_1),
            "added_entities_2": tuple(str(e) for e in self.added_entities_2),
            "added_triples_1": _as_triples(self.added_triples_1, "added_triples_1"),
            "added_triples_2": _as_triples(self.added_triples_2, "added_triples_2"),
            "removed_triples_1": _as_triples(self.removed_triples_1, "removed_triples_1"),
            "removed_triples_2": _as_triples(self.removed_triples_2, "removed_triples_2"),
            "added_gold_links": _as_links(self.added_gold_links, "added_gold_links"),
            "retracted_gold_links": _as_links(self.retracted_gold_links, "retracted_gold_links"),
        }
        for name, value in coerce.items():
            object.__setattr__(self, name, value)
        for name in coerce:
            _no_duplicates(getattr(self, name), name)
        for side in (1, 2):
            added = set(getattr(self, f"added_triples_{side}"))
            removed = set(getattr(self, f"removed_triples_{side}"))
            both = added & removed
            if both:
                raise DeltaError(f"triples both added and removed on side {side}: {sorted(both)}")
        if set(self.added_gold_links) & set(self.retracted_gold_links):
            raise DeltaError("gold links both added and retracted in the same delta")
        left = [a for a, _ in self.added_gold_links]
        right = [b for _, b in self.added_gold_links]
        _no_duplicates(left, "added_gold_links left endpoints")
        _no_duplicates(right, "added_gold_links right endpoints")

    # ------------------------------------------------------------------ views
    @property
    def is_empty(self) -> bool:
        return not any(getattr(self, f.name) for f in dataclasses.fields(self))

    def entities(self, side: int) -> tuple[str, ...]:
        return self.added_entities_1 if side == 1 else self.added_entities_2

    def triples(self, side: int) -> tuple[tuple[str, str, str], ...]:
        return self.added_triples_1 if side == 1 else self.added_triples_2

    def summary(self) -> dict[str, int]:
        return {f.name: len(getattr(self, f.name)) for f in dataclasses.fields(self)}

    # ------------------------------------------------------------- constructors
    @classmethod
    def empty(cls) -> "KGDelta":
        return cls()

    @classmethod
    def single_entity(
        cls, name: str, triples: Iterable[Sequence[str]], side: int = 2
    ) -> "KGDelta":
        """A delta that adds one new entity with the triples that place it."""
        if side not in (1, 2):
            raise DeltaError(f"side must be 1 or 2, got {side}")
        triples = _as_triples(triples, "triples")
        if side == 1:
            return cls(added_entities_1=(str(name),), added_triples_1=triples)
        return cls(added_entities_2=(str(name),), added_triples_2=triples)


# ----------------------------------------------------------------- application
def _apply_kg_delta(
    kg: KnowledgeGraph,
    added_entities: tuple[str, ...],
    added_triples: tuple[tuple[str, str, str], ...],
    removed_triples: tuple[tuple[str, str, str], ...],
    side: int,
) -> KnowledgeGraph:
    for entity in added_entities:
        if entity in kg.entity_index:
            raise DeltaError(f"added entity {entity!r} already exists in KG{side}")
    entities = list(kg.entities) + list(added_entities)
    entity_id = {name: i for i, name in enumerate(entities)}
    relations = list(kg.relations)
    relation_id = dict(kg.relation_index)
    for _, relation, _ in added_triples:
        if relation not in relation_id:
            relation_id[relation] = len(relations)
            relations.append(relation)
    width, size = len(relations), len(entities)

    def rows(triples: tuple[tuple[str, str, str], ...]) -> np.ndarray:
        """Index rows of named triples; -1 marks a name outside the vocabulary."""
        ids = [
            (entity_id.get(head, -1), relation_id.get(relation, -1), entity_id.get(tail, -1))
            for head, relation, tail in triples
        ]
        return np.array(ids, dtype=np.int64).reshape(-1, 3)

    def keys(index_rows: np.ndarray) -> np.ndarray:
        # exact in int64 while entities² × relations < 2⁶³
        heads, relation_ids, tails = index_rows.T
        return (heads * width + relation_ids) * size + tails

    existing = keys(kg.triple_array)

    def present(index_rows: np.ndarray) -> list[bool]:
        known = (index_rows >= 0).all(axis=1)
        return (np.isin(keys(index_rows), existing) & known).tolist()

    removed = rows(removed_triples)
    for triple, found in zip(removed_triples, present(removed)):
        if not found:
            raise DeltaError(f"removed triple {triple!r} does not exist in KG{side}")
    added = rows(added_triples)
    for (head, relation, tail), found in zip(added_triples, present(added)):
        if head not in entity_id or tail not in entity_id:
            missing = head if head not in entity_id else tail
            raise DeltaError(
                f"added triple ({head!r}, {relation!r}, {tail!r}) references "
                f"unknown KG{side} entity {missing!r}"
            )
        if found:
            raise DeltaError(f"added triple ({head!r}, {relation!r}, {tail!r}) already present")
    kept = kg.triple_array[~np.isin(existing, keys(removed))]
    return KnowledgeGraph.from_arrays(
        kg.name,
        entities,
        relations,
        list(kg.classes),
        np.concatenate([kept, added]),
        kg.type_array,
    )


def apply_delta_to_pair(pair: AlignedKGPair, delta: KGDelta) -> AlignedKGPair:
    """Pure delta application: returns a new pair, the input pair untouched.

    Vocabulary is append-only (existing ids stay valid); retracted gold
    links disappear from the alignment *and every split*; added gold links
    join the **train** split, because a freshly asserted link is supervision
    for the next (warm-start) training round, not held-out evaluation data.
    """
    if not isinstance(delta, KGDelta):
        raise DeltaError(f"expected a KGDelta, got {type(delta).__name__}")
    kg1 = _apply_kg_delta(
        pair.kg1, delta.added_entities_1, delta.added_triples_1, delta.removed_triples_1, side=1
    )
    kg2 = _apply_kg_delta(
        pair.kg2, delta.added_entities_2, delta.added_triples_2, delta.removed_triples_2, side=2
    )

    retracted = set(delta.retracted_gold_links)
    for link in delta.retracted_gold_links:
        if link not in pair.entity_alignment:
            raise DeltaError(f"retracted gold link {link!r} is not in the alignment")
    pairs = [p for p in pair.entity_alignment.pairs if p not in retracted]
    left_taken = {a for a, _ in pairs}
    right_taken = {b for _, b in pairs}
    for a, b in delta.added_gold_links:
        if a not in kg1.entity_index:
            raise DeltaError(f"added gold link names unknown KG1 entity {a!r}")
        if b not in kg2.entity_index:
            raise DeltaError(f"added gold link names unknown KG2 entity {b!r}")
        if a in left_taken:
            raise DeltaError(f"KG1 entity {a!r} already has a gold counterpart")
        if b in right_taken:
            raise DeltaError(f"KG2 entity {b!r} already has a gold counterpart")
        left_taken.add(a)
        right_taken.add(b)
    pairs.extend(delta.added_gold_links)

    def _strip(split: list[tuple[str, str]]) -> list[tuple[str, str]]:
        return [p for p in split if p not in retracted]

    return AlignedKGPair(
        name=pair.name,
        kg1=kg1,
        kg2=kg2,
        entity_alignment=GoldAlignment(ElementKind.ENTITY, pairs),
        relation_alignment=pair.relation_alignment,
        class_alignment=pair.class_alignment,
        train_entity_pairs=_strip(pair.train_entity_pairs) + list(delta.added_gold_links),
        valid_entity_pairs=_strip(pair.valid_entity_pairs),
        test_entity_pairs=_strip(pair.test_entity_pairs),
    )
