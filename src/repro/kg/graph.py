"""The :class:`KnowledgeGraph` data model.

A KG is the quadruple ``G = (E, R, C, T)`` from the paper: entity, relation and
class vocabularies plus two triple stores (relation triples between entities,
and type triples between entities and classes).  The class keeps dense integer
indexes for all three vocabularies, because every downstream component
(embedding models, alignment graph, pool generation) works on index arrays.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.kg.elements import INVERSE_SUFFIX, Triple, TypeTriple


class KGError(ValueError):
    """Raised for malformed KG construction or lookups of unknown elements."""


@dataclass
class KnowledgeGraph:
    """An in-memory knowledge graph with integer indexing.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"dbpedia"``).
    entities, relations, classes:
        Vocabularies.  Order defines the integer index of each element.
    triples:
        Relation triples ``(head entity, relation, tail entity)``.
    type_triples:
        Type triples ``(entity, class)``.
    """

    name: str
    entities: list[str] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    triples: list[Triple] = field(default_factory=list)
    type_triples: list[TypeTriple] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._validate_unique("entities", self.entities)
        self._validate_unique("relations", self.relations)
        self._validate_unique("classes", self.classes)
        self.entity_index: dict[str, int] = {e: i for i, e in enumerate(self.entities)}
        self.relation_index: dict[str, int] = {r: i for i, r in enumerate(self.relations)}
        self.class_index: dict[str, int] = {c: i for i, c in enumerate(self.classes)}
        self._check_triples()
        self._build_adjacency()

    # ------------------------------------------------------------------ setup
    @staticmethod
    def _validate_unique(kind: str, values: Sequence[str]) -> None:
        if len(values) != len(set(values)):
            raise KGError(f"duplicate {kind} in KG vocabulary")

    def _check_triples(self) -> None:
        for t in self.triples:
            if t.head not in self.entity_index or t.tail not in self.entity_index:
                raise KGError(f"triple references unknown entity: {t}")
            if t.relation not in self.relation_index:
                raise KGError(f"triple references unknown relation: {t}")
        for tt in self.type_triples:
            if tt.entity not in self.entity_index:
                raise KGError(f"type triple references unknown entity: {tt}")
            if tt.cls not in self.class_index:
                raise KGError(f"type triple references unknown class: {tt}")

    def _build_adjacency(self) -> None:
        # index arrays of shape (n_triples, 3): head idx, relation idx, tail idx
        if self.triples:
            self.triple_array = np.array(
                [
                    (
                        self.entity_index[t.head],
                        self.relation_index[t.relation],
                        self.entity_index[t.tail],
                    )
                    for t in self.triples
                ],
                dtype=np.int64,
            )
        else:
            self.triple_array = np.empty((0, 3), dtype=np.int64)
        if self.type_triples:
            self.type_array = np.array(
                [
                    (self.entity_index[tt.entity], self.class_index[tt.cls])
                    for tt in self.type_triples
                ],
                dtype=np.int64,
            )
        else:
            self.type_array = np.empty((0, 2), dtype=np.int64)

        self._out_edges: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._in_edges: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self._relation_triples: dict[int, list[int]] = defaultdict(list)
        for pos, (h, r, t) in enumerate(self.triple_array):
            self._out_edges[int(h)].append((int(r), int(t)))
            self._in_edges[int(t)].append((int(r), int(h)))
            self._relation_triples[int(r)].append(pos)
        self._entity_classes: dict[int, list[int]] = defaultdict(list)
        self._class_entities: dict[int, list[int]] = defaultdict(list)
        for e, c in self.type_array:
            self._entity_classes[int(e)].append(int(c))
            self._class_entities[int(c)].append(int(e))

    # --------------------------------------------------------------- counting
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @property
    def num_type_triples(self) -> int:
        return len(self.type_triples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KnowledgeGraph(name={self.name!r}, |E|={self.num_entities}, "
            f"|R|={self.num_relations}, |C|={self.num_classes}, "
            f"|T|={self.num_triples}+{self.num_type_triples})"
        )

    # ---------------------------------------------------------------- lookups
    def entity_id(self, name: str) -> int:
        try:
            return self.entity_index[name]
        except KeyError as exc:
            raise KGError(f"unknown entity {name!r} in KG {self.name!r}") from exc

    def relation_id(self, name: str) -> int:
        try:
            return self.relation_index[name]
        except KeyError as exc:
            raise KGError(f"unknown relation {name!r} in KG {self.name!r}") from exc

    def class_id(self, name: str) -> int:
        try:
            return self.class_index[name]
        except KeyError as exc:
            raise KGError(f"unknown class {name!r} in KG {self.name!r}") from exc

    def out_edges(self, entity: int) -> list[tuple[int, int]]:
        """Outgoing ``(relation index, tail entity index)`` pairs of an entity."""
        return self._out_edges.get(entity, [])

    def in_edges(self, entity: int) -> list[tuple[int, int]]:
        """Incoming ``(relation index, head entity index)`` pairs of an entity."""
        return self._in_edges.get(entity, [])

    def neighbors(self, entity: int) -> set[int]:
        """Entity indexes adjacent to ``entity`` in either direction."""
        out = {t for _, t in self.out_edges(entity)}
        inc = {h for _, h in self.in_edges(entity)}
        return out | inc

    def entity_degree(self, entity: int) -> int:
        return len(self.out_edges(entity)) + len(self.in_edges(entity))

    def classes_of(self, entity: int) -> list[int]:
        """Class indexes an entity belongs to (may be several: many-to-one)."""
        return self._entity_classes.get(entity, [])

    def entities_of_class(self, cls: int) -> list[int]:
        return self._class_entities.get(cls, [])

    def triples_of_relation(self, relation: int) -> np.ndarray:
        """Rows of :attr:`triple_array` that use the given relation index."""
        rows = self._relation_triples.get(relation, [])
        if not rows:
            return np.empty((0, 3), dtype=np.int64)
        return self.triple_array[rows]

    def relations_of_entity(self, entity: int) -> set[int]:
        """Relation indexes incident to ``entity`` (either direction)."""
        rels = {r for r, _ in self.out_edges(entity)}
        rels |= {r for r, _ in self.in_edges(entity)}
        return rels

    # ------------------------------------------------------------ derivations
    def with_inverse_relations(self) -> "KnowledgeGraph":
        """Return a copy where every triple also has a synthetic reverse triple.

        The paper adds ``(tail, r^-1, head)`` for every ``(head, r, tail)`` so
        that negative sampling only corrupts tails (Sect. 4.1, Eq. 1).
        Idempotent: inverse relations are not inverted again.
        """
        new_relations = list(self.relations)
        rel_set = set(new_relations)
        new_triples = list(self.triples)
        existing = {t.as_tuple() for t in self.triples}
        for t in self.triples:
            if t.relation.endswith(INVERSE_SUFFIX):
                continue
            inv = t.relation + INVERSE_SUFFIX
            if inv not in rel_set:
                rel_set.add(inv)
                new_relations.append(inv)
            reverse = Triple(t.tail, inv, t.head)
            if reverse.as_tuple() in existing:
                continue
            existing.add(reverse.as_tuple())
            new_triples.append(reverse)
        return KnowledgeGraph(
            name=self.name,
            entities=list(self.entities),
            relations=new_relations,
            classes=list(self.classes),
            triples=new_triples,
            type_triples=list(self.type_triples),
        )

    def subgraph_of_entities(self, keep: Iterable[str]) -> "KnowledgeGraph":
        """Restrict the KG to ``keep`` entities, dropping dangling triples.

        Relations and classes that lose all their triples are removed as well.
        Used to emulate the paper's protocol of removing 30% of KG2's entities
        to create dangling cases.
        """
        keep_set = set(keep)
        unknown = keep_set - set(self.entities)
        if unknown:
            raise KGError(f"cannot keep unknown entities: {sorted(unknown)[:5]}")
        triples = [t for t in self.triples if t.head in keep_set and t.tail in keep_set]
        type_triples = [tt for tt in self.type_triples if tt.entity in keep_set]
        used_relations = {t.relation for t in triples}
        used_classes = {tt.cls for tt in type_triples}
        return KnowledgeGraph(
            name=self.name,
            entities=[e for e in self.entities if e in keep_set],
            relations=[r for r in self.relations if r in used_relations],
            classes=[c for c in self.classes if c in used_classes],
            triples=triples,
            type_triples=type_triples,
        )

    def relation_name(self, idx: int) -> str:
        return self.relations[idx]

    def entity_name(self, idx: int) -> str:
        return self.entities[idx]

    def class_name(self, idx: int) -> str:
        return self.classes[idx]

    @classmethod
    def from_triples(
        cls,
        name: str,
        triples: Iterable[tuple[str, str, str]],
        type_triples: Iterable[tuple[str, str]] = (),
    ) -> "KnowledgeGraph":
        """Build a KG from raw string triples, inferring the vocabularies.

        Vocabulary order is first-appearance order, which keeps construction
        deterministic for a given triple order.
        """
        entities: list[str] = []
        relations: list[str] = []
        classes: list[str] = []
        seen_e: set[str] = set()
        seen_r: set[str] = set()
        seen_c: set[str] = set()
        tr: list[Triple] = []
        tt: list[TypeTriple] = []
        for h, r, t in triples:
            for e in (h, t):
                if e not in seen_e:
                    seen_e.add(e)
                    entities.append(e)
            if r not in seen_r:
                seen_r.add(r)
                relations.append(r)
            tr.append(Triple(h, r, t))
        for e, c in type_triples:
            if e not in seen_e:
                seen_e.add(e)
                entities.append(e)
            if c not in seen_c:
                seen_c.add(c)
                classes.append(c)
            tt.append(TypeTriple(e, c))
        return cls(
            name=name,
            entities=entities,
            relations=relations,
            classes=classes,
            triples=tr,
            type_triples=tt,
        )
