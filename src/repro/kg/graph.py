"""The :class:`KnowledgeGraph` data model.

A KG is the quadruple ``G = (E, R, C, T)`` from the paper: entity, relation and
class vocabularies plus two triple stores (relation triples between entities,
and type triples between entities and classes).  The class keeps dense integer
indexes for all three vocabularies, because every downstream component
(embedding models, alignment graph, pool generation) works on index arrays.

**Indexes.**  Each KG builds, once at construction, five CSR indexes as
``(ptr, order)`` pairs from :func:`csr_index`: rows of :attr:`triple_array` by
head (``out_ptr``/``out_order``), by tail (``in_ptr``/``in_order``) and by
relation (``relation_ptr``/``relation_order``), and rows of :attr:`type_array`
by entity (``type_ptr``/``type_order``) and by class
(``member_ptr``/``member_order``).  The sort is stable, so within a key the
rows keep triple order.  The arrays are read-only, and the accessors
(:meth:`out_edges`, :meth:`classes_of`, ...) return fresh lists, sets or
arrays built from a slice, so no caller can change the KG through them.  An
id outside the vocabulary reads as empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.kg.elements import INVERSE_SUFFIX, Triple, TypeTriple


class KGError(ValueError):
    """Raised for malformed KG construction or lookups of unknown elements."""


def csr_index(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, order)`` grouping row indexes by key, input order kept within a key."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr, np.argsort(keys, kind="stable")


def _frozen_index(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`csr_index` with both arrays read-only."""
    ptr, order = csr_index(keys, size)
    ptr.setflags(write=False)
    order.setflags(write=False)
    return ptr, order


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
        entity, relation, cls = self.entity_index, self.relation_index, self.class_index
        triples, types = self.triples, self.type_triples
        # index arrays of shape (n_triples, 3): head idx, relation idx, tail idx,
        # built column by column and copied to row-major
        self.triple_array = np.array(
            [
                [entity[t.head] for t in triples],
                [relation[t.relation] for t in triples],
                [entity[t.tail] for t in triples],
            ],
            dtype=np.int64,
        ).T.copy()
        self.type_array = np.array(
            [[entity[tt.entity] for tt in types], [cls[tt.cls] for tt in types]], dtype=np.int64
        ).T.copy()
        n = self.num_entities
        heads, relations, tails = self.triple_array.T
        self.out_ptr, self.out_order = _frozen_index(heads, n)
        self.in_ptr, self.in_order = _frozen_index(tails, n)
        self.relation_ptr, self.relation_order = _frozen_index(relations, self.num_relations)
        self.type_ptr, self.type_order = _frozen_index(self.type_array[:, 0], n)
        self.member_ptr, self.member_order = _frozen_index(self.type_array[:, 1], self.num_classes)

    @staticmethod
    def _rows(ptr: np.ndarray, order: np.ndarray, key: int) -> np.ndarray:
        """The rows ``order`` lists under ``key``; none for a key out of range."""
        if not 0 <= key < len(ptr) - 1:
            return order[:0]
        return order[ptr[key] : ptr[key + 1]]

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

    def _out_triples(self, entity: int) -> np.ndarray:
        return self.triple_array[self._rows(self.out_ptr, self.out_order, entity)]

    def _in_triples(self, entity: int) -> np.ndarray:
        return self.triple_array[self._rows(self.in_ptr, self.in_order, entity)]

    def out_edges(self, entity: int) -> list[tuple[int, int]]:
        """Outgoing ``(relation index, tail entity index)`` pairs of an entity."""
        rows = self._out_triples(entity)
        return list(zip(rows[:, 1].tolist(), rows[:, 2].tolist()))

    def in_edges(self, entity: int) -> list[tuple[int, int]]:
        """Incoming ``(relation index, head entity index)`` pairs of an entity."""
        rows = self._in_triples(entity)
        return list(zip(rows[:, 1].tolist(), rows[:, 0].tolist()))

    def neighbors(self, entity: int) -> set[int]:
        """Entity indexes adjacent to ``entity`` in either direction."""
        out = set(self._out_triples(entity)[:, 2].tolist())
        return out | set(self._in_triples(entity)[:, 0].tolist())

    def entity_degree(self, entity: int) -> int:
        if not 0 <= entity < self.num_entities:
            return 0
        out, inc = self.out_ptr, self.in_ptr
        return int(out[entity + 1] - out[entity] + inc[entity + 1] - inc[entity])

    def classes_of(self, entity: int) -> list[int]:
        """Class indexes an entity belongs to (may be several: many-to-one)."""
        return self.type_array[self._rows(self.type_ptr, self.type_order, entity), 1].tolist()

    def entities_of_class(self, cls: int) -> list[int]:
        return self.type_array[self._rows(self.member_ptr, self.member_order, cls), 0].tolist()

    def triples_of_relation(self, relation: int) -> np.ndarray:
        """Rows of :attr:`triple_array` that use the given relation index."""
        return self.triple_array[self._rows(self.relation_ptr, self.relation_order, relation)]

    def relations_of_entity(self, entity: int) -> set[int]:
        """Relation indexes incident to ``entity`` (either direction)."""
        rels = set(self._out_triples(entity)[:, 1].tolist())
        rels |= set(self._in_triples(entity)[:, 1].tolist())
        return rels

    # ------------------------------------------------------------ derivations
    def with_inverse_relations(self) -> "KnowledgeGraph":
        """Return a copy where every triple also has a synthetic reverse triple.

        The paper adds ``(tail, r^-1, head)`` for every ``(head, r, tail)`` so
        that negative sampling only corrupts tails (Sect. 4.1, Eq. 1).
        Idempotent: inverse relations are not inverted again.
        """
        triples = self.triple_array
        forward = np.array([not r.endswith(INVERSE_SUFFIX) for r in self.relations], dtype=bool)
        rows = np.flatnonzero(forward[triples[:, 1]])
        heads, relations, tails = triples[rows].T
        # inverse relations join the vocabulary in first-use order of their forward relation
        new_relations = list(self.relations)
        index = dict(self.relation_index)
        inverse_of = np.zeros(self.num_relations, dtype=np.int64)
        for r in relations[np.sort(np.unique(relations, return_index=True)[1])].tolist():
            name = self.relations[r] + INVERSE_SUFFIX
            if name not in index:
                index[name] = len(new_relations)
                new_relations.append(name)
            inverse_of[r] = index[name]
        # add the first copy of each reverse triple that is not already a triple;
        # a triple's key is exact in int64 while entities² × relations < 2⁶³
        width, n = len(new_relations), self.num_entities
        keys = (tails * width + inverse_of[relations]) * n + heads
        existing = (triples[:, 0] * width + triples[:, 1]) * n + triples[:, 2]
        first = np.sort(np.unique(keys, return_index=True)[1])
        added = rows[first[~np.isin(keys[first], existing)]].tolist()
        new_triples = list(self.triples)
        new_triples.extend(self.triples[i].reversed(INVERSE_SUFFIX) for i in added)
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
