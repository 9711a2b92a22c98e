"""The :class:`KnowledgeGraph` data model.

A KG is the quadruple ``G = (E, R, C, T)`` from the paper: entity, relation and
class vocabularies plus two triple stores (relation triples between entities,
and type triples between entities and classes).  The class keeps dense integer
indexes for all three vocabularies, because every downstream component
(embedding models, alignment graph, pool generation) works on index arrays.

**Store.**  The triple stores are two ``int64`` index arrays:
:attr:`triple_array` (``head, relation, tail`` rows) and :attr:`type_array`
(``entity, class`` rows).  A KG is built either from names (the public
constructor and :meth:`from_triples`) or straight from those arrays
(:meth:`from_arrays`, which every derivation — inverse relations, subgraphs,
checkpoint decoding, delta application — goes through).  :attr:`triples` and
:attr:`type_triples` are read views: lists of :class:`Triple` /
:class:`TypeTriple` objects in array row order, built on first read for an
array-built KG.

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

from itertools import compress
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


def _rows_of(array, width: int, what: str) -> np.ndarray:
    """``array`` as an owned ``(n, width)`` int64 array, or :class:`KGError`."""
    array = np.asarray(array)
    if array.ndim != 2 or array.shape[1] != width or (array.size and array.dtype.kind not in "iu"):
        raise KGError(f"{what} must be an integer array of shape (n, {width}), got {array.shape}")
    return np.array(array, dtype=np.int64)


def _check_range(column: np.ndarray, size: int, what: str) -> None:
    if column.size and (column.min() < 0 or column.max() >= size):
        raise KGError(f"{what} index out of range [0, {size})")


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

    __hash__ = None  # mutable vocabularies, compared by value

    def __init__(
        self,
        name: str,
        entities: list[str] | None = None,
        relations: list[str] | None = None,
        classes: list[str] | None = None,
        triples: list[Triple] | None = None,
        type_triples: list[TypeTriple] | None = None,
    ) -> None:
        self._set_vocabularies(name, entities, relations, classes)
        self._triples = [] if triples is None else triples
        self._type_triples = [] if type_triples is None else type_triples
        self._check_triples()
        entity, relation, cls = self.entity_index, self.relation_index, self.class_index
        triples, types = self._triples, self._type_triples
        # index arrays built column by column and copied to row-major
        self._set_arrays(
            np.array(
                [
                    [entity[t.head] for t in triples],
                    [relation[t.relation] for t in triples],
                    [entity[t.tail] for t in triples],
                ],
                dtype=np.int64,
            ).T.copy(),
            np.array(
                [[entity[tt.entity] for tt in types], [cls[tt.cls] for tt in types]],
                dtype=np.int64,
            ).T.copy(),
        )

    @classmethod
    def from_arrays(
        cls,
        name: str,
        entities: list[str],
        relations: list[str],
        classes: list[str],
        triple_array: np.ndarray,
        type_array: np.ndarray,
    ) -> "KnowledgeGraph":
        """Build a KG from its vocabularies and index arrays, no objects.

        ``triple_array`` holds ``(head, relation, tail)`` index rows and
        ``type_array`` ``(entity, class)`` rows; both are copied.  Raises
        :class:`KGError` for a duplicate vocabulary entry, a wrong shape or
        an index outside its vocabulary.  :attr:`triples` and
        :attr:`type_triples` are built from the arrays on first read.
        """
        kg = cls.__new__(cls)
        kg._set_vocabularies(name, entities, relations, classes)
        triple_array = _rows_of(triple_array, 3, "triple_array")
        type_array = _rows_of(type_array, 2, "type_array")
        _check_range(triple_array[:, [0, 2]], kg.num_entities, "triple entity")
        _check_range(triple_array[:, 1], kg.num_relations, "triple relation")
        _check_range(type_array[:, 0], kg.num_entities, "type triple entity")
        _check_range(type_array[:, 1], kg.num_classes, "type triple class")
        kg._triples = kg._type_triples = None
        kg._set_arrays(triple_array, type_array)
        return kg

    # ------------------------------------------------------------------ setup
    def _set_vocabularies(
        self,
        name: str,
        entities: list[str] | None,
        relations: list[str] | None,
        classes: list[str] | None,
    ) -> None:
        self.name = name
        self.entities = [] if entities is None else entities
        self.relations = [] if relations is None else relations
        self.classes = [] if classes is None else classes
        self.entity_index: dict[str, int] = self._index_of("entities", self.entities)
        self.relation_index: dict[str, int] = self._index_of("relations", self.relations)
        self.class_index: dict[str, int] = self._index_of("classes", self.classes)

    @staticmethod
    def _index_of(kind: str, values: Sequence[str]) -> dict[str, int]:
        index = {value: i for i, value in enumerate(values)}
        if len(index) != len(values):
            raise KGError(f"duplicate {kind} in KG vocabulary")
        return index

    def _check_triples(self) -> None:
        for t in self._triples:
            if t.head not in self.entity_index or t.tail not in self.entity_index:
                raise KGError(f"triple references unknown entity: {t}")
            if t.relation not in self.relation_index:
                raise KGError(f"triple references unknown relation: {t}")
        for tt in self._type_triples:
            if tt.entity not in self.entity_index:
                raise KGError(f"type triple references unknown entity: {tt}")
            if tt.cls not in self.class_index:
                raise KGError(f"type triple references unknown class: {tt}")

    def _set_arrays(self, triple_array: np.ndarray, type_array: np.ndarray) -> None:
        self.triple_array = triple_array
        self.type_array = type_array
        n = self.num_entities
        heads, relations, tails = triple_array.T
        self.out_ptr, self.out_order = _frozen_index(heads, n)
        self.in_ptr, self.in_order = _frozen_index(tails, n)
        self.relation_ptr, self.relation_order = _frozen_index(relations, self.num_relations)
        self.type_ptr, self.type_order = _frozen_index(type_array[:, 0], n)
        self.member_ptr, self.member_order = _frozen_index(type_array[:, 1], self.num_classes)

    @staticmethod
    def _rows(ptr: np.ndarray, order: np.ndarray, key: int) -> np.ndarray:
        """The rows ``order`` lists under ``key``; none for a key out of range."""
        if not 0 <= key < len(ptr) - 1:
            return order[:0]
        return order[ptr[key] : ptr[key + 1]]

    # ------------------------------------------------------------ read views
    @property
    def triples(self) -> list[Triple]:
        """Relation triples as objects, in :attr:`triple_array` row order."""
        if self._triples is None:
            e, r = self.entities, self.relations
            self._triples = [Triple(e[h], r[rel], e[t]) for h, rel, t in self.triple_array.tolist()]
        return self._triples

    @property
    def type_triples(self) -> list[TypeTriple]:
        """Type triples as objects, in :attr:`type_array` row order."""
        if self._type_triples is None:
            e, c = self.entities, self.classes
            self._type_triples = [TypeTriple(e[i], c[k]) for i, k in self.type_array.tolist()]
        return self._type_triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (
            self.name == other.name
            and self.entities == other.entities
            and self.relations == other.relations
            and self.classes == other.classes
            and np.array_equal(self.triple_array, other.triple_array)
            and np.array_equal(self.type_array, other.type_array)
        )

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
        return len(self.triple_array)

    @property
    def num_type_triples(self) -> int:
        return len(self.type_array)

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
        added = triples[rows[first[~np.isin(keys[first], existing)]]]
        reverse = np.stack([added[:, 2], inverse_of[added[:, 1]], added[:, 0]], axis=1)
        return KnowledgeGraph.from_arrays(
            self.name,
            list(self.entities),
            new_relations,
            list(self.classes),
            np.concatenate([triples, reverse]),
            self.type_array,
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
        kept = np.zeros(self.num_entities, dtype=bool)
        kept[[self.entity_index[e] for e in keep_set]] = True
        triples = self.triple_array[kept[self.triple_array[:, 0]] & kept[self.triple_array[:, 2]]]
        types = self.type_array[kept[self.type_array[:, 0]]]
        used_relations = np.bincount(triples[:, 1], minlength=self.num_relations) > 0
        used_classes = np.bincount(types[:, 1], minlength=self.num_classes) > 0
        # surviving elements keep their vocabulary order, so a running count renumbers them
        entity_id, relation_id, class_id = (
            np.cumsum(used) - 1 for used in (kept, used_relations, used_classes)
        )
        return KnowledgeGraph.from_arrays(
            self.name,
            list(compress(self.entities, kept.tolist())),
            list(compress(self.relations, used_relations.tolist())),
            list(compress(self.classes, used_classes.tolist())),
            np.stack(
                [entity_id[triples[:, 0]], relation_id[triples[:, 1]], entity_id[triples[:, 2]]],
                axis=1,
            ),
            np.stack([entity_id[types[:, 0]], class_id[types[:, 1]]], axis=1),
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
