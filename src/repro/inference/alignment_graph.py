"""The alignment graph ``G ×_P G'`` (Sect. 5.1).

Nodes are the element pairs of the pool ``P``; a directed edge
``(x, x') --(r, r')--> (x'', x''')`` exists when ``(x, r, x'')`` is a triple of
KG1, ``(x', r', x''')`` is a triple of KG2, and all three pairs belong to the
pool.  Because the KGs are augmented with inverse relations, each structural
connection appears in both directions, which is what the path-based inference
power needs.

The graph also records which entity pairs instantiate which class pairs (via
type triples), used by the gradient-based inference power.

**Layout.**  Every pool pair has an integer id, its position in the pool:
entity pairs take ids ``0 .. n_entity - 1`` in sorted ``(left, right)``
order — so comparing ids orders pairs as comparing ``ElementPair`` objects
would — relation pairs follow at
:attr:`relation_offset` and class pairs at :attr:`class_offset`, each in
sorted order.  The builder takes each kind's pairs as the sorted ``(n, 2)``
side arrays a pool holds (:meth:`~repro.active.pool.ElementPairPool.sides`),
so a graph built from a pool (:func:`graph_from_pool`) numbers pairs as the
pool does.  The graph keeps no pair objects: row ``i`` of :attr:`sides` holds
the ``(left, right)`` element indexes of pair ``i``.  Edges are rows
``(source entity id, relation pair index, target entity id)`` of
:attr:`edges`, numbered by source id and, within a source, in KG1's and then
KG2's adjacency order (the join reads each KG's ``out_ptr``/``out_order`` and
``type_ptr``/``type_order`` indexes).  Edge ids therefore follow pair ids, and
``out_ptr`` delimits each source's edges as a contiguous id range.
``relation_ptr`` / ``relation_edges`` index edge ids by relation pair, and
``class_ptr`` / ``class_ids`` list each entity pair's class-pair indexes in
type-triple order.

The graph depends only on the pool and the two KGs, so an active loop builds
it once per pool (:func:`graph_from_pool`) and every batch's estimator shares
it.  :func:`relax` walks these CSR arrays for a block of sources at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph, csr_index

if TYPE_CHECKING:  # pragma: no cover - import cycle with active/
    from repro.active.pool import ElementPairPool


@dataclass(eq=False)
class AlignmentGraph:
    """CSR arrays over the element-pair pool, addressed by pair id."""

    sides: np.ndarray
    relation_offset: int
    class_offset: int
    edges: np.ndarray
    out_ptr: np.ndarray
    relation_ptr: np.ndarray
    relation_edges: np.ndarray
    class_ptr: np.ndarray
    class_ids: np.ndarray

    def kind_of(self, pair: int) -> ElementKind:
        """The kind of the pair with id ``pair``."""
        if pair < self.relation_offset:
            return ElementKind.ENTITY
        if pair < self.class_offset:
            return ElementKind.RELATION
        return ElementKind.CLASS

    def num_edges(self) -> int:
        return len(self.edges)


class PairValues:
    """One value per listed pool pair: pair ids ``ids`` and values ``data``;
    a reach table's row ``i`` holds the entries ``ptr[i] .. ptr[i + 1] - 1``."""

    __slots__ = ("ids", "data", "ptr")

    def __init__(self, ids: np.ndarray, data: np.ndarray, ptr: np.ndarray | None = None) -> None:
        self.ids = ids
        self.data = data
        self.ptr = ptr

    def values(self):
        return self.data.tolist()

    def best(self, keep: np.ndarray | bool = True) -> "PairValues":
        """The largest value per id over the entries where ``keep`` holds,
        ids in the order their first positive value is listed."""
        positive = (self.data > 0.0) & keep
        ids = self.ids[positive]
        return PairValues(*first_per_key(np.zeros_like(ids), ids, self.data[positive], 0)[1:])


def pair_array(pairs) -> np.ndarray:
    """``pairs`` as a read-only ``(n, 2)`` int64 copy; raises ``ValueError``
    unless they are distinct and sorted by ``(left, right)``."""
    sides = np.array(pairs, dtype=np.int64, order="C").reshape(-1, 2)
    keys = sides[:, 0] * (sides[:, 1].max(initial=0) + 1) + sides[:, 1]
    if np.any(np.diff(keys) <= 0):
        raise ValueError("pairs must be distinct and sorted by (left, right)")
    sides.setflags(write=False)
    return sides


def cross_pairs(height: int, width: int) -> np.ndarray:
    """Every ``(left, right)`` pair of ``range(height) × range(width)``, sorted."""
    return np.indices((height, width)).reshape(2, -1).T.copy()


def _pair_lookup(sides: np.ndarray, width: int):
    """``lookup(lefts, rights)``: index of each pair in the sorted ``(n, 2)``
    array ``sides``, or ``-1`` outside them (``width`` bounds the right-hand
    indexes).  Memory stays linear in the pool, unlike a dense
    ``left × right`` table."""
    keys = sides[:, 0] * width + sides[:, 1]

    def lookup(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        query = lefts * width + rights
        if not keys.size:
            return np.full(query.shape, -1, dtype=np.int64)
        position = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return np.where(keys[position] == query, position, -1)

    return lookup


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[i] + 0 .. counts[i] - 1``."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(np.sum(counts))


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, position)`` over the concatenated ranges ``starts[i] + 0 .. counts[i] - 1``."""
    return np.repeat(np.arange(len(counts)), counts), ranges(starts, counts)


def first_per_key(row: np.ndarray, key: np.ndarray, value: np.ndarray, width: int):
    """One entry per ``(row, key)``, at its first position, with its largest
    value: ``(rows, keys, values)`` (``width`` bounds the keys)."""
    keys, first, slot = np.unique(row * width + key, return_index=True, return_inverse=True)
    best = np.full(keys.size, -np.inf)
    np.maximum.at(best, slot, value)
    order = np.argsort(first)
    return row[first[order]], key[first[order]], best[order]


def _find(keys: np.ndarray, sorter: np.ndarray, query: np.ndarray):
    """``(position, found)`` of each ``query`` key in ``keys``, which
    ``sorter`` sorts."""
    position = sorter[np.minimum(np.searchsorted(keys, query, sorter=sorter), keys.size - 1)]
    return position, keys[position] == query


def relax(ptr, targets, weights, rows, nodes, values, rounds, extend, keep):
    """``rounds`` synchronous rounds of frontier relaxation for a block of sources.

    The table starts as the distinct entries ``(rows, nodes, values)``, also
    the first frontier.  A round extends each frontier entry along its node's
    CSR links (``ptr``, ``targets``, ``weights``) by ``extend(value, weight)``;
    an offer that passes ``keep`` and beats its ``(row, target)``'s value at
    the round's start (absent: ``-inf``) improves it.  Improved entries take
    their best offer and, in the order of their first improving offer, form
    the next frontier.  With ``extend`` monotone, each entry ends as the best
    walk of at most ``rounds`` links.  Returns ``(rows, nodes, values)`` in
    insertion order."""
    width = ptr.size  # above every node id
    keys, table = rows * width + nodes, values.copy()
    frontier, offered = keys, values
    for _ in range(rounds):
        if not frontier.size:
            break
        source = frontier % width
        row, link = expand_ranges(ptr[source], ptr[source + 1] - ptr[source])
        reached = frontier[row] - source[row] + targets[link]
        offered = extend(offered[row], weights[link])
        sorter = np.argsort(keys)
        position, known = _find(keys, sorter, reached)
        improving = keep(offered) & (offered > np.where(known, table[position], -np.inf))
        reached = reached[improving]
        _, frontier, offered = first_per_key(np.zeros_like(reached), reached, offered[improving], 0)
        position, known = _find(keys, sorter, frontier)
        table[position[known]] = offered[known]
        keys = np.concatenate([keys, frontier[~known]])
        table = np.concatenate([table, offered[~known]])
    return keys // width, keys % width, table


def _join(
    lefts: np.ndarray,
    rights: np.ndarray,
    ptr_1: np.ndarray,
    ptr_2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross products of two CSR rows per ``(left, right)``, row-major.

    Returns ``(row, position_1, position_2)``: the input row of each product
    and the positions it combines within the two CSR arrays, in the order of
    the nested loop ``for row: for item_1 in row_1: for item_2 in row_2``.
    """
    height = ptr_1[lefts + 1] - ptr_1[lefts]
    width = ptr_2[rights + 1] - ptr_2[rights]
    row, offset = expand_ranges(np.zeros(len(lefts), dtype=np.int64), height * width)
    return row, ptr_1[lefts[row]] + offset // width[row], ptr_2[rights[row]] + offset % width[row]


def build_alignment_graph(
    kg1: KnowledgeGraph,
    kg2: KnowledgeGraph,
    entity_sides,
    relation_sides=None,
    class_sides=None,
) -> AlignmentGraph:
    """Construct the alignment graph restricted to the pool.

    Each argument lists one kind's ``(kg1 index, kg2 index)`` pairs as an
    ``(n, 2)`` array, distinct and sorted, as
    :meth:`~repro.active.pool.ElementPairPool.sides` returns them;
    ``relation_sides`` / ``class_sides`` default to the full cross products,
    as in the paper (schemas are small enough to keep every pair).
    """
    with obs.span("inference.graph.build", pairs=len(entity_sides)):
        return _build(kg1, kg2, entity_sides, relation_sides, class_sides)


def graph_from_pool(
    kg1: KnowledgeGraph, kg2: KnowledgeGraph, pool: "ElementPairPool"
) -> AlignmentGraph:
    """The alignment graph of an element pair pool."""
    return build_alignment_graph(kg1, kg2, *(pool.sides(kind) for kind in ElementKind))


def _build(kg1, kg2, entity_sides, relation_sides, class_sides) -> AlignmentGraph:
    if relation_sides is None:
        relation_sides = cross_pairs(kg1.num_relations, kg2.num_relations)
    if class_sides is None:
        class_sides = cross_pairs(kg1.num_classes, kg2.num_classes)
    entity_sides, relation_sides, class_sides = (
        pair_array(sides) for sides in (entity_sides, relation_sides, class_sides)
    )
    num_entities = len(entity_sides)
    entity_id = _pair_lookup(entity_sides, kg2.num_entities)
    relation_id = _pair_lookup(relation_sides, kg2.num_relations)
    class_id = _pair_lookup(class_sides, kg2.num_classes)
    lefts, rights = entity_sides[:, 0], entity_sides[:, 1]

    # entity-pair edges: join both sides' out-edges, sources in id order
    row, pos_1, pos_2 = _join(lefts, rights, kg1.out_ptr, kg2.out_ptr)
    out_1, out_2 = kg1.triple_array[kg1.out_order], kg2.triple_array[kg2.out_order]
    target = entity_id(out_1[pos_1, 2], out_2[pos_2, 2])
    found = np.flatnonzero(target >= 0)  # few products reach a pool pair
    relation = relation_id(out_1[pos_1[found], 1], out_2[pos_2[found], 1])
    keep = relation >= 0
    edges = np.stack([row[found[keep]], relation[keep], target[found[keep]]], axis=1)
    out_ptr, _ = csr_index(edges[:, 0], num_entities)
    relation_ptr, relation_edges = csr_index(edges[:, 1], len(relation_sides))

    # class-pair membership links (for gradient-based inference power)
    row, pos_1, pos_2 = _join(lefts, rights, kg1.type_ptr, kg2.type_ptr)
    linked = class_id(
        kg1.type_array[kg1.type_order[pos_1], 1], kg2.type_array[kg2.type_order[pos_2], 1]
    )
    keep = linked >= 0
    class_ptr, _ = csr_index(row[keep], num_entities)

    return AlignmentGraph(
        sides=np.concatenate([entity_sides, relation_sides, class_sides]),
        relation_offset=num_entities,
        class_offset=num_entities + len(relation_sides),
        edges=edges,
        out_ptr=out_ptr,
        relation_ptr=relation_ptr,
        relation_edges=relation_edges,
        class_ptr=class_ptr,
        class_ids=linked[keep],
    )
