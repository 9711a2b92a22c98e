"""Element pair pool generation (Sect. 6.1).

Each entity gets a *schema signature* (Eq. 24): the concatenation of its
relation-evidence vector and its class-evidence vector.  Each is the mean of
the entity's incident relations' (or classes') mean embeddings, weighted by
their best alignment similarity, so dangling relations and classes count
less (Eq. 25).  Every entity's evidence vector of one kind is one row of two
sparse products over an entity × element incidence matrix: the incidence
times the weighted mean embeddings, divided by the incidence times the
weights.  Relation incidence lists each relation incident to the entity (in
either direction) once, in index order; class incidence lists the entity's
type triples in type-triple order, a repeated triple repeated.  Each row's
sums run in that column order, so the class columns are not sorted.

The pool keeps, for every entity, its top-N nearest neighbours by signature
cosine similarity (mutually, i.e. a pair survives only if each side ranks the
other), plus every relation pair and every class pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.alignment.model import JointAlignmentModel
from repro.inference.alignment_graph import _pair_lookup, cross_pairs, pair_array
from repro.inference.pairs import ElementPair
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.runtime.streaming import mutual_top_n

_KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)


@dataclass(frozen=True)
class PoolConfig:
    """Parameters of pool generation."""

    top_n: int = 200

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


class ElementPairPool:
    """The candidate element pairs active learning may ask the oracle about.

    Holds one read-only ``(n, 2)`` int64 array of ``(left, right)`` element
    indexes per kind (:meth:`sides`), distinct and sorted by
    ``(left, right)``.  A pool pair's id is its position in the pool — entity
    pairs, then relation pairs, then class pairs — which is also its id in
    the pool's alignment graph.  Selection works on these ids; :meth:`pair`
    builds the ``ElementPair`` the oracle and the records take.
    """

    def __init__(self, entity_sides=(), relation_sides=(), class_sides=()) -> None:
        self._sides = {
            kind: pair_array(sides)
            for kind, sides in zip(_KINDS, (entity_sides, relation_sides, class_sides))
        }

    def __len__(self) -> int:
        return sum(len(sides) for sides in self._sides.values())

    def sides(self, kind: ElementKind) -> np.ndarray:
        """``(n, 2)`` array of the ``(left, right)`` indexes of one kind's pairs."""
        return self._sides[kind]

    def offset(self, kind: ElementKind) -> int:
        """Id of the first pair of ``kind``."""
        return sum(len(self._sides[before]) for before in _KINDS[: _KINDS.index(kind)])

    def pair(self, pair_id: int) -> ElementPair:
        """The pair with id ``pair_id``."""
        for kind in _KINDS:
            index = pair_id - self.offset(kind)
            if 0 <= index < len(self._sides[kind]):
                left, right = self._sides[kind][index].tolist()
                return ElementPair(kind, left, right)
        raise IndexError(f"no pair with id {pair_id} in a pool of {len(self)}")

    def pair_ids(self, kind: ElementKind, lefts, rights) -> np.ndarray:
        """Pool id of each ``(lefts[i], rights[i])`` pair of ``kind``; ``-1``
        for a pair outside the pool."""
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        sides = self.sides(kind)
        width = int(max(sides[:, 1].max(initial=-1), rights.max(initial=-1))) + 1
        found = _pair_lookup(sides, width)(lefts, rights)
        return np.where(found >= 0, found + self.offset(kind), -1)

    def recall_of_matches(self, gold_pairs: set[tuple[int, int]]) -> float:
        """Fraction of gold entity matches preserved by the pool (Figure 6)."""
        if not gold_pairs:
            return 0.0
        lefts, rights = zip(*gold_pairs)
        kept = int(np.count_nonzero(self.pair_ids(ElementKind.ENTITY, lefts, rights) >= 0))
        return kept / len(gold_pairs)


def _evidence(
    incidence: sp.csr_matrix, weights: np.ndarray, embeddings: np.ndarray
) -> np.ndarray:
    """Per row of ``incidence``: the ``weights``-weighted mean of the
    ``embeddings`` rows it lists; the plain mean when the weights sum below
    ``1e-9``, and zeros for a row that lists none."""
    counts = np.diff(incidence.indptr)
    totals = incidence @ weights
    plain = totals < 1e-9
    sums = np.where(
        plain[:, None], incidence @ embeddings, incidence @ (weights[:, None] * embeddings)
    )
    divisor = np.where(plain, counts, totals)[:, None]
    return np.divide(sums, divisor, out=np.zeros_like(sums), where=counts[:, None] > 0)


def _incidence(ptr: np.ndarray, columns: np.ndarray, width: int) -> sp.csr_matrix:
    """0/1 matrix whose row ``i`` lists ``columns[ptr[i]:ptr[i + 1]]``, in that order."""
    return sp.csr_matrix((np.ones(columns.size), columns, ptr), shape=(len(ptr) - 1, width))


def schema_signatures(
    kg: KnowledgeGraph,
    relation_weights: np.ndarray,
    class_weights: np.ndarray,
    mean_relations: np.ndarray,
    mean_classes: np.ndarray,
) -> np.ndarray:
    """Schema signatures ``sig(e)`` for every entity of one KG (Eq. 24).

    ``relation_weights`` / ``class_weights`` are the best alignment
    similarities of each relation / class (Eq. 25); ``mean_relations`` /
    ``mean_classes`` are the weighted mean embeddings (Eqs. 7 and 9).
    """
    heads, relations, tails = kg.triple_array.T
    width = kg.num_relations
    # one sorted key per (entity, relation incident to it in either direction)
    keys = np.unique(np.concatenate([heads, tails]) * width + np.concatenate([relations] * 2))
    ptr = np.searchsorted(keys, np.arange(kg.num_entities + 1) * width)
    relation_incidence = _incidence(ptr, keys % width, width)
    relation_part = _evidence(relation_incidence, relation_weights, mean_relations)
    class_incidence = _incidence(kg.type_ptr, kg.type_array[kg.type_order, 1], kg.num_classes)
    class_part = _evidence(class_incidence, class_weights, mean_classes)
    return np.concatenate([relation_part, class_part], axis=1)


def build_pool(model: JointAlignmentModel, config: PoolConfig | None = None) -> ElementPairPool:
    """Build the element pair pool from the current joint alignment model.

    Schema-evidence weights (Eq. 25) are per-row / per-column similarity
    maxima read through the engine, and the mutual top-N entity filter on
    the schema signatures is two streamed top-N passes plus one sorted
    intersection of their ``row * M + column`` pair keys
    (:func:`~repro.runtime.streaming.mutual_top_n`), so pool construction
    never materialises an ``N × M`` array.
    """
    config = config or PoolConfig()
    kg1, kg2 = model.kg1, model.kg2
    engine = model.similarity
    snap = engine.snapshot
    rel_weights_1, rel_weights_2 = engine.row_col_max(ElementKind.RELATION)
    cls_weights_1, cls_weights_2 = engine.row_col_max(ElementKind.CLASS)

    signatures_1 = schema_signatures(
        kg1, rel_weights_1, cls_weights_1, snap.mean_relations_1, snap.mean_classes_1
    )
    signatures_2 = schema_signatures(
        kg2, rel_weights_2, cls_weights_2, snap.mean_relations_2, snap.mean_classes_2
    )
    lefts, rights = mutual_top_n(signatures_1, signatures_2, config.top_n, engine.block_size)
    return ElementPairPool(
        np.stack([lefts, rights], axis=1),
        cross_pairs(kg1.num_relations, kg2.num_relations),
        cross_pairs(kg1.num_classes, kg2.num_classes),
    )
