"""Inference power estimation (Sect. 5.2).

The estimator works on NumPy snapshots of the trained joint alignment model
(entity/relation output matrices, mapping matrices, dangling-entity weights
and mean embeddings) and on the alignment graph of the pool.

Path-based power between entity pairs uses per-edge costs

``disp(edge) = ||A_ent(t₁ − h₁) − (t₂ − h₂)||``

for an edge ``(h₁, h₂) --(r₁, r₂)--> (t₁, t₂)``.  Labelling the source pair a
match asserts ``A_ent·h₁ = h₂``, and then ``A_ent·t₁ − t₂`` equals the
difference of the two displacements exactly.  When both triples fit their
model exactly (``t = h + r`` on each side) the cost is the paper's
``||A_ent·r₁ − r₂||``.  Along a path the displacements telescope, so the
difference at the path's end is bounded by the sum of its edges' costs (the
triangle inequality): additive path costs over at most ``μ`` hops
upper-bound the paper's path difference ``D`` and therefore lower-bound —
i.e. conservatively estimate — the inference power ``I = 1/(1 + D)``.
Every edge's power is one array expression over the graph's edge array; no
randomness is drawn, so results do not depend on the order in which callers
read edges.

The path power is the exact best path of at most ``μ`` hops, from ``μ``
rounds of frontier relaxation over the CSR arrays for the whole block of
sources (:func:`~repro.inference.alignment_graph.relax`), listed by
ascending pair id.  Gradient-based power for class and relation pairs
(Eqs. 21–22) is computed in closed form through the mean-embedding channel
of the schema similarities.  :meth:`InferencePowerEstimator.reachable_power`
answers an array of pair ids (positions in the pool) with one table per call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.alignment.model import JointAlignmentModel
from repro.inference.alignment_graph import (
    AlignmentGraph,
    PairValues,
    expand_ranges,
    first_per_key,
    ranges,
    relax,
)
from repro.kg.elements import ElementKind



#: Reach entries weaker than this are dropped: path powers below it end the
#: path, and gradient powers below it are not listed.
MIN_POWER = 0.05


@dataclass(frozen=True)
class InferencePowerConfig:
    """Knobs of the inference power measurement."""

    max_hops: int = 3
    power_threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if not 0.0 <= self.power_threshold <= 1.0:
            raise ValueError("power_threshold must be in [0, 1]")


def _cosine_gradient(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``cos(a, b)`` with respect to ``a`` and ``b``."""
    norm_a = max(float(np.linalg.norm(a)), 1e-12)
    norm_b = max(float(np.linalg.norm(b)), 1e-12)
    cos = float(np.dot(a, b)) / (norm_a * norm_b)
    grad_a = b / (norm_a * norm_b) - cos * a / (norm_a**2)
    grad_b = a / (norm_a * norm_b) - cos * b / (norm_b**2)
    return grad_a, grad_b


def _table(row: np.ndarray, ids: np.ndarray, values: np.ndarray, size: int) -> PairValues:
    """The reach table of ``size`` sources from entries sorted by source ``row``."""
    return PairValues(ids, values, np.searchsorted(row, np.arange(size + 1)))


class InferencePowerEstimator:
    """Estimates ``I(q' | q)`` and aggregate inference power over a pool."""

    def __init__(
        self,
        model: JointAlignmentModel,
        graph: AlignmentGraph,
        config: InferencePowerConfig | None = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config or InferencePowerConfig()
        # the engine's snapshot, built from the cached forward session: an
        # estimator never re-runs a model forward
        self._snap = model.similarity.snapshot
        self._map_entity = model.map_entity.data
        self._all_edge_powers: np.ndarray | None = None
        # list view of edge_powers() for edge_power, filled on first use
        self._edge_power_cache: list[float] = []

    # ----------------------------------------------------------- edge powers
    def edge_powers(self) -> np.ndarray:
        """Every edge's power ``1 / (1 + disp)``, indexed by edge id.

        Built once and shared, so treat it as read-only.
        """
        if self._all_edge_powers is None:
            snap = self._snap
            mapped_1 = snap.entity_matrix_1 @ self._map_entity
            entities_2 = snap.entity_matrix_2
            sides = self.graph.sides
            heads, tails = sides[self.graph.edges[:, 0]], sides[self.graph.edges[:, 2]]
            displacement = (mapped_1[tails[:, 0]] - mapped_1[heads[:, 0]]) - (
                entities_2[tails[:, 1]] - entities_2[heads[:, 1]]
            )
            cost = np.sqrt(np.sum(displacement * displacement, axis=1))
            self._all_edge_powers = 1.0 / (1.0 + cost)
        return self._all_edge_powers

    def edge_power(self, edge: int) -> float:
        """``I(target | source)`` through one edge id."""
        if not self._edge_power_cache:
            self._edge_power_cache = self.edge_powers().tolist()
        return self._edge_power_cache[edge]

    # --------------------------------------------------- entity → entity pairs
    def path_reach(self, sources: np.ndarray) -> PairValues:
        """Best-path power from entity ids ``sources`` over at most ``max_hops``
        edges, by ascending target id; paths below :data:`MIN_POWER` are dropped.

        Costs ``1/power − 1`` add along a path; the relaxation keeps each
        path's cost negated, so that it maximises.
        """
        graph, size = self.graph, sources.size
        rows, ids, gains = relax(
            graph.out_ptr, graph.edges[:, 2], -(1.0 / self.edge_powers() - 1.0),
            np.arange(size), sources, np.zeros(size), self.config.max_hops,
            np.add, lambda gain: 1.0 / (1.0 - gain) >= MIN_POWER,
        )
        # drop the sources themselves, then order by (row, id)
        rows, ids, gains = rows[size:], ids[size:], gains[size:]
        order = np.argsort(rows * graph.relation_offset + ids)
        return _table(rows[order], ids[order], 1.0 / (1.0 - gains[order]), size)

    # -------------------------------------------------- relation → entity pairs
    def _relation_to_entity(self, sources: np.ndarray) -> PairValues:
        """Eq. 20 for relation pair ids ``sources``: a labelled relation pair
        zeroes the relation difference of its edges, so each distinct target
        of those edges gets power 1.0 (an exact translational fit's value),
        in the order of its first edge."""
        graph = self.graph
        relations, ptr = sources - graph.relation_offset, graph.relation_ptr
        row, position = expand_ranges(ptr[relations], ptr[relations + 1] - ptr[relations])
        targets = graph.edges[graph.relation_edges[position], 2]
        entries = first_per_key(row, targets, np.ones(row.size), graph.relation_offset)
        return _table(*entries, sources.size)

    # ------------------------------------------------ entity → schema pairs
    def _schema_gradient(self, kind: ElementKind, index: int) -> tuple:
        """Per schema pair: ``(A_ent·∇_a, ∇_b, weight sum 1, weight sum 2)`` of
        the mean-embedding cosine; the sums are NaN when a side has no weight."""
        snap = self._snap
        if kind is ElementKind.CLASS:
            left, right = self.graph.sides[self.graph.class_offset + index].tolist()
            left_members = self.model.kg1.entities_of_class(left)
            right_members = self.model.kg2.entities_of_class(right)
            weight_sum_1 = float(np.sum(snap.weights_1[left_members])) if left_members else 0.0
            weight_sum_2 = float(np.sum(snap.weights_2[right_members])) if right_members else 0.0
            means_1, means_2 = snap.mean_classes_1, snap.mean_classes_2
        else:
            left, right = self.graph.sides[self.graph.relation_offset + index].tolist()
            triples_1 = self.model.kg1.triples_of_relation(left)
            triples_2 = self.model.kg2.triples_of_relation(right)
            weight_sum_1 = weight_sum_2 = 0.0
            if triples_1.size and triples_2.size:
                weight_sum_1 = float(
                    np.sum(np.minimum(snap.weights_1[triples_1[:, 0]], snap.weights_1[triples_1[:, 2]]))
                )
                weight_sum_2 = float(
                    np.sum(np.minimum(snap.weights_2[triples_2[:, 0]], snap.weights_2[triples_2[:, 2]]))
                )
            means_1, means_2 = snap.mean_relations_1, snap.mean_relations_2
        if weight_sum_1 < 1e-9 or weight_sum_2 < 1e-9:  # NaN powers: MIN_POWER admits none
            weight_sum_1 = weight_sum_2 = np.nan
        grad_a, grad_b = _cosine_gradient(self._map_entity.T @ means_1[left], means_2[right])
        return self._map_entity @ grad_a, grad_b, weight_sum_1, weight_sum_2

    def _schema_reach(self, kind: ElementKind, sources: np.ndarray) -> PairValues:
        """Eqs. 21–22 for entity ids ``sources``: the class pairs of their type
        triples in type-triple order, or the relation pairs of their
        out-edges in the order of the first edge that gives :data:`MIN_POWER`.
        Each pair keeps its largest power, capped at 1."""
        graph, snap = self.graph, self._snap
        lefts, rights = graph.sides[sources].T
        if kind is ElementKind.CLASS:
            ptr, offset = graph.class_ptr, graph.class_offset
            row, link = expand_ranges(ptr[sources], ptr[sources + 1] - ptr[sources])
            index = graph.class_ids[link]
            weight_1, weight_2 = snap.weights_1[lefts[row]], snap.weights_2[rights[row]]
        else:
            ptr, offset = graph.out_ptr, graph.relation_offset
            row, edge = expand_ranges(ptr[sources], ptr[sources + 1] - ptr[sources])
            index = graph.edges[edge, 1]
            target_lefts, target_rights = graph.sides[graph.edges[edge, 2]].T
            weight_1 = np.minimum(snap.weights_1[lefts[row]], snap.weights_1[target_lefts])
            weight_2 = np.minimum(snap.weights_2[rights[row]], snap.weights_2[target_rights])
        unique, slot = np.unique(index, return_inverse=True)
        if not unique.size:
            return _table(row, index, weight_1, sources.size)
        mapped_a, grad_b, sum_1, sum_2 = map(
            np.array, zip(*(self._schema_gradient(kind, i) for i in unique.tolist()))
        )
        grad_left = (weight_1 / sum_1[slot])[:, None] * mapped_a[slot]
        grad_right = (weight_2 / sum_2[slot])[:, None] * grad_b[slot]
        power = np.sqrt(np.sum(grad_left**2, axis=1) + np.sum(grad_right**2, axis=1))
        keep = power >= MIN_POWER
        row, pair, power = first_per_key(
            row[keep], index[keep] + offset, power[keep], len(graph.sides)
        )
        return _table(row, pair, np.minimum(power, 1.0), sources.size)

    # --------------------------------------------------------------- aggregates
    def reachable_power(self, ids: np.ndarray) -> PairValues:
        """``I(q' | q)`` for every pair ``q'`` each pair id in ``ids`` can
        influence: one reach table, rows in request order."""
        return self.reach_table(ids, self.path_reach)

    def reach_table(self, ids: np.ndarray, entity_reach) -> PairValues:
        """The reach table of pair ids ``ids``.  An entity pair's row lists
        the entity pairs ``entity_reach(sources)`` gives it, then its schema
        pairs (Eqs. 21–22); a relation pair's row lists the targets of its
        edges (Eq. 20); class pairs propagate no power in the paper's model."""
        ids, graph = np.asarray(ids, dtype=np.int64), self.graph
        entity = np.flatnonzero(ids < graph.relation_offset)
        relation = np.flatnonzero((ids >= graph.relation_offset) & (ids < graph.class_offset))
        reaches = [(entity, entity_reach), (relation, self._relation_to_entity)]
        if self.model.use_mean_embeddings:
            schema = (ElementKind.CLASS, ElementKind.RELATION)
            reaches[1:1] = [(entity, partial(self._schema_reach, kind)) for kind in schema]
        parts = [(rows, reach(ids[rows])) for rows, reach in reaches]
        # (part, row) blocks: where each starts in the parts' concatenation,
        # then gathered row by row
        counts = np.zeros((len(parts), ids.size), dtype=np.int64)
        for part, (rows, table) in enumerate(parts):
            counts[part, rows] = np.diff(table.ptr)
        starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
        order = ranges(starts.T.ravel(), counts.T.ravel())
        return PairValues(
            np.concatenate([table.ids for _, table in parts])[order],
            np.concatenate([table.data for _, table in parts])[order],
            np.concatenate([[0], np.cumsum(counts.sum(axis=0))]),
        )

    def power_from_labelled(self, labelled: Sequence[int]) -> PairValues:
        """``I(q' | L+) = max_{q ∈ L+} I(q' | q)`` for every reachable pair, in
        the order pairs are first reached."""
        return self.reachable_power(labelled).best()

    def overall_power(self, labelled: Sequence[int]) -> float:
        """``I(P | L+)`` of Eq. 23."""
        threshold = self.config.power_threshold
        combined = self.power_from_labelled(labelled)
        return float(sum(value for value in combined.values() if value > threshold))

    def inferred_pairs(self, labelled: Sequence[int]) -> PairValues:
        """Unlabelled pairs whose inference power from ``L+`` exceeds the
        threshold, by descending power (ties in first-reached order)."""
        combined = self.power_from_labelled(labelled)
        order = np.argsort(-combined.data, kind="stable")
        ids, values = combined.ids[order], combined.data[order]
        keep = (values > self.config.power_threshold) & ~np.isin(
            ids, np.asarray(labelled, dtype=np.int64)
        )
        return PairValues(ids[keep], values[keep])


def inference_accuracy(
    estimator: InferencePowerEstimator,
    labelled_matches: Sequence[int],
    gold: dict[ElementKind, set[tuple[int, int]]],
) -> tuple[int, float | None]:
    """The Table 6 metric: ``(inferred-set size, fraction that are true matches)``.

    ``labelled_matches`` are pool pair ids.  An empty inferred set has no
    precision (``None``), not a precision of 0.
    """
    inferred = estimator.inferred_pairs(labelled_matches).ids
    if not inferred.size:
        return 0, None
    graph = estimator.graph
    pairs = zip(inferred.tolist(), graph.sides[inferred].tolist())
    correct = sum(tuple(sides) in gold.get(graph.kind_of(pair), set()) for pair, sides in pairs)
    return inferred.size, correct / inferred.size
