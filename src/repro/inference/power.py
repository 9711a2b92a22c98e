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

Gradient-based power for class and relation pairs (Eqs. 21–22) is computed in
closed form through the mean-embedding channel of the schema similarities.

Edges and pairs are addressed by the graph's integer ids; a pair's id is its
position in the pool (see :mod:`repro.inference.alignment_graph`).
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.alignment.model import JointAlignmentModel
from repro.inference.alignment_graph import AlignmentGraph, PairValues
from repro.kg.elements import ElementKind

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class InferencePowerConfig:
    """Knobs of the inference power measurement."""

    max_hops: int = 3
    power_threshold: float = 0.8
    min_power: float = 0.05

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if not 0.0 <= self.power_threshold <= 1.0:
            raise ValueError("power_threshold must be in [0, 1]")
        if not 0.0 <= self.min_power <= 1.0:
            raise ValueError("min_power must be in [0, 1]")


def _cosine_gradient(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``cos(a, b)`` with respect to ``a`` and ``b``."""
    norm_a = max(float(np.linalg.norm(a)), 1e-12)
    norm_b = max(float(np.linalg.norm(b)), 1e-12)
    cos = float(np.dot(a, b)) / (norm_a * norm_b)
    grad_a = b / (norm_a * norm_b) - cos * a / (norm_a**2)
    grad_b = a / (norm_a * norm_b) - cos * b / (norm_b**2)
    return grad_a, grad_b


def _arrays(powers: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, values)`` of an ``{id: value}`` dict, in insertion order."""
    if not powers:
        return _NO_IDS, _NO_VALUES
    return (
        np.fromiter(powers.keys(), dtype=np.int64, count=len(powers)),
        np.fromiter(powers.values(), dtype=np.float64, count=len(powers)),
    )


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
        # Snapshot arrays are read through the model's SimilarityEngine (the
        # single access point for cached NumPy state) instead of being copied
        # field by field into the estimator; the snapshot itself is built from
        # the embedding models' cached forward session, so constructing an
        # estimator never re-runs a model forward.
        self._snap = model.similarity.snapshot
        self._map_entity = model.map_entity.data
        self._all_edge_powers: np.ndarray | None = None
        # list view of edge_powers() for the per-edge loops below, filled on
        # first use
        self._edge_power_cache: list[float] = []
        self._path_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._schema_gradients: dict[tuple[ElementKind, int], tuple | None] = {}
        # The graph's shared list views: the per-edge loops below index them
        # without boxing.  Everything above depends on the model, so it stays
        # per estimator.
        self._edges = graph.edge_list
        self._targets = graph.target_list
        self._out_ptr = graph.out_ptr_list
        self._sides = graph.side_list

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

    def _edge_power_list(self) -> list[float]:
        if not self._edge_power_cache:
            self._edge_power_cache = self.edge_powers().tolist()
        return self._edge_power_cache

    def edge_power(self, edge: int) -> float:
        """``I(target | source)`` through one edge id."""
        return self._edge_power_list()[edge]

    # --------------------------------------------------- entity → entity pairs
    def _path_power(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Best-path power from entity id ``source``: ``(entity ids, powers)``.

        Depth-limited Dijkstra over additive edge costs (≤ ``max_hops`` hops);
        pairs are listed in discovery order and results below ``min_power``
        are dropped.
        """
        cached = self._path_cache.get(source)
        if cached is not None:
            return cached
        best_cost: dict[int, float] = {source: 0.0}
        heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
        max_cost = (1.0 / max(self.config.min_power, 1e-6)) - 1.0
        max_hops = self.config.max_hops
        out_ptr, targets = self._out_ptr, self._targets
        edge_power = self._edge_power_list()
        inf = float("inf")
        while heap:
            cost, hops, node = heapq.heappop(heap)
            if cost > best_cost.get(node, inf) or hops >= max_hops:
                continue
            for edge in range(out_ptr[node], out_ptr[node + 1]):
                new_cost = cost + (1.0 / edge_power[edge] - 1.0)
                if new_cost > max_cost:
                    continue
                target = targets[edge]
                if new_cost < best_cost.get(target, inf):
                    best_cost[target] = new_cost
                    heapq.heappush(heap, (new_cost, hops + 1, target))
        ids, costs = _arrays(best_cost)
        powers = 1.0 / (1.0 + costs)
        keep = (ids != source) & (powers >= self.config.min_power)
        result = (ids[keep], powers[keep])
        self._path_cache[source] = result
        return result

    def entity_path_power(self, source: int) -> PairValues:
        """Best-path inference power from entity pair ``source`` to reachable entity pairs."""
        if self.graph.kind_of(source) is not ElementKind.ENTITY:
            raise ValueError("entity_path_power expects an entity pair id")
        return PairValues(*self._path_power(source))

    # -------------------------------------------------- relation → entity pairs
    def relation_to_entity_power(self, source: int) -> PairValues:
        """Eq. 20: power of relation pair ``source`` over entity pairs reachable through it.

        A labelled relation pair zeroes the relation difference of its edges;
        each distinct target of those edges gets power 1.0 (the value an
        exact translational fit gives).  Targets are listed in the order of
        their first edge, and edge ids follow source pair ids, so a target
        comes before another when its first edge leaves a lower source id.
        """
        if self.graph.kind_of(source) is not ElementKind.RELATION:
            raise ValueError("relation_to_entity_power expects a relation pair id")
        relation = source - self.graph.relation_offset
        ptr = self.graph.relation_ptr
        targets = self.graph.edges[self.graph.relation_edges[ptr[relation] : ptr[relation + 1]], 2]
        _, first = np.unique(targets, return_index=True)
        targets = targets[np.sort(first)]
        return PairValues(targets, np.ones(targets.size))

    # ------------------------------------------------ entity → schema pairs
    def _schema_gradient(self, kind: ElementKind, index: int) -> tuple | None:
        """Per schema pair: ``(A_ent·∇_a, ∇_b, weight sum 1, weight sum 2)`` of
        the mean-embedding cosine, or ``None`` when a side has no weight."""
        key = (kind, index)
        if key in self._schema_gradients:
            return self._schema_gradients[key]
        snap = self._snap
        if kind is ElementKind.CLASS:
            left, right = self._sides[self.graph.class_offset + index]
            left_members = self.model.kg1.entities_of_class(left)
            right_members = self.model.kg2.entities_of_class(right)
            weight_sum_1 = float(np.sum(snap.weights_1[left_members])) if left_members else 0.0
            weight_sum_2 = float(np.sum(snap.weights_2[right_members])) if right_members else 0.0
            means_1, means_2 = snap.mean_classes_1, snap.mean_classes_2
        else:
            left, right = self._sides[self.graph.relation_offset + index]
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
        gradient = None
        if weight_sum_1 >= 1e-9 and weight_sum_2 >= 1e-9:
            grad_a, grad_b = _cosine_gradient(self._map_entity.T @ means_1[left], means_2[right])
            gradient = (self._map_entity @ grad_a, grad_b, weight_sum_1, weight_sum_2)
        self._schema_gradients[key] = gradient
        return gradient

    def schema_power(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Eqs. 21–22 for entity id ``source``: ``(global pair ids, powers)``.

        Class pairs come first, in type-triple order; relation pairs follow in
        the order of the source's out-edges.
        """
        if not self.model.use_mean_embeddings:
            return _NO_IDS, _NO_VALUES
        graph, snap, min_power = self.graph, self._snap, self.config.min_power
        weights_1, weights_2 = snap.weights_1, snap.weights_2
        left, right = self._sides[source]
        powers: dict[int, float] = {}
        for index in graph.class_ids[graph.class_ptr[source] : graph.class_ptr[source + 1]].tolist():
            gradient = self._schema_gradient(ElementKind.CLASS, index)
            if gradient is None:
                continue
            mapped_a, grad_b, weight_sum_1, weight_sum_2 = gradient
            grad_left = (weights_1[left] / weight_sum_1) * mapped_a
            grad_right = (weights_2[right] / weight_sum_2) * grad_b
            power = float(np.sqrt(np.sum(grad_left**2) + np.sum(grad_right**2)))
            if power >= min_power:
                powers[graph.class_offset + index] = min(power, 1.0)
        for edge in range(self._out_ptr[source], self._out_ptr[source + 1]):
            _, relation, target = self._edges[edge]
            gradient = self._schema_gradient(ElementKind.RELATION, relation)
            if gradient is None:
                continue
            mapped_a, grad_b, weight_sum_1, weight_sum_2 = gradient
            target_left, target_right = self._sides[target]
            weight_left = min(weights_1[left], weights_1[target_left])
            weight_right = min(weights_2[right], weights_2[target_right])
            grad_left = (weight_left / weight_sum_1) * mapped_a
            grad_right = (weight_right / weight_sum_2) * grad_b
            power = float(np.sqrt(np.sum(grad_left**2) + np.sum(grad_right**2)))
            key = graph.relation_offset + relation
            if power >= min_power and power > powers.get(key, 0.0):
                powers[key] = min(power, 1.0)
        return _arrays(powers)

    # --------------------------------------------------------------- aggregates
    def reachable_power(self, source: int) -> PairValues:
        """``I(q' | q)`` for every pair ``q'`` the pair with id ``source`` can influence."""
        kind = self.graph.kind_of(source)
        if kind is ElementKind.CLASS:
            # Class pairs do not propagate inference power in the paper's model.
            return PairValues(_NO_IDS, _NO_VALUES)
        if kind is ElementKind.RELATION:
            return self.relation_to_entity_power(source)
        path_ids, path_powers = self._path_power(source)
        schema_ids, schema_powers = self.schema_power(source)
        return PairValues(
            np.concatenate([path_ids, schema_ids]),
            np.concatenate([path_powers, schema_powers]),
        )

    def power_from_labelled(self, labelled: Sequence[int]) -> PairValues:
        """``I(q' | L+) = max_{q ∈ L+} I(q' | q)`` for every reachable pair, in
        the order pairs are first reached."""
        combined: dict[int, float] = {}
        for source in labelled:
            reach = self.reachable_power(int(source))
            for target, value in zip(reach.ids.tolist(), reach.data.tolist()):
                if value > combined.get(target, 0.0):
                    combined[target] = value
        return PairValues(*_arrays(combined))

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
    inferred = estimator.inferred_pairs(labelled_matches).ids.tolist()
    if not inferred:
        return 0, None
    graph, sides = estimator.graph, estimator.graph.side_list
    correct = sum(
        1 for pair in inferred if tuple(sides[pair]) in gold.get(graph.kind_of(pair), set())
    )
    return len(inferred), correct / len(inferred)
