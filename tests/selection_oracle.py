"""Dict-based reference for the selection layer, kept for parity tests only.

This is the selection layer as it stood before it moved to integer ids and
NumPy arrays: an alignment graph of ``AlignmentEdge`` objects and per-pair
dicts, an estimator that walks them, Algorithm 2's refinement loop over
``ElementPair`` sets, a greedy loop that rescans every candidate per pick, and
the five non-inference strategies (random, degree, PageRank, uncertainty,
ActiveEA) ranking a list of unlabelled ``ElementPair`` objects by a
``{pair: probability}`` dict.
Edges are built with sources in sorted pair order, as the array graph
numbers them (it once walked the pool set in its iteration order).
The estimator scores each edge by the displacement the source label implies,
``||A_ent(t₁ − h₁) − (t₂ − h₂)||``, one edge at a time from per-entity dicts,
takes an entity pair's path power as the cheapest of every walk of at most
``μ`` edges, enumerated by brute force and listed by ascending pair, and a
relation pair gives each distinct target of its edges power 1.0 (Eq. 20).
The one deliberate difference from the historical loops is the
tie-break among equal gains in :func:`greedy_select`: the lowest rank
(probability descending, then input order) wins, instead of whichever pair a
``set`` happened to yield first.  ``tests/test_selection_parity.py`` asserts
that the array-native, pool-id path in ``src/`` reproduces this module's
edges, edge powers, partition labels, batches and RNG state exactly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.active.partition import PartitionSelectionConfig
from repro.active.selection import NUM_SAMPLES, GreedySelectionConfig
from repro.inference.pairs import ElementPair, class_pair, entity_pair, relation_pair
from repro.inference.power import MIN_POWER, InferencePowerConfig, _cosine_gradient
from repro.kg.elements import ElementKind
from repro.kg.statistics import entity_pagerank
from repro.utils.rng import ensure_rng

BASE_GAIN = 1e-3


@dataclass(frozen=True)
class AlignmentEdge:
    source: ElementPair
    relation: ElementPair
    target: ElementPair


@dataclass
class AlignmentGraph:
    entity_pairs: list = field(default_factory=list)
    relation_pairs: list = field(default_factory=list)
    class_pairs: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    out_edges: dict = field(default_factory=lambda: defaultdict(list))
    edges_by_relation_pair: dict = field(default_factory=lambda: defaultdict(list))
    classes_of_entity_pair: dict = field(default_factory=lambda: defaultdict(list))


def build_alignment_graph(kg1, kg2, entity_pool, relation_pool=None, class_pool=None):
    if relation_pool is None:
        relation_pool = {
            (r1, r2) for r1 in range(kg1.num_relations) for r2 in range(kg2.num_relations)
        }
    if class_pool is None:
        class_pool = {(c1, c2) for c1 in range(kg1.num_classes) for c2 in range(kg2.num_classes)}
    graph = AlignmentGraph(
        entity_pairs=[entity_pair(a, b) for a, b in sorted(entity_pool)],
        relation_pairs=[relation_pair(a, b) for a, b in sorted(relation_pool)],
        class_pairs=[class_pair(a, b) for a, b in sorted(class_pool)],
    )
    entity_pool_set = set(entity_pool)
    relation_pool_set = set(relation_pool)
    kg2_out = {e: kg2.out_edges(e) for e in range(kg2.num_entities)}
    for left, right in sorted(entity_pool_set):
        source = entity_pair(left, right)
        left_edges = kg1.out_edges(left)
        right_edges = kg2_out.get(right, [])
        if not left_edges or not right_edges:
            continue
        for r1, t1 in left_edges:
            for r2, t2 in right_edges:
                if (r1, r2) not in relation_pool_set:
                    continue
                if (t1, t2) not in entity_pool_set:
                    continue
                edge = AlignmentEdge(source, relation_pair(r1, r2), entity_pair(t1, t2))
                graph.edges.append(edge)
                graph.out_edges[source].append(edge)
                graph.edges_by_relation_pair[edge.relation].append(edge)
    class_pool_set = set(class_pool)
    classes_of_1 = {e: kg1.classes_of(e) for e in range(kg1.num_entities)}
    classes_of_2 = {e: kg2.classes_of(e) for e in range(kg2.num_entities)}
    for left, right in sorted(entity_pool_set):
        e_pair = entity_pair(left, right)
        for c1 in classes_of_1.get(left, []):
            for c2 in classes_of_2.get(right, []):
                if (c1, c2) in class_pool_set:
                    graph.classes_of_entity_pair[e_pair].append(class_pair(c1, c2))
    return graph


class InferencePowerEstimator:
    def __init__(self, model, graph, config=None) -> None:
        self.model = model
        self.graph = graph
        self.config = config or InferencePowerConfig()
        self._snap = model.similarity.snapshot
        self._map_entity = model.map_entity.data
        mapped_1 = self._snap.entity_matrix_1 @ self._map_entity
        self._mapped_1 = dict(enumerate(mapped_1))
        self._entities_2 = dict(enumerate(self._snap.entity_matrix_2))
        self._edge_power_cache = {}
        self._source_power_cache = {}

    def edge_power(self, edge):
        key = (edge.source, edge.relation, edge.target)
        if key not in self._edge_power_cache:
            head, tail = edge.source, edge.target
            displacement = (self._mapped_1[tail.left] - self._mapped_1[head.left]) - (
                self._entities_2[tail.right] - self._entities_2[head.right]
            )
            cost = float(np.sqrt(np.sum(displacement * displacement)))
            self._edge_power_cache[key] = 1.0 / (1.0 + cost)
        return self._edge_power_cache[key]

    def entity_path_power(self, source):
        """Every walk of at most ``max_hops`` edges, enumerated: the cheapest
        per target (costs ``1/power − 1`` added in walk order), by ascending
        pair."""
        if source in self._source_power_cache:
            return self._source_power_cache[source]
        best_cost = {}
        walks = [(source, 0.0)]
        for _ in range(self.config.max_hops):
            walks = [
                (edge.target, cost + (1.0 / self.edge_power(edge) - 1.0))
                for node, cost in walks
                for edge in self.graph.out_edges.get(node, [])
            ]
            for node, cost in walks:
                best_cost[node] = min(cost, best_cost.get(node, float("inf")))
        powers = {
            node: 1.0 / (1.0 + best_cost[node])
            for node in sorted(best_cost)
            if node != source and 1.0 / (1.0 + best_cost[node]) >= MIN_POWER
        }
        self._source_power_cache[source] = powers
        return powers

    def relation_to_entity_power(self, source):
        powers = {}
        for edge in self.graph.edges_by_relation_pair.get(source, []):
            powers.setdefault(edge.target, 1.0)
        return powers

    def entity_to_class_power(self, source):
        powers = {}
        if not self.model.use_mean_embeddings:
            return powers
        for c_pair in self.graph.classes_of_entity_pair.get(source, []):
            left_members = self.model.kg1.entities_of_class(c_pair.left)
            right_members = self.model.kg2.entities_of_class(c_pair.right)
            weight_sum_1 = float(np.sum(self._snap.weights_1[left_members])) if left_members else 0.0
            weight_sum_2 = float(np.sum(self._snap.weights_2[right_members])) if right_members else 0.0
            if weight_sum_1 < 1e-9 or weight_sum_2 < 1e-9:
                continue
            a = self._map_entity.T @ self._snap.mean_classes_1[c_pair.left]
            b = self._snap.mean_classes_2[c_pair.right]
            grad_a, grad_b = _cosine_gradient(a, b)
            grad_left = (self._snap.weights_1[source.left] / weight_sum_1) * (self._map_entity @ grad_a)
            grad_right = (self._snap.weights_2[source.right] / weight_sum_2) * grad_b
            power = float(np.sqrt(np.sum(grad_left**2) + np.sum(grad_right**2)))
            if power >= MIN_POWER:
                powers[c_pair] = min(power, 1.0)
        return powers

    def entity_to_relation_power(self, source):
        powers = {}
        if not self.model.use_mean_embeddings:
            return powers
        snap = self._snap
        for edge in self.graph.out_edges.get(source, []):
            r_pair = edge.relation
            triples_1 = self.model.kg1.triples_of_relation(r_pair.left)
            triples_2 = self.model.kg2.triples_of_relation(r_pair.right)
            if triples_1.size == 0 or triples_2.size == 0:
                continue
            weight_sum_1 = float(
                np.sum(np.minimum(snap.weights_1[triples_1[:, 0]], snap.weights_1[triples_1[:, 2]]))
            )
            weight_sum_2 = float(
                np.sum(np.minimum(snap.weights_2[triples_2[:, 0]], snap.weights_2[triples_2[:, 2]]))
            )
            if weight_sum_1 < 1e-9 or weight_sum_2 < 1e-9:
                continue
            a = self._map_entity.T @ snap.mean_relations_1[r_pair.left]
            b = snap.mean_relations_2[r_pair.right]
            grad_a, grad_b = _cosine_gradient(a, b)
            weight_left = min(snap.weights_1[edge.source.left], snap.weights_1[edge.target.left])
            weight_right = min(snap.weights_2[edge.source.right], snap.weights_2[edge.target.right])
            grad_left = (weight_left / weight_sum_1) * (self._map_entity @ grad_a)
            grad_right = (weight_right / weight_sum_2) * grad_b
            power = float(np.sqrt(np.sum(grad_left**2) + np.sum(grad_right**2)))
            if power >= MIN_POWER:
                if power > powers.get(r_pair, 0.0):
                    powers[r_pair] = min(power, 1.0)
        return powers

    def reachable_power(self, source):
        if source.kind is ElementKind.ENTITY:
            powers = dict(self.entity_path_power(source))
            for target, value in self.entity_to_class_power(source).items():
                powers[target] = max(powers.get(target, 0.0), value)
            for target, value in self.entity_to_relation_power(source).items():
                powers[target] = max(powers.get(target, 0.0), value)
            return powers
        if source.kind is ElementKind.RELATION:
            return self.relation_to_entity_power(source)
        return {}


def greedy_select(candidates, probabilities, reach, batch_size, config=None, rng=None):
    config = config or GreedySelectionConfig()
    rng = ensure_rng(rng)
    if not candidates:
        return []
    ranked = sorted(candidates, key=lambda q: -probabilities.get(q, 0.0))
    if config.candidate_limit is not None and len(ranked) > config.candidate_limit:
        ranked = ranked[: config.candidate_limit]
    reachable = {}
    for candidate in ranked:
        reachable[candidate] = {
            target: value
            for target, value in reach(candidate).items()
            if value > config.power_threshold
        }
    current_power = [dict() for _ in range(NUM_SAMPLES)]
    selected = []
    remaining = set(ranked)

    def gain(candidate):
        probability = probabilities.get(candidate, 0.0)
        powers = reachable[candidate]
        if not powers:
            return probability * BASE_GAIN
        total = 0.0
        for sample in current_power:
            for target, value in powers.items():
                best = sample.get(target, 0.0)
                if value > best:
                    total += value - best
        return probability * (total / NUM_SAMPLES + BASE_GAIN)

    for _ in range(min(batch_size, len(ranked))):
        best_candidate = None
        best_gain = -1.0
        # the one change from the historical loop: scan in rank order, so the
        # lowest rank wins a tie instead of the set's hash order
        for candidate in ranked:
            if candidate not in remaining:
                continue
            g = gain(candidate)
            if g > best_gain:
                best_gain = g
                best_candidate = candidate
        if best_candidate is None:
            break
        selected.append(best_candidate)
        remaining.discard(best_candidate)
        probability = probabilities.get(best_candidate, 0.0)
        for sample in current_power:
            if rng.random() < probability:
                for target, value in reachable[best_candidate].items():
                    if value > sample.get(target, 0.0):
                        sample[target] = value
    return selected


def partition_pool(graph, estimator, config=None):
    config = config or PartitionSelectionConfig()
    edge_power = {}
    for edge in graph.edges:
        power = estimator.edge_power(edge)
        key = (edge.source, edge.target)
        if power > edge_power.get(key, 0.0):
            edge_power[key] = power
    partition_of = {pair: 0 for pair in graph.entity_pairs}
    num_partitions = 1
    changed = True
    while changed and num_partitions < config.max_partitions:
        changed = False
        members = defaultdict(list)
        for pair, pid in partition_of.items():
            members[pid].append(pair)
        for pid, pairs in list(members.items()):
            if len(pairs) <= 1:
                continue
            pair_set = set(pairs)
            worst_ratio = 1.0
            for pair in pairs:
                inner = outer = 0.0
                for edge in graph.out_edges.get(pair, []):
                    power = edge_power.get((edge.source, edge.target), 0.0)
                    if edge.target in pair_set:
                        inner += power
                    else:
                        outer += power
                total = inner + outer
                if total > 0:
                    worst_ratio = min(worst_ratio, outer / total)
            if worst_ratio >= config.rho:
                continue
            relation_power = defaultdict(float)
            for pair in pairs:
                for edge in graph.out_edges.get(pair, []):
                    if edge.target in pair_set:
                        relation_power[edge.relation] += edge_power.get(
                            (edge.source, edge.target), 0.0
                        )
            if not relation_power:
                continue
            split_relation = max(relation_power.items(), key=lambda item: item[1])[0]
            moved = {
                edge.source
                for pair in pairs
                for edge in graph.out_edges.get(pair, [])
                if edge.relation == split_relation and edge.target in pair_set
            }
            if not moved or len(moved) == len(pairs):
                continue
            for pair in moved:
                partition_of[pair] = num_partitions
            num_partitions += 1
            changed = True
            if num_partitions >= config.max_partitions:
                break
    return partition_of


def partition_select(
    candidates, probabilities, graph, estimator, batch_size, selection_config=None,
    partition_config=None, rng=None,
):
    selection_config = selection_config or GreedySelectionConfig()
    partition_config = partition_config or PartitionSelectionConfig()
    partition_of = partition_pool(graph, estimator, partition_config)
    quotient = defaultdict(dict)
    for edge in graph.edges:
        src = partition_of.get(edge.source)
        dst = partition_of.get(edge.target)
        if src is None or dst is None or src == dst:
            continue
        power = estimator.edge_power(edge)
        if power > quotient[src].get(dst, 0.0):
            quotient[src][dst] = power
    members = defaultdict(list)
    for pair, pid in partition_of.items():
        members[pid].append(pair)

    def estimated_reach(candidate):
        if candidate.kind is not ElementKind.ENTITY:
            return estimator.reachable_power(candidate)
        partition_power = {}
        for edge in graph.out_edges.get(candidate, []):
            pid = partition_of.get(edge.target)
            if pid is None:
                continue
            power = estimator.edge_power(edge)
            if power > partition_power.get(pid, 0.0):
                partition_power[pid] = power
        frontier = dict(partition_power)
        for _ in range(estimator.config.max_hops - 1):
            next_frontier = {}
            for pid, power in frontier.items():
                for neighbor, edge_power in quotient.get(pid, {}).items():
                    value = power * edge_power
                    if value > partition_power.get(neighbor, 0.0) and value > MIN_POWER:
                        partition_power[neighbor] = value
                        next_frontier[neighbor] = value
            if not next_frontier:
                break
            frontier = next_frontier
        reach = {}
        for pid, power in partition_power.items():
            for member in members.get(pid, []):
                if member != candidate:
                    reach[member] = power
        for target, value in estimator.entity_to_class_power(candidate).items():
            reach[target] = max(reach.get(target, 0.0), value)
        for target, value in estimator.entity_to_relation_power(candidate).items():
            reach[target] = max(reach.get(target, 0.0), value)
        return reach

    return greedy_select(
        candidates, probabilities, estimated_reach, batch_size, selection_config, rng
    )


# ------------------------------------------------------------------ strategies
@dataclass
class SelectionState:
    pool: object
    unlabelled: list
    probabilities: dict
    model: object
    rng: np.random.Generator


def _top_by_score(pairs, scores, batch_size):
    order = np.argsort(-np.asarray(scores, dtype=float))
    return [pairs[int(i)] for i in order[:batch_size]]


def random_select(state, batch_size):
    if not state.unlabelled:
        return []
    count = min(batch_size, len(state.unlabelled))
    chosen = state.rng.choice(len(state.unlabelled), size=count, replace=False)
    return [state.unlabelled[int(i)] for i in chosen]


def degree_select(state, batch_size):
    kg1, kg2 = state.model.kg1, state.model.kg2
    scores = []
    for pair in state.unlabelled:
        if pair.kind is ElementKind.ENTITY:
            score = kg1.entity_degree(pair.left) + kg2.entity_degree(pair.right)
        elif pair.kind is ElementKind.RELATION:
            score = len(kg1.triples_of_relation(pair.left)) + len(kg2.triples_of_relation(pair.right))
        else:
            score = len(kg1.entities_of_class(pair.left)) + len(kg2.entities_of_class(pair.right))
        scores.append(float(score))
    return _top_by_score(state.unlabelled, scores, batch_size)


def pagerank_select(state, batch_size):
    pr1, pr2 = entity_pagerank(state.model.kg1), entity_pagerank(state.model.kg2)
    kg1, kg2 = state.model.kg1, state.model.kg2
    scores = []
    for pair in state.unlabelled:
        if pair.kind is ElementKind.ENTITY:
            score = pr1[pair.left] + pr2[pair.right]
        elif pair.kind is ElementKind.RELATION:
            score = (
                len(kg1.triples_of_relation(pair.left)) + len(kg2.triples_of_relation(pair.right))
            ) / max(kg1.num_triples + kg2.num_triples, 1)
        else:
            score = (
                len(kg1.entities_of_class(pair.left)) + len(kg2.entities_of_class(pair.right))
            ) / max(kg1.num_entities + kg2.num_entities, 1)
        scores.append(float(score))
    return _top_by_score(state.unlabelled, scores, batch_size)


def _entropies(state):
    p = np.fromiter(
        (state.probabilities.get(pair, 0.0) for pair in state.unlabelled),
        dtype=float,
        count=len(state.unlabelled),
    )
    p = np.clip(p, 1e-9, 1.0 - 1e-9)
    return -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)


def uncertainty_select(state, batch_size):
    return _top_by_score(state.unlabelled, _entropies(state), batch_size)


def activeea_select(state, batch_size, neighbour_weight=0.5):
    kg1 = state.model.kg1
    entropy = dict(zip(state.unlabelled, _entropies(state).tolist()))
    by_left = {}
    for pair in state.unlabelled:
        if pair.kind is ElementKind.ENTITY:
            by_left.setdefault(pair.left, []).append(pair)
    scores = []
    for pair in state.unlabelled:
        score = entropy[pair]
        if pair.kind is ElementKind.ENTITY:
            neighbour_pairs = [q for n in kg1.neighbors(pair.left) for q in by_left.get(n, [])]
            if neighbour_pairs:
                score += neighbour_weight * float(np.mean([entropy[q] for q in neighbour_pairs]))
        scores.append(score)
    return _top_by_score(state.unlabelled, scores, batch_size)


STRATEGIES = {
    "random": random_select,
    "degree": degree_select,
    "pagerank": pagerank_select,
    "uncertainty": uncertainty_select,
    "activeea": activeea_select,
}
