"""The KG's CSR indexes against the dict-of-lists adjacency they replaced.

``dict_adjacency`` and ``loop_pagerank`` are the previous implementations,
kept here as oracles: every accessor must return the same values in the same
order (alignment-graph edge ids, and with them selection ties and partition
splits, follow each KG's adjacency order), and PageRank must stay
byte-identical.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.datasets.world import WorldConfig, generate_world
from repro.kg.elements import INVERSE_SUFFIX, Triple
from repro.kg.graph import KnowledgeGraph
from repro.kg.statistics import compute_statistics, entity_pagerank


def dict_adjacency(kg: KnowledgeGraph) -> dict[str, dict[int, list]]:
    """The five indexes as the dict-of-lists loop over the triple arrays built them."""
    out_edges: dict[int, list[tuple[int, int]]] = defaultdict(list)
    in_edges: dict[int, list[tuple[int, int]]] = defaultdict(list)
    relation_triples: dict[int, list[int]] = defaultdict(list)
    for pos, (h, r, t) in enumerate(kg.triple_array):
        out_edges[int(h)].append((int(r), int(t)))
        in_edges[int(t)].append((int(r), int(h)))
        relation_triples[int(r)].append(pos)
    entity_classes: dict[int, list[int]] = defaultdict(list)
    class_entities: dict[int, list[int]] = defaultdict(list)
    for e, c in kg.type_array:
        entity_classes[int(e)].append(int(c))
        class_entities[int(c)].append(int(e))
    return {
        "out": out_edges,
        "in": in_edges,
        "relation": relation_triples,
        "classes": entity_classes,
        "members": class_entities,
    }


def loop_pagerank(kg: KnowledgeGraph, damping: float = 0.85, iterations: int = 50) -> np.ndarray:
    """PageRank by the per-edge Python loop over the dict-of-lists out-edges."""
    n = kg.num_entities
    if n == 0:
        return np.empty(0)
    out_edges = dict_adjacency(kg)["out"]
    scores = np.full(n, 1.0 / n)
    out_degree = np.array([max(len(out_edges.get(i, [])), 1) for i in range(n)], dtype=float)
    for _ in range(iterations):
        new_scores = np.full(n, (1.0 - damping) / n)
        for e in range(n):
            share = damping * scores[e] / out_degree[e]
            edges = out_edges.get(e, [])
            if not edges:
                new_scores += damping * scores[e] / n
                continue
            for _, t in edges:
                new_scores[t] += share
        scores = new_scores
    return scores


def name_tuple_inverse(kg: KnowledgeGraph) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Relations and triples of ``with_inverse_relations`` deduped on name tuples."""
    relations = list(kg.relations)
    rel_set = set(relations)
    triples = [t.as_tuple() for t in kg.triples]
    existing = set(triples)
    for t in kg.triples:
        if t.relation.endswith(INVERSE_SUFFIX):
            continue
        inv = t.relation + INVERSE_SUFFIX
        if inv not in rel_set:
            rel_set.add(inv)
            relations.append(inv)
        reverse = (t.tail, inv, t.head)
        if reverse not in existing:
            existing.add(reverse)
            triples.append(reverse)
    return relations, triples


def world_kg() -> KnowledgeGraph:
    config = WorldConfig(num_entities=150, num_classes=8, num_relations=10, mean_out_degree=2.0)
    return generate_world(config, seed=3).kg


def multi_edge_kg() -> KnowledgeGraph:
    """Two relations between the same head and tail, a self loop and a repeated triple."""
    return KnowledgeGraph.from_triples(
        "multi",
        triples=[
            ("a", "r", "b"),
            ("a", "s", "b"),
            ("b", "r", "a"),
            ("c", "s", "c"),
            ("a", "r", "b"),
            ("d", "r^-1", "a"),
        ],
        type_triples=[("a", "X"), ("a", "Y"), ("b", "X"), ("e", "Y")],
    )


KGS = {
    "world": world_kg,
    "world_inverse": lambda: world_kg().with_inverse_relations(),
    "multi_edge": multi_edge_kg,
    "multi_edge_inverse": lambda: multi_edge_kg().with_inverse_relations(),
    "empty": lambda: KnowledgeGraph(name="empty"),
}


@pytest.fixture(params=sorted(KGS), scope="module")
def kg(request) -> KnowledgeGraph:
    return KGS[request.param]()


class TestIndexParity:
    def test_edges_match_the_dict_oracle(self, kg):
        oracle = dict_adjacency(kg)
        for e in range(kg.num_entities):
            assert kg.out_edges(e) == oracle["out"].get(e, [])
            assert kg.in_edges(e) == oracle["in"].get(e, [])
            assert kg.entity_degree(e) == len(oracle["out"][e]) + len(oracle["in"][e])
            # same iteration order too: the ActiveEA baseline averages over it
            neighbors = {t for _, t in oracle["out"][e]} | {h for _, h in oracle["in"][e]}
            assert list(kg.neighbors(e)) == list(neighbors)
            relations = {r for r, _ in oracle["out"][e]}
            relations |= {r for r, _ in oracle["in"][e]}
            assert list(kg.relations_of_entity(e)) == list(relations)

    def test_schema_indexes_match_the_dict_oracle(self, kg):
        oracle = dict_adjacency(kg)
        for e in range(kg.num_entities):
            assert kg.classes_of(e) == oracle["classes"].get(e, [])
        for c in range(kg.num_classes):
            assert kg.entities_of_class(c) == oracle["members"].get(c, [])
        for r in range(kg.num_relations):
            rows = kg.triples_of_relation(r)
            expected = kg.triple_array[oracle["relation"].get(r, [])].reshape(-1, 3)
            assert rows.dtype == np.int64 and rows.shape == expected.shape
            assert np.array_equal(rows, expected)

    def test_ids_outside_the_vocabulary_read_empty(self, kg):
        for e in (-1, kg.num_entities):
            assert kg.out_edges(e) == [] and kg.in_edges(e) == []
            assert kg.neighbors(e) == set() and kg.relations_of_entity(e) == set()
            assert kg.entity_degree(e) == 0
            assert kg.classes_of(e) == []
        for c in (-1, kg.num_classes):
            assert kg.entities_of_class(c) == []
        for r in (-1, kg.num_relations):
            assert kg.triples_of_relation(r).shape == (0, 3)

    def test_values_are_python_ints(self, kg):
        for e in range(kg.num_entities):
            for edge in kg.out_edges(e) + kg.in_edges(e):
                assert type(edge) is tuple and all(type(x) is int for x in edge)
            assert all(type(x) is int for x in kg.neighbors(e) | kg.relations_of_entity(e))
            assert all(type(c) is int for c in kg.classes_of(e))
            assert type(kg.entity_degree(e)) is int


class TestAccessorsReturnCopies:
    def test_mutating_returned_values_leaves_the_kg_unchanged(self):
        kg, reference = world_kg(), world_kg()
        e = int(np.argmax([kg.entity_degree(i) for i in range(kg.num_entities)]))
        c = kg.classes_of(e)[0]
        r = int(kg.triple_array[0, 1])

        def read(graph):
            return (
                graph.out_edges(e), graph.in_edges(e), graph.entity_degree(e),
                graph.neighbors(e), graph.classes_of(e), graph.entities_of_class(c),
                graph.triples_of_relation(r).tolist(), graph.relations_of_entity(e),
            )

        assert read(kg) == read(reference)
        kg.out_edges(e).append((0, 0))
        kg.in_edges(e).clear()
        kg.neighbors(e).add(-5)
        kg.classes_of(e).clear()
        kg.entities_of_class(c).append(0)
        kg.triples_of_relation(r)[:] = -1
        kg.relations_of_entity(e).clear()
        assert read(kg) == read(reference)

    def test_index_arrays_are_read_only(self):
        kg = world_kg()
        for name in ("out", "in", "relation", "type", "member"):
            for part in ("ptr", "order"):
                with pytest.raises(ValueError):
                    getattr(kg, f"{name}_{part}")[0] = 1


class TestArrayReaders:
    def test_pagerank_is_byte_identical_to_the_edge_loop(self):
        kg = world_kg()
        assert any(not kg.out_edges(e) for e in range(kg.num_entities)), "needs dangling nodes"
        assert entity_pagerank(kg).tobytes() == loop_pagerank(kg).tobytes()
        augmented = kg.with_inverse_relations()
        assert entity_pagerank(augmented).tobytes() == loop_pagerank(augmented).tobytes()

    def test_pagerank_counts_repeated_tails(self):
        kg = multi_edge_kg()
        # dangling entities first, then last, so repeated tails fall on both sides of them
        for entities in (["z"] + kg.entities[::-1], kg.entities + ["z"]):
            graph = KnowledgeGraph(
                "multi", entities, kg.relations, kg.classes, kg.triples, kg.type_triples
            )
            assert entity_pagerank(graph).tobytes() == loop_pagerank(graph).tobytes()

    def test_statistics_match_the_accessors(self):
        kg = world_kg()
        degrees = [kg.entity_degree(e) for e in range(kg.num_entities)]
        classes = [len(kg.classes_of(e)) for e in range(kg.num_entities)]
        stats = compute_statistics(kg)
        assert stats.mean_entity_degree == float(np.mean(degrees))
        assert stats.max_entity_degree == max(degrees)
        assert stats.mean_classes_per_entity == float(np.mean(classes))
        empty = compute_statistics(KnowledgeGraph(name="empty"))
        assert (empty.mean_entity_degree, empty.max_entity_degree) == (0.0, 0)


class TestInverseRelations:
    @pytest.mark.parametrize(
        "build",
        [
            world_kg,
            multi_edge_kg,
            lambda: KnowledgeGraph.from_triples(
                "mixed", [("a", "q^-1", "c"), ("c", "q", "a"), ("b", "s", "a"), ("a", "s", "b")]
            ),
        ],
    )
    def test_matches_name_tuple_dedupe(self, build):
        kg = build()
        relations, triples = name_tuple_inverse(kg)
        once = kg.with_inverse_relations()
        for augmented in (once, once.with_inverse_relations()):  # idempotent
            assert augmented.relations == relations
            assert [t.as_tuple() for t in augmented.triples] == triples
            assert all(isinstance(t, Triple) for t in augmented.triples)
