"""Tests for inference power measurement and batch active learning."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import DAAKG
from repro.active import (
    ActiveLearningConfig,
    ElementPairPool,
    GreedySelectionConfig,
    Oracle,
    PartitionSelectionConfig,
    PoolConfig,
    RandomStrategy,
    build_pool,
    create_strategy,
    greedy_select,
    partition_pool,
    partition_select,
    STRATEGY_REGISTRY,
)
from repro.active.selection import expected_overall_power
from repro.active.strategies import DAAKGStrategy, UncertaintyStrategy
from repro.inference import (
    ElementPair,
    InferencePowerConfig,
    InferencePowerEstimator,
    build_alignment_graph,
)
from repro.inference import alignment_graph
from repro.inference.pairs import class_pair, entity_pair, relation_pair
from repro.inference.power import inference_accuracy
from repro.kg.elements import ElementKind


@pytest.fixture(scope="module")
def pipeline_checkpoint(fitted_pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "fitted"
    fitted_pipeline.save(path)
    return path


@pytest.fixture
def pipeline_copy(pipeline_checkpoint):
    """A fresh copy of the fitted session pipeline that a loop may fine-tune."""
    return DAAKG.load(pipeline_checkpoint)


@pytest.fixture(scope="module")
def inference_setup(fitted_pipeline):
    pipeline = fitted_pipeline
    pool = build_pool(pipeline.model, PoolConfig(top_n=15))
    graph, estimator = pipeline.build_inference_estimator(pool)
    return pipeline, pool, graph, estimator


class TestElementPair:
    def test_hashable_and_ordered(self):
        a, b = entity_pair(1, 2), entity_pair(1, 3)
        assert a < b
        assert len({a, b, entity_pair(1, 2)}) == 2

    def test_kind_constructors(self):
        assert relation_pair(0, 1).kind is ElementKind.RELATION
        assert class_pair(0, 1).kind is ElementKind.CLASS


class TestAlignmentGraph:
    def test_build_graph_from_tiny_pair(self, tiny_pair):
        entity_pool = {tuple(row) for row in tiny_pair.entity_match_ids().tolist()}
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, entity_pool)
        assert len(graph.entity_pairs) == len(entity_pool)
        assert graph.num_edges() > 0
        # every edge endpoint is in the pool
        for edge in range(graph.num_edges()):
            source, _, target = graph.edge_pairs(edge)
            assert (source.left, source.right) in entity_pool
            assert (target.left, target.right) in entity_pool

    def test_class_membership_links(self, tiny_pair):
        entity_pool = {tuple(row) for row in tiny_pair.entity_match_ids().tolist()}
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, entity_pool)
        assert len(graph.class_ids) > 0
        assert graph.class_ptr[-1] == len(graph.class_ids)

    def test_neighbors_symmetric_closure(self, tiny_pair):
        entity_pool = {tuple(row) for row in tiny_pair.entity_match_ids().tolist()}
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, entity_pool)
        # the out-edge index lists every edge exactly once, under its source
        assert sorted(graph.out_edges.tolist()) == list(range(graph.num_edges()))
        for edge, (source, _, _) in enumerate(graph.edges[:10].tolist()):
            assert edge in graph.out_edges[graph.out_ptr[source] : graph.out_ptr[source + 1]]

    def test_empty_pool_gives_empty_graph(self, tiny_pair):
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, set())
        assert graph.num_edges() == 0

    def test_estimator_keeps_an_empty_pool(self, fitted_pipeline):
        # an empty pool is falsy (it has a length) but must not be replaced
        # by a freshly built one
        graph, _ = fitted_pipeline.build_inference_estimator(ElementPairPool())
        assert len(graph.entity_pairs) == 0
        assert graph.num_edges() == 0

    def test_list_views_match_arrays(self, inference_setup):
        _, _, graph, estimator = inference_setup
        assert graph.edge_list == graph.edges.tolist()
        assert graph.target_list == graph.edges[:, 2].tolist()
        assert graph.out_ptr_list == graph.out_ptr.tolist()
        assert graph.out_edge_list == graph.out_edges.tolist()
        assert graph.entity_sides == [(p.left, p.right) for p in graph.entity_pairs]
        # a second estimator over the same graph shares the views
        other = InferencePowerEstimator(estimator.model, graph, estimator.config)
        assert other._edges is estimator._edges is graph.edge_list


class TestInferencePower:
    def test_edge_power_in_unit_interval(self, inference_setup):
        _, _, graph, estimator = inference_setup
        assert graph.num_edges() > 0
        for edge in range(20):
            power = estimator.edge_power(edge)
            assert 0.0 < power <= 1.0

    def test_relation_pair_gives_each_target_full_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        ptr = graph.relation_ptr
        relation = int(np.argmax(np.diff(ptr)))
        targets = graph.edges[graph.relation_edges[ptr[relation] : ptr[relation + 1]], 2].tolist()
        assert len(set(targets)) > 1
        powers = estimator.relation_to_entity_power(graph.relation_pairs[relation])
        assert powers.ids.tolist() == list(dict.fromkeys(targets))
        assert powers.data.tolist() == [1.0] * len(powers)

    def test_exact_fits_reduce_displacement_to_relation_difference(self, inference_setup):
        """With ``t = h + r`` on both sides, ``disp = ||A·r₁ − r₂||``."""
        pipeline, _, graph, _ = inference_setup
        snap = pipeline.model.similarity.snapshot
        entities_1, entities_2 = snap.entity_matrix_1.copy(), snap.entity_matrix_2.copy()
        sides = graph.entity_sides
        edge = next(
            edge
            for edge, (h, _, t) in enumerate(graph.edge_list)
            if sides[h][0] != sides[t][0] and sides[h][1] != sides[t][1]
        )
        source, relation, target = graph.edge_list[edge]
        (h1, h2), (t1, t2) = sides[source], sides[target]
        r1, r2 = graph.relation_pairs[relation].left, graph.relation_pairs[relation].right
        relation_1, relation_2 = snap.relation_matrix_1[r1], snap.relation_matrix_2[r2]
        entities_1[t1] = entities_1[h1] + relation_1
        entities_2[t2] = entities_2[h2] + relation_2
        mapping = pipeline.model.map_entity.data
        model = SimpleNamespace(
            similarity=SimpleNamespace(
                snapshot=SimpleNamespace(entity_matrix_1=entities_1, entity_matrix_2=entities_2)
            ),
            map_entity=SimpleNamespace(data=mapping),
        )
        estimator = InferencePowerEstimator(model, graph, pipeline.config.inference)
        expected = 1.0 / (1.0 + np.linalg.norm(relation_1 @ mapping - relation_2))
        assert estimator.edge_power(edge) == pytest.approx(expected, rel=1e-9)

    def test_path_power_reaches_neighbors(self, inference_setup):
        _, _, graph, estimator = inference_setup
        source = graph.entity_pairs[int(graph.edges[0, 0])]
        powers = estimator.entity_path_power(source)
        assert powers
        assert all(0.0 < value <= 1.0 for value in powers.values())

    def test_reachable_power_entity_includes_schema_pairs(self, inference_setup):
        _, _, graph, estimator = inference_setup
        source = graph.entity_pairs[int(graph.edges[0, 0])]
        reach = estimator.reachable_power(source)
        kinds = {pair.kind for pair in reach}
        assert ElementKind.ENTITY in kinds

    def test_relation_pair_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        relation_pairs_with_edges = [
            p for i, p in enumerate(graph.relation_pairs) if graph.relation_ptr[i + 1] > graph.relation_ptr[i]
        ]
        assert relation_pairs_with_edges
        powers = estimator.relation_to_entity_power(relation_pairs_with_edges[0])
        assert all(value <= 1.0 for value in powers.values())

    def test_class_pair_has_no_outgoing_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        assert estimator.reachable_power(graph.class_pairs[0]) == {}

    def test_overall_power_is_monotone_in_labels(self, inference_setup):
        pipeline, _, graph, estimator = inference_setup
        labelled = [
            ElementPair(ElementKind.ENTITY, left, right)
            for left, right in pipeline.trainer.labels.matches[ElementKind.ENTITY][:10]
        ]
        assert estimator.overall_power(labelled[:2]) <= estimator.overall_power(labelled) + 1e-9

    def test_inference_accuracy_bounds(self, inference_setup):
        pipeline, _, _, estimator = inference_setup
        labelled = [
            ElementPair(ElementKind.ENTITY, left, right)
            for left, right in pipeline.trainer.labels.matches[ElementKind.ENTITY]
        ]
        gold = {
            ElementKind.ENTITY: {tuple(r) for r in pipeline.pair.entity_match_ids().tolist()},
            ElementKind.RELATION: {tuple(r) for r in pipeline.pair.relation_match_ids().tolist()},
            ElementKind.CLASS: {tuple(r) for r in pipeline.pair.class_match_ids().tolist()},
        }
        inferred, precision = inference_accuracy(estimator, labelled, gold)
        assert inferred == len(estimator.inferred_pairs(labelled))
        if inferred:
            assert 0.0 <= precision <= 1.0
        else:
            assert precision is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InferencePowerConfig(max_hops=0)
        with pytest.raises(ValueError):
            InferencePowerConfig(power_threshold=2.0)


class TestPool:
    def test_pool_contains_all_schema_pairs(self, inference_setup):
        pipeline, pool, _, _ = inference_setup
        assert len(pool.relation_pairs) == pipeline.kg1.num_relations * pipeline.kg2.num_relations
        assert len(pool.class_pairs) == pipeline.kg1.num_classes * pipeline.kg2.num_classes

    def test_pool_recall_monotone_in_n(self, fitted_pipeline):
        gold = {
            (fitted_pipeline.kg1.entity_id(a), fitted_pipeline.kg2.entity_id(b))
            for a, b in fitted_pipeline.pair.entity_alignment.pairs
        }
        small = build_pool(fitted_pipeline.model, PoolConfig(top_n=5)).recall_of_matches(gold)
        large = build_pool(fitted_pipeline.model, PoolConfig(top_n=40)).recall_of_matches(gold)
        assert large >= small

    def test_pool_membership_and_len(self, inference_setup):
        _, pool, _, _ = inference_setup
        assert len(pool) == len(pool.all_pairs)
        assert pool.entity_pairs[0] in pool

    def test_pool_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(top_n=0)


class TestOracle:
    def test_oracle_answers_from_gold(self, tiny_pair):
        oracle = Oracle(tiny_pair)
        gold = tiny_pair.entity_match_ids()[0]
        assert oracle.label(entity_pair(int(gold[0]), int(gold[1])))
        assert not oracle.label(entity_pair(int(gold[0]), (int(gold[1]) + 1) % tiny_pair.kg2.num_entities))
        assert oracle.questions_asked == 2

    def test_label_batch_preserves_order(self, tiny_pair):
        oracle = Oracle(tiny_pair)
        pairs = [entity_pair(0, 0), entity_pair(0, 1)]
        answers = oracle.label_batch(pairs)
        assert [pair for pair, _ in answers] == pairs


class TestSelection:
    def test_greedy_select_batch_size_and_uniqueness(self):
        candidates = [entity_pair(i, i) for i in range(20)]
        probabilities = {pair: 0.5 for pair in candidates}
        def reach(q):
            return {entity_pair(q.left + 100, q.right + 100): 0.9}
        batch = greedy_select(candidates, probabilities, reach,
                              GreedySelectionConfig(batch_size=5), rng=0)
        assert len(batch) == 5
        assert len(set(batch)) == 5

    def test_greedy_prefers_high_probability_high_power(self):
        strong = entity_pair(0, 0)
        weak = entity_pair(1, 1)
        probabilities = {strong: 0.9, weak: 0.1}
        reach = {
            strong: {entity_pair(10, 10): 0.95, entity_pair(11, 11): 0.95},
            weak: {entity_pair(12, 12): 0.85},
        }
        batch = greedy_select([weak, strong], probabilities, lambda q: reach[q],
                              GreedySelectionConfig(batch_size=1), rng=0)
        assert batch == [strong]

    def test_greedy_avoids_redundant_coverage(self):
        a, b, c = entity_pair(0, 0), entity_pair(1, 1), entity_pair(2, 2)
        shared_target = entity_pair(10, 10)
        other_target = entity_pair(20, 20)
        probabilities = {a: 0.9, b: 0.9, c: 0.9}
        reach = {a: {shared_target: 0.95}, b: {shared_target: 0.95}, c: {other_target: 0.9}}
        batch = greedy_select([a, b, c], probabilities, lambda q: reach[q],
                              GreedySelectionConfig(batch_size=2, num_samples=32), rng=0)
        assert c in batch

    def test_gain_adds_terms_one_at_a_time(self):
        # A's gain is the left-to-right sum of its powers, which equals B's
        # single power exactly, so A wins the tie on rank.  A pairwise sum of
        # A's powers comes out smaller and would hand the pick to B.
        powers = np.random.default_rng(2).uniform(0.001, 0.05, 20).tolist()
        in_order = 0.0
        for value in powers:
            in_order += value
        assert float(np.sum(powers)) < in_order
        a, b = entity_pair(0, 0), entity_pair(1, 1)
        reach = {
            a: {entity_pair(100 + i, 100 + i): value for i, value in enumerate(powers)},
            b: {entity_pair(99, 99): in_order},
        }
        batch = greedy_select([a, b], {a: 0.5, b: 0.5}, lambda q: reach[q],
                              GreedySelectionConfig(batch_size=1, num_samples=1,
                                                    power_threshold=0.0), rng=0)
        assert batch == [a]

    def test_expected_overall_power_nonnegative(self):
        pairs = [entity_pair(0, 0)]
        value = expected_overall_power(pairs, {pairs[0]: 0.8},
                                       lambda q: {entity_pair(5, 5): 0.9}, power_threshold=0.5)
        assert value >= 0.0

    def test_empty_candidates(self):
        assert greedy_select([], {}, lambda q: {}, GreedySelectionConfig(batch_size=3)) == []

    def test_selection_config_validation(self):
        with pytest.raises(ValueError):
            GreedySelectionConfig(batch_size=0)


class TestPartitioning:
    def test_partition_pool_assigns_every_entity_pair(self, inference_setup):
        _, _, graph, estimator = inference_setup
        partition_of = partition_pool(graph, estimator, PartitionSelectionConfig(rho=0.9))
        assert set(partition_of) == set(graph.entity_pairs)

    def test_partition_select_returns_batch(self, inference_setup):
        pipeline, pool, graph, estimator = inference_setup
        candidates = pool.all_pairs[:200]
        probabilities = {pair: 0.5 for pair in candidates}
        batch = partition_select(
            candidates, probabilities, graph, estimator,
            selection_config=GreedySelectionConfig(batch_size=5, candidate_limit=100),
            partition_config=PartitionSelectionConfig(rho=0.9),
            rng=0,
        )
        assert 0 < len(batch) <= 5

    def test_partition_config_validation(self):
        with pytest.raises(ValueError):
            PartitionSelectionConfig(rho=0.0)


class TestStrategies:
    def test_registry_contains_paper_strategies(self):
        assert set(STRATEGY_REGISTRY) == {
            "random", "degree", "pagerank", "uncertainty", "activeea", "daakg"
        }

    def test_create_strategy_unknown(self):
        with pytest.raises(KeyError):
            create_strategy("nope")

    def test_daakg_strategy_algorithm_validation(self):
        with pytest.raises(ValueError):
            create_strategy("daakg", algorithm="bogus")

    @pytest.mark.parametrize("name", ["random", "degree", "pagerank", "uncertainty", "activeea"])
    def test_simple_strategies_return_unique_unlabelled_pairs(self, name, fitted_pipeline):
        from repro.active.strategies import SelectionState

        pool = build_pool(fitted_pipeline.model, PoolConfig(top_n=10))
        unlabelled = pool.all_pairs
        probabilities = {pair: 0.5 for pair in unlabelled}
        state = SelectionState(
            pool=pool, unlabelled=unlabelled, probabilities=probabilities,
            model=fitted_pipeline.model, rng=np.random.default_rng(0),
        )
        batch = create_strategy(name).select(state, 7)
        assert len(batch) == 7
        assert len(set(batch)) == 7
        assert all(pair in unlabelled for pair in batch)


    def test_entropy_scores_equal_the_scalar_formula(self, fitted_pipeline):
        """Array entropies are byte-equal to the scalar formula, so the
        uncertainty-ranked batches stay the same."""
        from repro.active.strategies import SelectionState, _entropies

        def scalar_entropy(probability: float) -> float:
            p = min(max(probability, 1e-9), 1.0 - 1e-9)
            return float(-p * np.log(p) - (1.0 - p) * np.log(1.0 - p))

        rng = np.random.default_rng(0)
        values = np.concatenate(
            [[0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.5], rng.random(50_000), rng.random(2_000) ** 40]
        )
        pairs = [entity_pair(i, i) for i in range(values.size)]
        probabilities = dict(zip(pairs, values.tolist()))
        del probabilities[pairs[7]]  # a pair without a probability reads 0
        state = SelectionState(
            pool=None, unlabelled=pairs, probabilities=probabilities, model=None
        )
        expected = np.array([scalar_entropy(probabilities.get(p, 0.0)) for p in pairs])
        assert _entropies(state).tobytes() == expected.tobytes()

        pool = build_pool(fitted_pipeline.model, PoolConfig(top_n=10))
        unlabelled = pool.all_pairs
        state = SelectionState(
            pool=pool, unlabelled=unlabelled,
            probabilities=dict(zip(unlabelled, rng.random(len(unlabelled)).tolist())),
            model=fitted_pipeline.model,
        )
        scores = [scalar_entropy(state.probabilities[p]) for p in unlabelled]
        assert UncertaintyStrategy().select(state, 7) == UncertaintyStrategy._top_by_score(
            unlabelled, scores, 7
        )


class TestActiveLoop:
    def test_loop_runs_and_improves_labels(self, fitted_pipeline):
        loop = fitted_pipeline.active_learning(
            strategy=RandomStrategy(),
            config=ActiveLearningConfig(
                batch_size=10, num_batches=2, fine_tune_epochs=2,
                pool=PoolConfig(top_n=10),
                inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
            ),
        )
        records = loop.run()
        assert len(records) == 2
        assert records[1].labels_used > records[0].labels_used
        assert records[0].labels_used == 10
        for record in records:
            assert 0.0 <= record.entity_scores.hits_at_1 <= 1.0

    @pytest.mark.parametrize(
        "strategy, builds",
        [
            (DAAKGStrategy(algorithm="greedy"), 1),
            (DAAKGStrategy(algorithm="partition"), 1),
            (UncertaintyStrategy(), 0),
        ],
        ids=["greedy", "partition", "uncertainty"],
    )
    def test_loop_builds_graph_once_per_pool(
        self, pipeline_copy, monkeypatch, strategy, builds
    ):
        calls = []
        build = alignment_graph.build_alignment_graph

        def counted(*args, **kwargs):
            calls.append(None)
            return build(*args, **kwargs)

        monkeypatch.setattr(alignment_graph, "build_alignment_graph", counted)
        loop = pipeline_copy.active_learning(
            strategy,
            ActiveLearningConfig(
                batch_size=10, num_batches=3, fine_tune_epochs=2,
                pool=PoolConfig(top_n=10),
                inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
            ),
        )
        assert len(loop.run()) == 3
        assert len(calls) == builds
        if builds:
            # a different pool object (as a resume sets) gets its own graph
            graph = loop.graph()
            pool = loop.pool()
            loop._pool = ElementPairPool(pool.entity_pairs, pool.relation_pairs, pool.class_pairs)
            assert loop.graph() is not graph
            assert loop.graph().edges.tolist() == graph.edges.tolist()
            assert len(calls) == 2

    def test_loop_config_validation(self):
        with pytest.raises(ValueError):
            ActiveLearningConfig(batch_size=0)
