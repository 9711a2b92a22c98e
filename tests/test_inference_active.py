"""Tests for inference power measurement and batch active learning."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro import DAAKG, obs
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
from repro.active.partition import _QuotientReach
from repro.active import selection
from repro.active.selection import expected_overall_power
from repro.active.strategies import DAAKGStrategy, UncertaintyStrategy
from repro.inference import (
    InferencePowerConfig,
    InferencePowerEstimator,
    build_alignment_graph,
)
from repro.inference import alignment_graph
from repro.inference.alignment_graph import AlignmentGraph, PairValues
from repro.inference.pairs import class_pair, entity_pair, relation_pair
from repro.inference.power import MIN_POWER, inference_accuracy
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


def _reach(table):
    """A reach function over ``{id: {target id: power}}``: one row per id."""

    def reach(ids):
        rows = [table.get(q, {}) for q in np.asarray(ids).tolist()]
        return PairValues(
            np.array([target for row in rows for target in row], dtype=np.int64),
            np.array([value for row in rows for value in row.values()], dtype=np.float64),
            np.cumsum([0] + [len(row) for row in rows]),
        )

    return reach


def _labelled_ids(pipeline, pool, count=None):
    """Pool ids of the pipeline's labelled entity matches that are in the pool."""
    matches = np.array(pipeline.trainer.labels.matches[ElementKind.ENTITY][:count]).reshape(-1, 2)
    ids = pool.pair_ids(ElementKind.ENTITY, matches[:, 0], matches[:, 1])
    return ids[ids >= 0]


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


class _FixedPowers(InferencePowerEstimator):
    """An estimator whose edge powers are given, not derived from a model."""

    def __init__(self, graph, powers, max_hops):
        model = SimpleNamespace(
            similarity=SimpleNamespace(snapshot=None),
            map_entity=SimpleNamespace(data=None),
            use_mean_embeddings=False,
        )
        super().__init__(model, graph, InferencePowerConfig(max_hops=max_hops))
        self.powers = np.asarray(powers, dtype=np.float64)

    def edge_powers(self):
        return self.powers


def _chain_graph() -> AlignmentGraph:
    """Entity pairs s, a, b, c (ids 0-3) and one relation pair; edges s→a,
    s→b, a→c and b→a, numbered by source."""
    edges = np.array([[0, 0, 1], [0, 0, 2], [1, 0, 3], [2, 0, 1]])
    return AlignmentGraph(
        sides=np.array([[0, 0], [1, 1], [2, 2], [3, 3], [0, 0]]),
        relation_offset=4,
        class_offset=5,
        edges=edges,
        out_ptr=np.array([0, 2, 3, 4, 4]),
        relation_ptr=np.array([0, 4]),
        relation_edges=np.arange(4),
        class_ptr=np.zeros(5, dtype=np.int64),
        class_ids=np.empty(0, dtype=np.int64),
    )


def _gold_sides(pair) -> tuple[set, np.ndarray]:
    """The gold entity matches as a set of tuples and as sorted side arrays."""
    entity_pool = {tuple(row) for row in pair.entity_match_ids().tolist()}
    return entity_pool, np.array(sorted(entity_pool), dtype=np.int64)


class TestAlignmentGraph:
    def test_build_graph_from_tiny_pair(self, tiny_pair):
        entity_pool, sides = _gold_sides(tiny_pair)
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, sides)
        assert graph.relation_offset == len(entity_pool)
        assert graph.sides[: graph.relation_offset].tolist() == [list(p) for p in sorted(entity_pool)]
        assert graph.num_edges() > 0
        # every edge endpoint is in the pool
        sides = graph.sides.tolist()
        for source, _, target in graph.edges.tolist():
            assert tuple(sides[source]) in entity_pool
            assert tuple(sides[target]) in entity_pool

    def test_class_membership_links(self, tiny_pair):
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, _gold_sides(tiny_pair)[1])
        assert len(graph.class_ids) > 0
        assert graph.class_ptr[-1] == len(graph.class_ids)

    def test_neighbors_symmetric_closure(self, tiny_pair):
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, _gold_sides(tiny_pair)[1])
        # edge ids follow source ids, so out_ptr delimits each source's edges
        sources = graph.edges[:, 0]
        assert np.all(np.diff(sources) >= 0)
        for source in range(graph.relation_offset):
            span = sources[graph.out_ptr[source] : graph.out_ptr[source + 1]]
            assert np.all(span == source)
        assert graph.out_ptr[-1] == graph.num_edges()

    def test_empty_pool_gives_empty_graph(self, tiny_pair):
        graph = build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, ())
        assert graph.num_edges() == 0

    def test_rejects_unsorted_sides(self, tiny_pair):
        sides = _gold_sides(tiny_pair)[1]
        with pytest.raises(ValueError):
            build_alignment_graph(tiny_pair.kg1, tiny_pair.kg2, sides[::-1])

    def test_estimator_keeps_an_empty_pool(self, fitted_pipeline):
        # an empty pool is falsy (it has a length) but must not be replaced
        # by a freshly built one
        graph, _ = fitted_pipeline.build_inference_estimator(ElementPairPool())
        assert graph.relation_offset == 0
        assert graph.num_edges() == 0


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
        powers = estimator.reachable_power([graph.relation_offset + relation])
        assert powers.ptr.tolist() == [0, len(powers.ids)]
        assert powers.ids.tolist() == list(dict.fromkeys(targets))
        assert powers.values() == [1.0] * len(powers.ids)

    def test_exact_fits_reduce_displacement_to_relation_difference(self, inference_setup):
        """With ``t = h + r`` on both sides, ``disp = ||A·r₁ − r₂||``."""
        pipeline, _, graph, _ = inference_setup
        snap = pipeline.model.similarity.snapshot
        entities_1, entities_2 = snap.entity_matrix_1.copy(), snap.entity_matrix_2.copy()
        sides, edges = graph.sides.tolist(), graph.edges.tolist()
        edge = next(
            edge
            for edge, (h, _, t) in enumerate(edges)
            if sides[h][0] != sides[t][0] and sides[h][1] != sides[t][1]
        )
        source, relation, target = edges[edge]
        (h1, h2), (t1, t2) = sides[source], sides[target]
        r1, r2 = sides[graph.relation_offset + relation]
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
        powers = estimator.path_reach(graph.edges[:1, 0])
        assert powers.ids.size
        # listed by ascending id
        assert np.all(np.diff(powers.ids) > 0)
        assert all(0.0 < value <= 1.0 for value in powers.values())

    def test_reachable_power_entity_includes_schema_pairs(self, inference_setup):
        _, _, graph, estimator = inference_setup
        reach = estimator.reachable_power(graph.edges[:1, 0])
        kinds = {graph.kind_of(pair) for pair in reach.ids.tolist()}
        assert ElementKind.ENTITY in kinds

    def test_relation_pair_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        relation_pairs_with_edges = [
            graph.relation_offset + i
            for i in range(len(graph.relation_ptr) - 1)
            if graph.relation_ptr[i + 1] > graph.relation_ptr[i]
        ]
        assert relation_pairs_with_edges
        powers = estimator.reachable_power(relation_pairs_with_edges[:1])
        assert all(value <= 1.0 for value in powers.values())

    def test_class_pair_has_no_outgoing_power(self, inference_setup):
        _, _, graph, estimator = inference_setup
        assert estimator.reachable_power([graph.class_offset]).ids.size == 0

    def test_overall_power_is_monotone_in_labels(self, inference_setup):
        pipeline, pool, graph, estimator = inference_setup
        labelled = _labelled_ids(pipeline, pool, 10)
        assert estimator.overall_power(labelled[:2]) <= estimator.overall_power(labelled) + 1e-9

    def test_inference_accuracy_bounds(self, inference_setup):
        pipeline, pool, _, estimator = inference_setup
        labelled = _labelled_ids(pipeline, pool)
        gold = {
            ElementKind.ENTITY: {tuple(r) for r in pipeline.pair.entity_match_ids().tolist()},
            ElementKind.RELATION: {tuple(r) for r in pipeline.pair.relation_match_ids().tolist()},
            ElementKind.CLASS: {tuple(r) for r in pipeline.pair.class_match_ids().tolist()},
        }
        inferred, precision = inference_accuracy(estimator, labelled, gold)
        assert inferred == len(estimator.inferred_pairs(labelled).ids)
        if inferred:
            assert 0.0 <= precision <= 1.0
        else:
            assert precision is None

    def test_path_power_is_the_best_path_of_at_most_max_hops(self):
        # costs 1/power - 1: s→a 5, s→b 1, a→c 1, b→a 1.  a is cheapest over
        # two hops (cost 2), but c lies two hops away only through the dear
        # edge s→a (cost 6); a search that drops a after two hops never
        # reaches c.
        estimator = _FixedPowers(_chain_graph(), [1 / 6, 0.5, 0.5, 0.5], max_hops=2)
        reach = estimator.reachable_power([0])
        assert reach.ptr.tolist() == [0, 3]
        assert reach.ids.tolist() == [1, 2, 3]
        assert reach.data == pytest.approx([1 / 3, 1 / 2, 1 / 7])
        assert reach.data[2] >= MIN_POWER
        one_hop = _FixedPowers(_chain_graph(), [1 / 6, 0.5, 0.5, 0.5], max_hops=1)
        assert one_hop.reachable_power([0]).data == pytest.approx([1 / 6, 1 / 2])

    def test_reach_table_rows_follow_the_request(self, inference_setup):
        _, _, graph, estimator = inference_setup
        ids = np.array([
            graph.class_offset, int(graph.edges[0, 0]), graph.relation_offset,
            int(graph.edges[-1, 0]), int(graph.edges[0, 0]),
        ])
        table = estimator.reachable_power(ids)
        assert table.ptr.size == ids.size + 1
        for row, pair in enumerate(ids.tolist()):
            alone = estimator.reachable_power([pair])
            start, end = table.ptr[row], table.ptr[row + 1]
            assert table.ids[start:end].tolist() == alone.ids.tolist()
            assert table.data[start:end].tolist() == alone.data.tolist()
        empty = estimator.reachable_power(np.empty(0, dtype=np.int64))
        assert empty.ptr.tolist() == [0] and empty.ids.size == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InferencePowerConfig(max_hops=0)
        with pytest.raises(ValueError):
            InferencePowerConfig(power_threshold=2.0)


class TestPool:
    def test_pool_contains_all_schema_pairs(self, inference_setup):
        pipeline, pool, _, _ = inference_setup
        kg1, kg2 = pipeline.kg1, pipeline.kg2
        assert len(pool.sides(ElementKind.RELATION)) == kg1.num_relations * kg2.num_relations
        assert len(pool.sides(ElementKind.CLASS)) == kg1.num_classes * kg2.num_classes

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
        assert len(pool) == sum(len(pool.sides(kind)) for kind in ElementKind)
        first = pool.pair(0)
        assert first == entity_pair(*pool.sides(ElementKind.ENTITY)[0].tolist())
        assert pool.pair_ids(first.kind, [first.left], [first.right]).tolist() == [0]
        with pytest.raises(IndexError):
            pool.pair(len(pool))
        with pytest.raises(IndexError):
            pool.pair(-1)

    def test_pool_ids_are_positions(self, inference_setup):
        _, pool, graph, _ = inference_setup
        pairs = [pool.pair(i) for i in range(len(pool))]
        assert graph.sides.tolist() == [[q.left, q.right] for q in pairs]
        for kind in (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS):
            sides = pool.sides(kind)
            ids = pool.pair_ids(kind, sides[:, 0], sides[:, 1])
            assert [pairs[i] for i in ids.tolist()] == [q for q in pairs if q.kind is kind]
            assert all(graph.kind_of(i) is kind for i in ids.tolist())
        far = pool.sides(ElementKind.ENTITY)[:, 1].max() + 1
        assert pool.pair_ids(ElementKind.ENTITY, [0], [far]).tolist() == [-1]

    def test_pool_rejects_unsorted_pairs(self):
        with pytest.raises(ValueError):
            ElementPairPool([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            ElementPairPool((), [(0, 1), (0, 1)])

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
        candidates = np.arange(20)
        probabilities = np.full(120, 0.5)
        reach = _reach({q: {q + 100: 0.9} for q in range(20)})
        batch = greedy_select(candidates, probabilities, reach, 5, rng=0)
        assert len(batch) == 5
        assert len(set(batch.tolist())) == 5

    def test_greedy_prefers_high_probability_high_power(self):
        strong, weak = 0, 1
        probabilities = np.zeros(20)
        probabilities[[strong, weak]] = [0.9, 0.1]
        reach = _reach({strong: {10: 0.95, 11: 0.95}, weak: {12: 0.85}})
        batch = greedy_select(np.array([weak, strong]), probabilities, reach, 1, rng=0)
        assert batch.tolist() == [strong]

    def test_greedy_avoids_redundant_coverage(self, monkeypatch):
        monkeypatch.setattr(selection, "NUM_SAMPLES", 32)
        a, b, c = 0, 1, 2
        shared_target, other_target = 10, 20
        probabilities = np.full(30, 0.9)
        reach = _reach({a: {shared_target: 0.95}, b: {shared_target: 0.95}, c: {other_target: 0.9}})
        batch = greedy_select(np.array([a, b, c]), probabilities, reach, 2, rng=0)
        assert c in batch.tolist()

    def test_gain_adds_terms_one_at_a_time(self, monkeypatch):
        # A's gain is the left-to-right sum of its powers, which equals B's
        # single power exactly, so A wins the tie on rank.  A pairwise sum of
        # A's powers comes out smaller and would hand the pick to B.
        powers = np.random.default_rng(2).uniform(0.001, 0.05, 20).tolist()
        in_order = 0.0
        for value in powers:
            in_order += value
        assert float(np.sum(powers)) < in_order
        a, b = 0, 1
        reach = _reach({
            a: {100 + i: value for i, value in enumerate(powers)},
            b: {99: in_order},
        })
        monkeypatch.setattr(selection, "NUM_SAMPLES", 1)
        batch = greedy_select(np.array([a, b]), np.full(120, 0.5), reach, 1,
                              GreedySelectionConfig(power_threshold=0.0), rng=0)
        assert batch.tolist() == [a]

    def test_expected_overall_power_nonnegative(self):
        probabilities = np.full(10, 0.8)
        value = expected_overall_power(np.array([0]), probabilities, _reach({0: {5: 0.9}}),
                                       power_threshold=0.5)
        assert value >= 0.0

    def test_empty_candidates(self):
        batch = greedy_select(np.array([], dtype=np.int64), np.zeros(0), _reach({}), 3)
        assert batch.size == 0

    def test_selection_config_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            greedy_select(np.arange(3), np.full(3, 0.5), _reach({}), 0)
        with pytest.raises(ValueError, match="power_threshold"):
            GreedySelectionConfig(power_threshold=1.5)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_candidate_limit_below_one_is_rejected(self, limit):
        # -1 once dropped the last-ranked candidate and 0 gave an empty batch
        with pytest.raises(ValueError):
            GreedySelectionConfig(candidate_limit=limit)
        assert GreedySelectionConfig(candidate_limit=None).candidate_limit is None
        assert GreedySelectionConfig(candidate_limit=1).candidate_limit == 1

    def test_picks_are_recorded_with_their_gain(self):
        probabilities = np.full(120, 0.5)
        probabilities[3] = 0.9
        reach = _reach({q: {q + 100: 0.9} for q in range(5)})
        with obs.scoped():
            batch = greedy_select(np.arange(5), probabilities, reach, 2, rng=0)
            picks = [e for e in obs.events() if e["name"] == "active.select.pick"]
        assert [e["attrs"]["pair"] for e in picks] == batch.tolist()
        assert picks[0]["attrs"]["probability"] == 0.9
        assert all(e["attrs"]["algorithm"] == "greedy" for e in picks)
        assert all(e["attrs"]["gain"] > 0.0 for e in picks)
        # the first pick's gain is exact: one sample term per target
        assert picks[0]["attrs"]["gain"] == pytest.approx(0.9 * (0.9 + 1e-3))
        # nothing is recorded while obs is off
        before = len(obs.events())
        greedy_select(np.arange(5), probabilities, reach, 2, rng=0)
        assert len(obs.events()) == before

    @pytest.mark.parametrize("algorithm", ["greedy", "partition"])
    def test_pick_events_name_kind_and_algorithm(self, inference_setup, algorithm):
        _, pool, graph, estimator = inference_setup
        probabilities = np.random.default_rng(0).random(len(pool))
        state = SimpleNamespace(
            candidates=np.arange(len(pool)), probabilities=probabilities,
            graph=graph, estimator=estimator, rng=np.random.default_rng(1),
        )
        with obs.scoped():
            batch = DAAKGStrategy(algorithm=algorithm).select(state, 6)
            picks = [e["attrs"] for e in obs.events() if e["name"] == "active.select.pick"]
        assert [e["pair"] for e in picks] == batch.tolist()
        for event in picks:
            assert event["algorithm"] == algorithm
            assert event["kind"] == graph.kind_of(event["pair"]).value
            assert event["probability"] == probabilities[event["pair"]]


class TestPartitioning:
    def test_partition_pool_assigns_every_entity_pair(self, inference_setup):
        _, _, graph, estimator = inference_setup
        partition_of = partition_pool(graph, estimator, PartitionSelectionConfig(rho=0.9))
        assert partition_of.ids.tolist() == list(range(graph.relation_offset))
        assert len(partition_of.values()) == graph.relation_offset

    def test_partition_select_returns_batch(self, inference_setup):
        pipeline, pool, graph, estimator = inference_setup
        candidates = np.arange(200)
        probabilities = np.full(len(pool), 0.5)
        batch = partition_select(
            candidates, probabilities, graph, estimator, 5,
            selection_config=GreedySelectionConfig(candidate_limit=100),
            partition_config=PartitionSelectionConfig(rho=0.9),
            rng=0,
        )
        assert 0 < len(batch) <= 5

    def test_group_reach_keeps_the_entries_above_the_floor(self, inference_setup):
        """A floored quotient reach is the unfloored one filtered to entries
        above the floor, in the same order; a floor above every group keeps
        empty rows."""
        _, _, graph, estimator = inference_setup
        labels = partition_pool(graph, estimator, PartitionSelectionConfig(rho=0.9)).data
        sources = np.arange(graph.relation_offset)
        full = _QuotientReach(graph, estimator, labels, -np.inf).group_reach(sources)
        row = np.repeat(np.arange(sources.size), np.diff(full.ptr))
        assert len(set(full.data.tolist())) > 1
        for floor in (float(np.median(full.data)), float(full.data.max())):
            with obs.scoped():
                table = _QuotientReach(graph, estimator, labels, floor).group_reach(sources)
                spans = [e for e in obs.events() if e["name"] == "active.partition.reach"]
            span = spans[0]["attrs"]
            kept = full.data > floor
            ptr = np.searchsorted(row[kept], np.arange(sources.size + 1))
            assert table.ids.tolist() == full.ids[kept].tolist()
            assert table.data.tolist() == full.data[kept].tolist()
            assert table.ptr.tolist() == ptr.tolist()
            assert len(spans) == 1
            assert span["entries"] == table.ids.size
            assert span["groups_kept"] <= span["groups_reached"]
        assert not table.ids.size and not table.data.size
        assert table.ptr.tolist() == [0] * (sources.size + 1)
        assert span["groups_kept"] == 0 < span["groups_reached"]

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
        candidates = np.arange(0, len(pool), 2)
        state = SelectionState(
            pool=pool, candidates=candidates, probabilities=np.full(len(pool), 0.5),
            model=fitted_pipeline.model, rng=np.random.default_rng(0),
        )
        batch = create_strategy(name).select(state, 7).tolist()
        assert len(batch) == 7
        assert len(set(batch)) == 7
        assert set(batch) <= set(candidates.tolist())

    def test_pagerank_cache_does_not_outlive_its_model(self, small_benchmark):
        """Scores are cached per live model: a dead model's entry goes with it,
        so the cache pins nothing and a later model that reuses its ``id()``
        gets its own scores."""
        from repro.active.strategies import PageRankStrategy, SelectionState
        from repro.kg.statistics import entity_pagerank

        class Model:
            __slots__ = ("kg1", "kg2", "__weakref__")

            def __init__(self, kg1, kg2):
                self.kg1, self.kg2 = kg1, kg2

        def scores(strategy, model):
            state = SelectionState(
                pool=None, candidates=np.arange(0), probabilities=np.zeros(0), model=model
            )
            return strategy._scores(state)

        strategy = PageRankStrategy()
        kg1, kg2 = small_benchmark.kg1, small_benchmark.kg2
        model = Model(kg1, kg2)
        first = scores(strategy, model)
        assert scores(strategy, model) is first  # a live model hits its entry
        dead_id, alive = id(model), weakref.ref(model)
        del model
        gc.collect()
        assert alive() is None and len(strategy._cache) == 0  # nothing pinned
        # models over swapped KGs, kept alive, until one lands on the dead id
        others, reused = [], None
        while reused is None and len(others) < 200_000:
            others.append(Model(kg2, kg1))
            if id(others[-1]) == dead_id:
                reused = others[-1]
        assert reused is not None, "no later model reused the dead model's id"
        pr1, pr2 = scores(strategy, reused)
        assert np.array_equal(pr1, entity_pagerank(kg2))
        assert np.array_equal(pr2, entity_pagerank(kg1))


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
        state = SelectionState(
            pool=None, candidates=np.arange(values.size), probabilities=values, model=None
        )
        expected = np.array([scalar_entropy(p) for p in values.tolist()])
        assert _entropies(state).tobytes() == expected.tobytes()

        pool = build_pool(fitted_pipeline.model, PoolConfig(top_n=10))
        candidates = np.arange(len(pool))
        state = SelectionState(
            pool=pool, candidates=candidates, probabilities=rng.random(len(pool)),
            model=fitted_pipeline.model,
        )
        scores = [scalar_entropy(p) for p in state.probabilities.tolist()]
        assert UncertaintyStrategy().select(state, 7).tolist() == (
            UncertaintyStrategy._top_by_score(candidates, scores, 7).tolist()
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
            loop._pool = ElementPairPool(*(pool.sides(kind) for kind in ElementKind))
            assert loop.graph() is not graph
            assert loop.graph().edges.tolist() == graph.edges.tolist()
            assert len(calls) == 2

    def test_loop_config_validation(self):
        with pytest.raises(ValueError):
            ActiveLearningConfig(batch_size=0)
