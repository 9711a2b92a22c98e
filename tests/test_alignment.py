"""Tests for the joint alignment model and its supporting components."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.alignment import (
    AlignmentCalibrator,
    AlignmentTrainingConfig,
    CalibrationConfig,
    JointAlignmentModel,
    JointAlignmentTrainer,
    entity_weights,
    evaluate_alignment,
    f1_score,
    greedy_match,
    mean_class_embeddings,
    mean_relation_embeddings,
    mine_potential_matches,
    precision_recall_f1,
)
from repro.alignment.propagation import StructuralPropagation, normalized_adjacency
from repro.embedding import EntityClassScorer, TransE
from repro.kg.elements import ElementKind
from repro.utils.math import cosine_similarity_matrix, softmax
from matching_oracle import greedy_walk, greedy_walk_matrix, mine_dense


@pytest.fixture(scope="module")
def joint_setup(tiny_pair):
    kg1 = tiny_pair.kg1.with_inverse_relations()
    kg2 = tiny_pair.kg2.with_inverse_relations()
    from repro.kg.pair import AlignedKGPair

    pair = AlignedKGPair(
        tiny_pair.name, kg1, kg2, tiny_pair.entity_alignment, tiny_pair.relation_alignment,
        tiny_pair.class_alignment, tiny_pair.train_entity_pairs, tiny_pair.valid_entity_pairs,
        tiny_pair.test_entity_pairs,
    )
    m1, m2 = TransE(kg1, dim=8, rng=0), TransE(kg2, dim=8, rng=1)
    s1 = EntityClassScorer(kg1, 8, 4, rng=0)
    s2 = EntityClassScorer(kg2, 8, 4, rng=1)
    model = JointAlignmentModel(pair, m1, m2, s1, s2, rng=0)
    return pair, model


def match_matrix(matrix: np.ndarray, threshold: float = 0.0) -> list[tuple[int, int]]:
    """:func:`greedy_match` over every entry of ``matrix`` at or above ``threshold``."""
    rows, cols = np.nonzero(matrix >= threshold)
    taken = greedy_match(rows, cols, matrix[rows, cols], matrix.shape)
    return list(zip(rows[taken].tolist(), cols[taken].tolist()))


class MatrixEngine:
    """The two engine queries mining reads, answered from a full matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    def shape(self, kind):
        return self.matrix.shape

    def threshold_candidates(self, kind, threshold):
        rows, cols = np.nonzero(self.matrix >= threshold)
        return rows, cols, self.matrix[rows, cols]


class TestEvaluationMetrics:
    # the ranking metrics are checked against the per-row rank loops of
    # tests/matching_oracle.py on fitted models in
    # test_backends.py::TestEngineParity::test_evaluate_metrics_identical
    def test_hits_at_k_perfect(self):
        scores = evaluate_alignment(np.eye(3), np.array([[0, 0], [1, 1], [2, 2]]))
        assert scores.hits_at_1 == 1.0
        assert scores.mrr == 1.0

    def test_hits_at_k_partial(self):
        sim = np.array([[0.9, 0.1], [0.8, 0.2]])
        scores = evaluate_alignment(sim, np.array([[0, 0], [1, 1]]))
        assert scores.hits_at_1 == 0.5
        assert scores.hits_at_10 == 1.0

    def test_mrr_second_rank(self):
        scores = evaluate_alignment(np.array([[0.5, 0.9]]), np.array([[0, 0]]))
        assert scores.mrr == pytest.approx(0.5)

    def test_ties_take_the_mid_rank(self):
        # a matcher that scores every candidate alike is not credited rank 1
        scores = evaluate_alignment(np.full((2, 4), 0.5), np.array([[0, 0], [1, 1]]))
        assert scores.hits_at_1 == 0.0
        assert scores.mrr == pytest.approx(1 / 2.5)

    def test_greedy_match_is_one_to_one(self):
        matches = match_matrix(np.array([[0.9, 0.8], [0.85, 0.1]]))
        assert len(matches) == 2
        assert len({i for i, _ in matches}) == 2
        assert len({j for _, j in matches}) == 2

    def test_greedy_match_respects_threshold(self):
        sim = np.array([[0.9, 0.1], [0.2, 0.3]])
        assert match_matrix(sim, threshold=0.5) == [(0, 0)]

    def test_greedy_match_equals_walk_at_ties(self):
        # rounding leaves many equal similarities; both take equal ones in
        # row-major order
        sim = np.round(np.random.default_rng(0).random((60, 80)), 1)
        assert match_matrix(sim) == greedy_walk_matrix(sim)

    def test_greedy_match_keeps_best(self):
        rows, cols = np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2])
        taken = greedy_match(rows, cols, np.array([0.9, 0.8, 0.7, 0.5]), (3, 3))
        assert taken.tolist() == [0, 2, 3]

    @given(
        st.integers(0, 12),
        st.integers(0, 12),
        st.integers(1, 4),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_greedy_match_equals_walk_property(self, n, m, levels, threshold, seed):
        # integer values make ties the rule; n or m of 0 or 1 covers the
        # empty, 1×n and n×1 inputs
        sim = np.random.default_rng(seed).integers(0, levels + 1, size=(n, m)).astype(float)
        rows, cols = np.nonzero(sim >= threshold)
        values = sim[rows, cols]
        taken = greedy_match(rows, cols, values, sim.shape)
        assert taken.dtype == np.int64
        assert taken.tolist() == greedy_walk(rows, cols, values)

    def test_greedy_match_walks_out_of_a_staircase(self):
        # values fall along the path (0,0) (1,0) (1,1) (2,1) (2,2) …: each
        # pair blocks the next, so a round takes one pair and the matcher
        # walks the rest of its head; it must still equal the walk
        n = 3000
        rows = np.repeat(np.arange(n), 2)[1:]
        cols = np.repeat(np.arange(n), 2)[:-1]
        values = np.where(rows == cols, 2.0 * (n - rows), 2.0 * (n - cols) - 1)
        taken = greedy_match(rows, cols, values, (n, n))
        assert taken.tolist() == greedy_walk(rows, cols, values)
        assert (rows[taken] == cols[taken]).all()

    def test_greedy_match_past_the_first_head(self):
        # more candidates than the first head holds and a row whose only
        # candidate is the lowest value: later heads must finish the matching
        rng = np.random.default_rng(1)
        sim = rng.random((300, 400))
        sim[7] = 0.0
        sim[7, 5] = -1.0
        rows, cols = np.nonzero(sim >= -1.0)
        values = sim[rows, cols]
        taken = greedy_match(rows, cols, values, sim.shape)
        assert taken.tolist() == greedy_walk(rows, cols, values)

    def test_precision_recall_f1(self):
        predicted = [(0, 0), (1, 1), (2, 5)]
        gold = {(0, 0), (1, 1), (3, 3)}
        precision, recall, f1 = precision_recall_f1(predicted, gold)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_predictions(self):
        assert precision_recall_f1([], {(0, 0)}) == (0.0, 0.0, 0.0)

    def test_f1_zero_division(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_evaluate_alignment_bundle(self):
        sim = np.eye(4)
        gold = np.array([[i, i] for i in range(4)])
        scores = evaluate_alignment(sim, gold)
        assert scores.hits_at_1 == 1.0 and scores.f1 == 1.0

    def test_evaluate_alignment_empty_gold(self):
        scores = evaluate_alignment(np.eye(3), np.empty((0, 2)))
        assert scores.f1 == 0.0

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_perfect_similarity_gives_perfect_scores(self, n):
        sim = np.eye(n)
        gold = np.array([[i, i] for i in range(n)])
        scores = evaluate_alignment(sim, gold)
        assert scores.hits_at_1 == 1.0
        assert scores.mrr == 1.0
        assert scores.f1 == 1.0

    @given(st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_metrics_are_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        sim = rng.random((n, n))
        gold = np.array([[i, i] for i in range(n)])
        scores = evaluate_alignment(sim, gold)
        for value in scores.as_dict().values():
            assert 0.0 <= value <= 1.0


class TestCalibration:
    def test_probability_matrix_shape_and_range(self):
        sim = np.random.default_rng(0).random((5, 4))
        calibrator = AlignmentCalibrator()
        probabilities = calibrator.probability_matrix(sim, ElementKind.ENTITY)
        assert probabilities.shape == sim.shape
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_true_match_gets_high_probability(self):
        sim = np.full((3, 3), 0.1)
        np.fill_diagonal(sim, 0.95)
        calibrator = AlignmentCalibrator(CalibrationConfig(z_entity=0.05))
        probabilities = calibrator.probability_matrix(sim, ElementKind.ENTITY)
        assert probabilities[0, 0] > 0.5
        assert probabilities[0, 1] < 0.5

    def test_min_of_both_directions(self):
        sim = np.array([[0.9, 0.9], [0.1, 0.1]])
        calibrator = AlignmentCalibrator()
        temperature = calibrator.config.temperature(ElementKind.RELATION)
        row = softmax(sim, axis=1, temperature=temperature)
        col = softmax(sim, axis=0, temperature=temperature)
        combined = calibrator.probability_matrix(sim, ElementKind.RELATION)
        assert np.allclose(combined, np.minimum(row, col))

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            CalibrationConfig(z_entity=0.0)

    def test_kind_specific_temperature(self):
        config = CalibrationConfig(z_entity=0.05, z_relation=0.2, z_class=0.3)
        assert config.temperature(ElementKind.RELATION) == 0.2
        assert config.temperature(ElementKind.CLASS) == 0.3


class TestSemiSupervision:
    def test_mine_potential_matches_threshold_and_exclusions(self):
        engine = MatrixEngine(np.array([[0.95, 0.2], [0.1, 0.92], [0.3, 0.91]]))
        pairs, soft = mine_potential_matches(engine, ElementKind.ENTITY, threshold=0.9)
        assert pairs.tolist() == [[0, 0], [1, 1]]  # (2, 1) loses to the better row
        assert soft.tolist() == [0.95, 0.92]
        pairs, _ = mine_potential_matches(engine, ElementKind.ENTITY, 0.9, matches=[(1, 0)])
        assert pairs.tolist() == [[2, 1]]  # row 1 and column 0 are labelled
        pairs, _ = mine_potential_matches(engine, ElementKind.ENTITY, 0.9, non_matches=[(1, 1)])
        assert pairs.tolist() == [[0, 0], [2, 1]]

    def test_mine_equals_dense_walk(self):
        sim = np.round(np.random.default_rng(3).random((40, 30)), 1)
        labels = {"matches": [(1, 2), (5, 5)], "non_matches": [(0, 0), (3, 7)]}
        pairs, soft = mine_potential_matches(MatrixEngine(sim), ElementKind.ENTITY, 0.6, **labels)
        expected_pairs, expected_soft = mine_dense(sim, 0.6, **labels)
        np.testing.assert_array_equal(pairs, expected_pairs)
        np.testing.assert_array_equal(soft, expected_soft)

    def test_mine_respects_max_candidates(self):
        engine = MatrixEngine(np.full((5, 5), 0.95))
        pairs, soft = mine_potential_matches(
            engine, ElementKind.ENTITY, threshold=0.9, max_candidates=2
        )
        assert pairs.tolist() == [[0, 0], [1, 1]]
        assert soft.shape == (2,)

    def test_mine_empty_matrix(self):
        pairs, soft = mine_potential_matches(MatrixEngine(np.empty((0, 0))), ElementKind.ENTITY, 0.5)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64
        assert soft.shape == (0,) and soft.dtype == np.float64


class TestMeanEmbeddings:
    def test_entity_weights_shapes_and_bounds(self):
        sim = np.random.default_rng(0).uniform(-1, 1, size=(4, 6))
        w1, w2 = entity_weights(sim)
        assert w1.shape == (4,) and w2.shape == (6,)
        assert np.all(w1 >= 0) and np.all(w1 <= 1)

    def test_mean_relation_embeddings_translation(self, tiny_pair):
        kg = tiny_pair.kg1
        model = TransE(kg, dim=8, rng=0)
        entities = model.entity_matrix()
        weights = np.ones(kg.num_entities)
        means = mean_relation_embeddings(kg, model, entities, weights)
        assert means.shape == (kg.num_relations, 8)
        # with uniform weights the mean is the average of (tail - head)
        r = 0
        rows = kg.triples_of_relation(r)
        expected = np.mean([entities[t] - entities[h] for h, _, t in rows], axis=0)
        assert np.allclose(means[r], expected)

    def test_mean_class_embeddings_weighted(self, tiny_pair):
        kg = tiny_pair.kg1
        entities = np.arange(kg.num_entities * 2, dtype=float).reshape(kg.num_entities, 2)
        weights = np.zeros(kg.num_entities)
        weights[0] = 1.0
        means = mean_class_embeddings(kg, entities, weights)
        cls = kg.classes_of(0)[0]
        assert np.allclose(means[cls], entities[0])

    def test_zero_weights_fall_back_to_unweighted_mean(self, tiny_pair):
        kg = tiny_pair.kg1
        entities = np.ones((kg.num_entities, 3))
        means = mean_class_embeddings(kg, entities, np.zeros(kg.num_entities))
        assert np.allclose(means[0], 1.0)


class TestPropagation:
    def test_normalized_adjacency_rows_sum_to_one(self, tiny_pair):
        adjacency = normalized_adjacency(tiny_pair.kg1)
        sums = np.asarray(adjacency.sum(axis=1)).ravel()
        connected = sums > 0
        assert np.allclose(sums[connected], 1.0)

    def test_propagation_similarity_favours_gold_matches(self, tiny_pair):
        propagation = StructuralPropagation(tiny_pair.kg1, tiny_pair.kg2, hops=2)
        landmarks = tiny_pair.entity_match_ids(tiny_pair.train_entity_pairs)
        sim = cosine_similarity_matrix(*propagation.propagate(landmarks))
        assert sim.shape == (tiny_pair.kg1.num_entities, tiny_pair.kg2.num_entities)
        gold = tiny_pair.entity_match_ids()
        on_gold = np.mean([sim[i, j] for i, j in gold])
        assert on_gold >= sim.mean() - 1e-9

    def test_no_landmarks_gives_zero_channel(self, tiny_pair):
        propagation = StructuralPropagation(tiny_pair.kg1, tiny_pair.kg2)
        p1, p2 = propagation.propagate(np.empty((0, 2)))
        assert p1.shape == (tiny_pair.kg1.num_entities, 0)
        assert p2.shape == (tiny_pair.kg2.num_entities, 0)
        assert np.allclose(cosine_similarity_matrix(p1, p2), 0.0)

    def test_config_validation(self, tiny_pair):
        with pytest.raises(ValueError):
            StructuralPropagation(tiny_pair.kg1, tiny_pair.kg2, hops=0)
        with pytest.raises(ValueError):
            StructuralPropagation(tiny_pair.kg1, tiny_pair.kg2, alpha=0.0)


class TestJointAlignmentModel:
    def test_similarity_matrices_shapes(self, joint_setup):
        pair, model = joint_setup
        assert model.entity_similarity_matrix().shape == (
            pair.kg1.num_entities, pair.kg2.num_entities
        )
        assert model.relation_similarity_matrix().shape == (
            pair.kg1.num_relations, pair.kg2.num_relations
        )
        assert model.class_similarity_matrix().shape == (
            pair.kg1.num_classes, pair.kg2.num_classes
        )

    def test_pair_similarity_dispatch(self, joint_setup):
        _, model = joint_setup
        pairs = np.array([[0, 0], [1, 1]])
        for kind in ElementKind:
            values = model.pair_similarity(kind, pairs)
            assert values.shape == (2,)
            assert np.all(np.abs(values.numpy()) <= 1.0 + 1e-6)

    def test_structural_channel_only_after_landmarks(self, joint_setup):
        _, model = joint_setup
        model.set_landmarks(np.empty((0, 2)))
        structural = cosine_similarity_matrix(*model.structural_factors())
        assert np.allclose(structural, 0.0)
        model.set_landmarks(np.array([[0, 0]]))
        assert cosine_similarity_matrix(*model.structural_factors()).max() > 0

    def test_entity_similarity_is_max_of_channels(self, joint_setup):
        _, model = joint_setup
        model.set_landmarks(np.array([[0, 0], [1, 1]]))
        combined = model.entity_similarity_matrix()
        snap = model.snapshot
        embedding = cosine_similarity_matrix(
            snap.entity_matrix_1 @ model.map_entity.data, snap.entity_matrix_2
        )
        structural = cosine_similarity_matrix(*model.structural_factors())
        assert np.allclose(combined, np.maximum(embedding, structural))

    def test_entity_weights_from_snapshot(self, joint_setup):
        _, model = joint_setup
        w1, w2 = model.entity_weight_vectors()
        assert w1.shape[0] == model.kg1.num_entities
        assert np.all(w1 >= 0) and np.all(w1 <= 1)

    def test_parameter_summary(self, joint_setup):
        _, model = joint_setup
        summary = model.parameter_summary()
        assert summary["mapping_matrices"] > 0
        assert "class_scorers" in summary

    def test_mismatched_dims_rejected(self, joint_setup, tiny_pair):
        pair, _ = joint_setup
        with pytest.raises(ValueError):
            JointAlignmentModel(pair, TransE(pair.kg1, dim=8, rng=0), TransE(pair.kg2, dim=16, rng=0))

    def test_single_class_scorer_rejected(self, joint_setup):
        pair, model = joint_setup
        with pytest.raises(ValueError):
            JointAlignmentModel(
                pair, model.model1, model.model2, model.class_scorer1, None
            )


class TestJointAlignmentTrainer:
    def test_training_improves_seed_similarity(self, joint_setup):
        pair, _ = joint_setup
        m1, m2 = TransE(pair.kg1, dim=8, rng=2), TransE(pair.kg2, dim=8, rng=3)
        model = JointAlignmentModel(pair, m1, m2, rng=2)
        trainer = JointAlignmentTrainer(
            model,
            AlignmentTrainingConfig(rounds=2, epochs_per_round=15, num_negatives=4),
            seed=0,
            semi_supervised=False,
        )
        seeds = pair.entity_match_ids(pair.train_entity_pairs)
        before = model.entity_pair_similarity(seeds).numpy().mean()
        trainer.add_matches(ElementKind.ENTITY, seeds)
        trainer.train()
        after = model.entity_pair_similarity(seeds).numpy().mean()
        assert after > before

    def test_fine_tune_adds_labels_and_runs(self, joint_setup):
        pair, _ = joint_setup
        m1, m2 = TransE(pair.kg1, dim=8, rng=4), TransE(pair.kg2, dim=8, rng=5)
        model = JointAlignmentModel(pair, m1, m2, rng=4)
        trainer = JointAlignmentTrainer(
            model, AlignmentTrainingConfig(rounds=1, epochs_per_round=5, num_negatives=2), seed=0,
            semi_supervised=True,
        )
        trainer.add_matches(ElementKind.ENTITY, pair.entity_match_ids(pair.train_entity_pairs))
        trainer.train()
        history = trainer.fine_tune(
            new_matches={ElementKind.RELATION: [(0, 0)]},
            new_non_matches={ElementKind.ENTITY: [(0, 1)]},
            epochs=3,
        )
        assert len(history) == 3
        assert (0, 0) in trainer.labels.matches[ElementKind.RELATION]
        assert (0, 1) in trainer.labels.non_matches[ElementKind.ENTITY]

    def test_duplicate_labels_are_ignored(self, joint_setup):
        pair, model = joint_setup
        trainer = JointAlignmentTrainer(
            model, AlignmentTrainingConfig(), seed=0, semi_supervised=True
        )
        trainer.add_matches(ElementKind.ENTITY, [(0, 0), (0, 0)])
        assert len(trainer.labels.matches[ElementKind.ENTITY]) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlignmentTrainingConfig(rounds=0)
        with pytest.raises(ValueError):
            AlignmentTrainingConfig(semi_threshold=0.0)
        with pytest.raises(ValueError):
            AlignmentTrainingConfig(hard_negative_fraction=2.0)


class TestLabelStoreArrayCache:
    def test_arrays_cached_between_reads(self):
        from repro.alignment.trainer import LabelStore

        store = LabelStore()
        store.add(ElementKind.ENTITY, (0, 1), True)
        first = store.match_array(ElementKind.ENTITY)
        assert store.match_array(ElementKind.ENTITY) is first
        assert first.shape == (1, 2)

    def test_add_invalidates_only_affected_cache(self):
        from repro.alignment.trainer import LabelStore

        store = LabelStore()
        store.add(ElementKind.ENTITY, (0, 1), True)
        store.add(ElementKind.ENTITY, (2, 3), False)
        matches = store.match_array(ElementKind.ENTITY)
        non_matches = store.non_match_array(ElementKind.ENTITY)
        relations = store.match_array(ElementKind.RELATION)
        store.add(ElementKind.ENTITY, (4, 5), True)
        updated = store.match_array(ElementKind.ENTITY)
        assert updated is not matches
        assert updated.tolist() == [[0, 1], [4, 5]]
        # untouched kinds/polarities keep their cached arrays
        assert store.non_match_array(ElementKind.ENTITY) is non_matches
        assert store.match_array(ElementKind.RELATION) is relations

    def test_duplicate_add_keeps_cache(self):
        from repro.alignment.trainer import LabelStore

        store = LabelStore()
        store.add(ElementKind.CLASS, (1, 1), True)
        cached = store.match_array(ElementKind.CLASS)
        store.add(ElementKind.CLASS, (1, 1), True)
        assert store.match_array(ElementKind.CLASS) is cached

    def test_empty_arrays_have_pair_shape(self):
        from repro.alignment.trainer import LabelStore

        store = LabelStore()
        assert store.match_array(ElementKind.ENTITY).shape == (0, 2)
        assert store.non_match_array(ElementKind.RELATION).shape == (0, 2)


class TestLossTermArrayCache:
    """The label and mined-pair index arrays are built when those pairs change."""

    def _trainer(self, pair):
        m1, m2 = TransE(pair.kg1, dim=8, rng=6), TransE(pair.kg2, dim=8, rng=7)
        model = JointAlignmentModel(pair, m1, m2, rng=6)
        trainer = JointAlignmentTrainer(
            model, AlignmentTrainingConfig(rounds=1, epochs_per_round=2, semi_threshold=0.1),
            seed=0,
            semi_supervised=True,
        )
        trainer.add_matches(ElementKind.ENTITY, pair.entity_match_ids(pair.train_entity_pairs))
        trainer.add_matches(ElementKind.RELATION, [(0, 0)])
        return trainer

    @staticmethod
    def _assert_in_step(trainer):
        for kind, (pairs, soft) in trainer._mined.items():
            assert pairs.dtype == np.int64 and pairs.shape == (len(soft), 2)
            expected = [list(p) for p in trainer.labels.matches[kind]] + pairs.tolist()
            assert trainer._matched_pairs(kind).tolist() == expected
        entity = list(trainer.labels.matches[ElementKind.ENTITY])
        entity += [tuple(p) for p in trainer._mined[ElementKind.ENTITY][0].tolist()]
        assert trainer._current_entity_landmarks().tolist() == [list(p) for p in sorted(set(entity))]

    def test_arrays_follow_labels_and_mined_pairs(self, joint_setup):
        pair, _ = joint_setup
        trainer = self._trainer(pair)
        assert trainer._current_entity_landmarks().shape[1] == 2
        trainer.train()
        assert any(len(soft) for _, soft in trainer._mined.values())
        self._assert_in_step(trainer)

        built = dict(trainer._mined)
        trainer._step()
        assert all(trainer._mined[kind] is arrays for kind, arrays in built.items())

        trainer.add_matches(ElementKind.ENTITY, [(1, 2)])
        assert trainer._matched_pairs(ElementKind.ENTITY)[
            len(trainer.labels.matches[ElementKind.ENTITY]) - 1
        ].tolist() == [1, 2]
        self._assert_in_step(trainer)

        trainer._step()
        trainer._refresh_round_state()
        self._assert_in_step(trainer)
