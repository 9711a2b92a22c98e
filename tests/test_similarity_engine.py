"""Tests for the SimilarityEngine: caching, invalidation, top-k and mining.

The engine's contract (see ``repro/alignment/similarity.py``): a kind's
channels (and the one tile they keep) are computed at most once per
``(parameter, snapshot, landmark)`` version token, every optimiser step
invalidates them, ``top_k`` agrees with a full ``argsort``, and
the vectorized hard-negative miner never returns a positive counterpart.
"""

import numpy as np
import pytest

from repro.alignment import (
    AlignmentTrainingConfig,
    JointAlignmentModel,
    JointAlignmentTrainer,
    SimilarityEngine,
)
from repro.alignment import trainer as trainer_module
from repro.alignment.trainer import LabelStore
from repro.active.pool import ElementPairPool, PoolConfig, build_pool
from repro.embedding import TransE
from repro.inference.pairs import entity_pair, relation_pair
from repro.kg.elements import ElementKind
from repro.kg.pair import AlignedKGPair
from repro.nn.optim import SGD, bump_parameter_version
from repro.runtime import ChannelPair, CosineChannels
from repro.runtime.streaming import assemble_matrix
from repro.utils.math import cosine_similarity_matrix, top_k_rows


@pytest.fixture()
def fresh_model(tiny_pair):
    kg1 = tiny_pair.kg1.with_inverse_relations()
    kg2 = tiny_pair.kg2.with_inverse_relations()
    pair = AlignedKGPair(
        tiny_pair.name, kg1, kg2, tiny_pair.entity_alignment, tiny_pair.relation_alignment,
        tiny_pair.class_alignment, tiny_pair.train_entity_pairs, tiny_pair.valid_entity_pairs,
        tiny_pair.test_entity_pairs,
    )
    m1, m2 = TransE(kg1, dim=8, rng=0), TransE(kg2, dim=8, rng=1)
    return JointAlignmentModel(pair, m1, m2, rng=0)


class TestBlockedCosine:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(23, 5)), rng.normal(size=(17, 5))
        expected = cosine_similarity_matrix(a, b)
        channels = CosineChannels([ChannelPair.from_raw(a, b)])
        # one tile is exactly the reference product
        assert np.array_equal(assemble_matrix(channels, 4096), expected)
        # forcing several blocks must not change the result
        assert np.allclose(assemble_matrix(channels, 7), expected)
        assert np.allclose(assemble_matrix(channels, 1), expected)


class TestTopKRows:
    @pytest.mark.parametrize("k", [1, 3, 7, 50])
    def test_agrees_with_full_argsort(self, k):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(12, 7))
        top = top_k_rows(matrix, k)
        full = np.argsort(-matrix, axis=1)[:, : min(k, 7)]
        # compare the selected values (ties may order indices differently)
        rows = np.arange(matrix.shape[0])[:, None]
        assert np.allclose(matrix[rows, top], matrix[rows, full])

    def test_zero_k_and_empty(self):
        assert top_k_rows(np.empty((3, 0)), 5).shape == (3, 0)
        assert top_k_rows(np.ones((2, 4)), 0).shape == (2, 0)


@pytest.fixture()
def rebuilds(monkeypatch) -> dict[ElementKind, int]:
    """Channel-set rebuilds per kind; a one-block rebuild is one tile product."""
    counts = {kind: 0 for kind in ElementKind}
    original = SimilarityEngine._keep

    def counting(self, kind, channels):
        counts[kind] += 1
        return original(self, kind, channels)

    monkeypatch.setattr(SimilarityEngine, "_keep", counting)
    return counts


class TestEngineCaching:
    """Caching is the channels' kept tile: one product per version token.

    ``fresh_model``'s similarities each fit one block, so every rebuild of a
    kind's channels is exactly one tile product, and every read of that
    token (``matrix`` included) slices the kept tile.
    """

    def test_repeated_calls_hit_cache(self, fresh_model, rebuilds, tile_products):
        engine = fresh_model.similarity
        first = engine.matrix(ElementKind.ENTITY)
        assert rebuilds[ElementKind.ENTITY] == 1 and tile_products[0] == 1
        second = engine.matrix(ElementKind.ENTITY)
        kept = engine.channels(ElementKind.ENTITY)._kept
        assert np.shares_memory(first, kept) and np.shares_memory(second, kept)
        assert rebuilds[ElementKind.ENTITY] == 1 and tile_products[0] == 1  # no recompute

    def test_optimizer_step_invalidates(self, fresh_model, rebuilds, tile_products):
        engine = fresh_model.similarity
        before = engine.matrix(ElementKind.ENTITY)
        optimizer = SGD(fresh_model.parameters(), lr=0.1)
        # give every parameter a gradient so step really changes them
        for p in optimizer.parameters:
            p.grad = np.ones_like(p.data)
        optimizer.step()
        after = engine.matrix(ElementKind.ENTITY)
        assert not np.shares_memory(after, before)
        assert not np.allclose(after, before)
        assert rebuilds[ElementKind.ENTITY] == 2 and tile_products[0] == 2

    def test_bump_without_change_recomputes_equal_matrix(self, fresh_model, rebuilds):
        engine = fresh_model.similarity
        before = engine.matrix(ElementKind.RELATION)
        bump_parameter_version()
        after = engine.matrix(ElementKind.RELATION)
        assert not np.shares_memory(after, before)
        assert np.allclose(after, before)
        assert rebuilds[ElementKind.RELATION] == 2

    def test_set_landmarks_invalidates_entity_matrix(self, fresh_model, rebuilds):
        engine = fresh_model.similarity
        fresh_model.set_landmarks(np.empty((0, 2)))
        before = engine.matrix(ElementKind.ENTITY)
        relation = engine.channels(ElementKind.RELATION)
        entity_rebuilds = rebuilds[ElementKind.ENTITY]
        fresh_model.set_landmarks(np.array([[0, 0]]))
        after = engine.matrix(ElementKind.ENTITY)
        assert not np.shares_memory(after, before)
        assert rebuilds[ElementKind.ENTITY] == entity_rebuilds + 1
        # relation similarities do not read the structural channel
        assert engine.channels(ElementKind.RELATION) is relation

    def test_all_kinds_round_trip(self, fresh_model, rebuilds, tile_products):
        engine = fresh_model.similarity
        for kind in ElementKind:
            matrix = engine.matrix(kind)
            assert np.array_equal(engine.matrix(kind), matrix)
            assert np.array_equal(fresh_model.similarity_matrix(kind), matrix)
        assert rebuilds == {kind: 1 for kind in ElementKind}
        assert tile_products[0] == 3  # one kept tile per kind

    def test_top_k_agrees_with_argsort(self, fresh_model):
        engine = fresh_model.similarity
        for_left, for_right = engine.top_k(ElementKind.ENTITY, 3)
        matrix = engine.matrix(ElementKind.ENTITY)
        rows = np.arange(matrix.shape[0])[:, None]
        full = np.argsort(-matrix, axis=1)[:, :3]
        assert np.allclose(matrix[rows, for_left], matrix[rows, full])
        rows_t = np.arange(matrix.shape[1])[:, None]
        full_t = np.argsort(-matrix.T, axis=1)[:, :3]
        assert np.allclose(matrix.T[rows_t, for_right], matrix.T[rows_t, full_t])

    def test_no_recomputation_within_training_round(self, fresh_model, rebuilds, tile_products):
        """One optimiser step never recomputes a similarity it already saw:
        every read between two bumps slices the token's kept tile."""
        trainer = JointAlignmentTrainer(
            fresh_model,
            AlignmentTrainingConfig(rounds=1, epochs_per_round=3, num_negatives=2),
            seed=0,
            semi_supervised=True,
        )
        trainer.add_matches(
            ElementKind.ENTITY,
            fresh_model.pair.entity_match_ids(fresh_model.pair.train_entity_pairs),
        )
        engine = trainer.engine
        trainer._refresh_round_state()
        # settle: the trailing set_landmarks may invalidate the entity channels
        # (semi-mined landmarks changed the structural channel) exactly once
        for kind in ElementKind:
            engine.matrix(kind)
        after_refresh = dict(rebuilds), tile_products[0]
        # between refreshes, reading every similarity many times costs nothing
        for _ in range(4):
            for kind in ElementKind:
                engine.matrix(kind)
                engine.top_k(kind, 2)
                engine.row_col_max(kind)
        assert (dict(rebuilds), tile_products[0]) == after_refresh
        # an optimiser step itself never triggers a similarity recomputation
        trainer._step()
        assert (dict(rebuilds), tile_products[0]) == after_refresh
        # one round of refresh plus mining costs at most one entity-channel
        # rebuild in total
        entity_rebuilds = rebuilds[ElementKind.ENTITY]
        trainer._refresh_round_state()
        engine.matrix(ElementKind.ENTITY)
        assert rebuilds[ElementKind.ENTITY] <= entity_rebuilds + 1
        # every product the round took was a channel rebuild's kept tile
        assert tile_products[0] == sum(rebuilds.values())

    def test_invalidate_clears_caches(self, fresh_model, rebuilds):
        engine = fresh_model.similarity
        engine.matrix(ElementKind.ENTITY)
        engine.top_k(ElementKind.ENTITY, 2)
        engine.invalidate()
        assert engine._channel_cache == {}
        engine.matrix(ElementKind.ENTITY)
        assert rebuilds[ElementKind.ENTITY] == 2

    def test_block_size_validation(self, fresh_model):
        with pytest.raises(ValueError):
            SimilarityEngine(fresh_model, block_size=0)


class TestVectorizedHardNegatives:
    def _trainer(self, fresh_model, seed=0):
        trainer = JointAlignmentTrainer(
            fresh_model,
            AlignmentTrainingConfig(rounds=1, epochs_per_round=1, num_negatives=4),
            seed=seed,
            semi_supervised=True,
        )
        trainer._refresh_hard_candidates()
        return trainer

    def test_shape_and_interleaving(self, fresh_model):
        trainer = self._trainer(fresh_model)
        matches = np.array([[0, 0], [1, 1], [2, 2]])
        negatives = trainer._hard_negatives(matches, 4)
        assert negatives.shape == (12, 2)
        # row i*4+j corrupts match i: one side always equals the positive side
        for i, (left, right) in enumerate(matches):
            block = negatives[i * 4 : (i + 1) * 4]
            assert np.all((block[:, 0] == left) | (block[:, 1] == right))

    def test_never_returns_the_positive_pair(self, fresh_model):
        matches = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        positives = {tuple(m) for m in matches}
        for seed in range(20):
            trainer = self._trainer(fresh_model, seed=seed)
            negatives = trainer._hard_negatives(matches, 8)
            produced = {tuple(row) for row in negatives.tolist()}
            assert not produced & positives

    def test_same_rng_same_negatives(self, fresh_model):
        matches = np.array([[0, 0], [1, 1]])
        a = self._trainer(fresh_model, seed=7)._hard_negatives(matches, 6)
        b = self._trainer(fresh_model, seed=7)._hard_negatives(matches, 6)
        assert np.array_equal(a, b)

    def test_candidates_come_from_hard_pool(self, fresh_model):
        trainer = self._trainer(fresh_model)
        top_for_left, top_for_right = trainer._hard_candidates
        matches = np.array([[0, 0], [1, 1], [2, 2]])
        negatives = trainer._hard_negatives(matches, 10)
        # every corrupted value must be a mined candidate of its anchor (or the
        # deterministic fallback, which cannot occur here because pool > 1)
        for i, (left, right) in enumerate(matches):
            block = negatives[i * 10 : (i + 1) * 10]
            for nl, nr in block:
                if nl == left:
                    assert nr in top_for_left[left]
                else:
                    assert nl in top_for_right[right]

    def test_no_candidates_returns_empty(self, fresh_model):
        trainer = JointAlignmentTrainer(
            fresh_model, AlignmentTrainingConfig(), seed=0, semi_supervised=True
        )
        trainer._hard_candidates = None
        assert trainer._hard_negatives(np.array([[0, 0]]), 3).shape == (0, 2)

    def test_asymmetric_kgs_draw_within_each_table(self, fresh_model, monkeypatch):
        """Regression: slots must respect each top-k table's own width.

        When one KG is smaller than the configured pool the two candidate
        tables have different column counts; drawing every slot over the wider
        table used to raise IndexError on the narrower one."""
        monkeypatch.setattr(trainer_module, "HARD_NEGATIVE_POOL", 50)
        trainer = JointAlignmentTrainer(
            fresh_model,
            AlignmentTrainingConfig(rounds=1, epochs_per_round=1),
            seed=0,
            semi_supervised=True,
        )
        trainer._refresh_hard_candidates()
        top_for_left, top_for_right = trainer._hard_candidates
        # simulate the asymmetric case by narrowing one table
        trainer._hard_candidates = (top_for_left, top_for_right[:, :2])
        matches = np.array([[0, 0], [1, 1], [2, 2]])
        negatives = trainer._hard_negatives(matches, 20)  # must not raise
        assert negatives.shape == (60, 2)
        assert not {tuple(m) for m in matches} & {tuple(r) for r in negatives.tolist()}


class TestLabelStore:
    def test_add_is_deduplicated_and_ordered(self):
        store = LabelStore()
        store.add(ElementKind.ENTITY, (0, 0), True)
        store.add(ElementKind.ENTITY, (1, 1), True)
        store.add(ElementKind.ENTITY, (0, 0), True)
        assert store.matches[ElementKind.ENTITY] == [(0, 0), (1, 1)]
        assert store.labelled_pairs(ElementKind.ENTITY) == {(0, 0), (1, 1)}

    def test_match_and_non_match_sets_are_independent(self):
        store = LabelStore()
        store.add(ElementKind.RELATION, (0, 0), True)
        store.add(ElementKind.RELATION, (0, 0), False)
        assert store.matches[ElementKind.RELATION] == [(0, 0)]
        assert store.non_matches[ElementKind.RELATION] == [(0, 0)]
        assert store.num_labels() == 2


class TestImmutablePool:
    def test_lists_are_normalised_to_tuples(self):
        pool = ElementPairPool([(0, 0)], [(0, 1)], [])
        for kind in ElementKind:
            sides = pool.sides(kind)
            assert sides.dtype == np.int64 and sides.shape[1] == 2
        assert pool.pair(0) == entity_pair(0, 0)
        assert pool.pair(1) == relation_pair(0, 1)
        assert pool.pair_ids(ElementKind.RELATION, [0, 1], [1, 0]).tolist() == [1, -1]
        assert len(pool) == 2

    def test_pool_is_frozen(self):
        given = np.array([[0, 0], [1, 2]])
        pool = ElementPairPool(given, (), ())
        given[0, 0] = 5  # the pool holds its own copy
        assert pool.sides(ElementKind.ENTITY).tolist() == [[0, 0], [1, 2]]
        with pytest.raises(ValueError):
            pool.sides(ElementKind.ENTITY)[0, 0] = 3

    def test_recall_of_matches(self):
        pool = ElementPairPool([(0, 0), (1, 2)], (), ())
        assert pool.recall_of_matches({(0, 0), (5, 5)}) == 0.5
        assert pool.recall_of_matches(set()) == 0.0

    def test_build_pool_mutual_top_n(self, fresh_model):
        pool = build_pool(fresh_model, PoolConfig(top_n=2))
        sides = pool.sides(ElementKind.ENTITY)
        assert len(sides) > 0
        # membership checks agree with the side arrays
        ids = pool.pair_ids(ElementKind.ENTITY, sides[:, 0], sides[:, 1])
        assert ids.tolist() == list(range(len(sides)))
