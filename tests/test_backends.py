"""Streamed engine queries against a NumPy oracle, kernels, and the zero-norm guard.

The contract under test: for the *same* model state, the similarity engine
serves the same top-k indices, the same ranks and therefore the same
``evaluate()`` metrics as the full-matrix functions applied to a NumPy
oracle — the engine's channels assembled in one product each
(:func:`dense_of`) — including after landmark updates and serving fold-ins,
while never materialising the full matrix on its query paths.  Every check
runs on two engines: one whose block covers the fitted pair (the channels
keep their one full tile, so values are bit-equal to the oracle) and one
with a small block (tiles are streamed; tiled BLAS reductions can round
differently in the last ulp, so values are compared with ``atol=1e-12``
while index and metric checks stay exact).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alignment import (
    SimilarityEngine,
    entity_weights,
    evaluate_alignment,
    evaluate_alignment_from_engine,
    mine_potential_matches,
)
from repro.core.config import DAAKGConfig
from repro.kg.elements import ElementKind
from repro.runtime import (
    ChannelPair,
    CosineChannels,
    canonical_topk,
    mutual_top_n,
    stream_row_col_max,
    stream_threshold_candidates,
    stream_topk,
)
from repro.runtime.streaming import assemble_matrix
from repro.serving import serve
from repro.updates import KGDelta
from repro.utils.math import cosine_similarity_matrix, safe_l2_normalize, top_k_rows
from matching_oracle import evaluate_dense, mine_dense

ATOL = 1e-12


def random_channels(seed=0, n=57, m=43, d=9, num_channels=2) -> CosineChannels:
    rng = np.random.default_rng(seed)
    pairs = [
        ChannelPair.from_raw(rng.normal(size=(n, d)), rng.normal(size=(m, d)))
        for _ in range(num_channels)
    ]
    return CosineChannels(pairs)


def dense_of(channels: CosineChannels) -> np.ndarray:
    out = None
    for pair in channels.pairs:
        tile = pair.left @ pair.right.T
        out = tile if out is None else np.maximum(out, tile)
    if out is None:
        out = np.zeros(channels.shape)
    if channels.clip_at_zero:
        out = np.maximum(out, 0.0)
    return out


# ------------------------------------------------------------ kernel parity
class TestStreamingKernels:
    @pytest.mark.parametrize("block", [7, 16, 1024])
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_stream_topk_matches_dense(self, block, k):
        channels = random_channels()
        matrix = dense_of(channels)
        idx, val = stream_topk(channels, k, block=block)
        expected = top_k_rows(matrix, k)
        assert np.array_equal(idx, expected)
        rows = np.arange(matrix.shape[0])[:, None]
        np.testing.assert_allclose(val, matrix[rows, expected], rtol=0, atol=ATOL)

    def test_canonical_topk_breaks_ties_by_index(self):
        values = np.array([[1.0, 2.0, 2.0, 0.5, 2.0]])
        indices = np.array([[40, 30, 10, 0, 20]])
        top_v, top_i = canonical_topk(values, indices, 3)
        assert top_v.tolist() == [[2.0, 2.0, 2.0]]
        assert top_i.tolist() == [[10, 20, 30]]  # equal values: ascending index

    def test_stream_row_max_exact(self):
        channels = random_channels(seed=5)
        matrix = dense_of(channels)
        row_max, _ = stream_row_col_max(channels, block=11)
        assert np.array_equal(row_max, matrix.max(axis=1))
        transposed_row_max, _ = stream_row_col_max(channels.transpose(), block=11)
        assert np.array_equal(transposed_row_max, matrix.max(axis=0))

    @pytest.mark.parametrize("num_channels", [1, 3])
    def test_stream_row_col_max_fused(self, num_channels):
        channels = random_channels(seed=6, num_channels=num_channels)
        matrix = dense_of(channels)
        row_max, col_max = stream_row_col_max(channels, block=11)
        assert np.array_equal(row_max, matrix.max(axis=1))
        assert np.array_equal(col_max, matrix.max(axis=0))

    def test_threshold_candidates_row_major(self):
        channels = random_channels(seed=7)
        matrix = dense_of(channels)
        rows, cols, values = stream_threshold_candidates(channels, 0.3, block=13)
        er, ec = np.where(matrix >= 0.3)
        assert np.array_equal(rows, er) and np.array_equal(cols, ec)
        np.testing.assert_allclose(values, matrix[er, ec], rtol=0, atol=ATOL)

    def test_mutual_top_n_matches_dense_masks(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(40, 6)), rng.normal(size=(33, 6))
        lefts, rights = mutual_top_n(a, b, 5, block=9)
        similarity = cosine_similarity_matrix(a, b)
        top_left = top_k_rows(similarity, 5)
        top_right = top_k_rows(similarity.T, 5)
        in_left = np.zeros(similarity.shape, dtype=bool)
        in_left[np.arange(40)[:, None], top_left] = True
        in_right = np.zeros(similarity.shape, dtype=bool)
        in_right[top_right, np.arange(33)[:, None]] = True
        er, ec = np.nonzero(in_left & in_right)
        assert np.array_equal(lefts, er) and np.array_equal(rights, ec)

    def test_clip_at_zero_channel(self):
        channels = random_channels(seed=13, num_channels=1)
        clipped = CosineChannels(channels.pairs, clip_at_zero=True)
        matrix = dense_of(clipped)
        assert matrix.min() >= 0.0
        idx, val = stream_topk(clipped, 4, block=10)
        rows = np.arange(matrix.shape[0])[:, None]
        np.testing.assert_allclose(val, matrix[rows, top_k_rows(matrix, 4)], rtol=0, atol=ATOL)

    def test_threshold_candidates_with_zero_norm_rows(self):
        # zero-norm factor rows similarity is exactly 0 on both axes: they
        # must appear for threshold <= 0 and vanish for any positive one
        rng = np.random.default_rng(17)
        left, right = rng.normal(size=(12, 5)), rng.normal(size=(9, 5))
        left[3] = 0.0
        right[[0, 7]] = 0.0
        channels = CosineChannels([ChannelPair.from_raw(left, right)])
        matrix = dense_of(channels)
        assert np.array_equal(matrix[3], np.zeros(9))
        for threshold in (-0.5, 0.0, 1e-9, 0.4):
            rows, cols, values = stream_threshold_candidates(channels, threshold, block=4)
            er, ec = np.where(matrix >= threshold)
            assert np.array_equal(rows, er) and np.array_equal(cols, ec)
            np.testing.assert_allclose(values, matrix[er, ec], rtol=0, atol=ATOL)

    def test_mutual_top_n_with_zero_norm_rows(self):
        rng = np.random.default_rng(19)
        a, b = rng.normal(size=(15, 4)), rng.normal(size=(11, 4))
        a[[2, 8]] = 0.0
        b[5] = 0.0
        lefts, rights = mutual_top_n(a, b, 3, block=5)
        similarity = cosine_similarity_matrix(a, b)
        top_left = top_k_rows(similarity, 3)
        top_right = top_k_rows(similarity.T, 3)
        in_left = np.zeros(similarity.shape, dtype=bool)
        in_left[np.arange(15)[:, None], top_left] = True
        in_right = np.zeros(similarity.shape, dtype=bool)
        in_right[top_right, np.arange(11)[:, None]] = True
        er, ec = np.nonzero(in_left & in_right)
        assert np.array_equal(lefts, er) and np.array_equal(rights, ec)

    def test_empty_channel_list_with_explicit_shape(self):
        # a KG pair without classes yields channel-less similarities; every
        # kernel must honour the explicit shape instead of crashing
        channels = CosineChannels([], shape=(6, 4))
        rows, cols, values = stream_threshold_candidates(channels, 0.5, block=3)
        assert rows.size == cols.size == values.size == 0
        rows, cols, values = stream_threshold_candidates(channels, -1.0, block=3)
        assert rows.size == 24  # the all-zero matrix passes a negative threshold
        idx, val = stream_topk(channels, 2, block=3)
        assert idx.shape == (6, 2) and np.array_equal(val, np.zeros((6, 2)))
        row_max, col_max = stream_row_col_max(channels, block=3)
        assert np.array_equal(row_max, np.zeros(6)) and np.array_equal(col_max, np.zeros(4))

    def test_topk_clamps_k_beyond_num_cols(self):
        channels = random_channels(seed=23, n=7, m=5)
        matrix = dense_of(channels)
        idx, val = stream_topk(channels, 12, block=2)  # k > num_cols clamps to 5
        assert idx.shape == (7, 5)
        order = np.argsort(-matrix, axis=1, kind="stable")
        assert np.array_equal(idx, order)
        # mutual_top_n with n beyond both side widths keeps every pair
        rng = np.random.default_rng(29)
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        lefts, rights = mutual_top_n(a, b, 99, block=3)
        assert lefts.size == 24 and rights.size == 24

    @pytest.mark.parametrize(
        "rows, cols, n, block, ties",
        [
            (7, 20, 9, 5, False),  # n >= rows
            (25, 6, 8, 4, False),  # n >= cols
            (6, 4, 99, 3, False),  # n beyond both sides: every pair
            (40, 33, 5, 9, True),  # heavy exact ties, including zero-norm rows
            (40, 33, 12, 64, True),
            (9, 30, 10, 4, True),
            (0, 5, 3, 4, False),  # empty sides
            (5, 0, 3, 4, False),
            (5, 4, 0, 4, False),
        ],
    )
    def test_mutual_top_n_matches_the_dense_mask_oracle(self, rows, cols, n, block, ties):
        rng = np.random.default_rng(rows * 100 + cols + n)
        if ties:
            # three-valued factors repeat rows, so many cosines tie exactly
            a = rng.integers(-1, 2, size=(rows, 3)).astype(float)
            b = rng.integers(-1, 2, size=(cols, 3)).astype(float)
        else:
            a, b = rng.normal(size=(rows, 4)), rng.normal(size=(cols, 4))
        lefts, rights = mutual_top_n(a, b, n, block=block)
        assert lefts.dtype == rights.dtype == np.int64
        if rows == 0 or cols == 0 or n < 1:
            assert lefts.size == rights.size == 0
            return
        # the oracle marks the same top-n lists in two dense masks
        channels = CosineChannels([ChannelPair.from_raw(a, b)]).keep_tile(block)
        top_left, _ = stream_topk(channels, n, block)
        top_right, _ = stream_topk(channels.transpose(), n, block)
        in_left = np.zeros((rows, cols), dtype=bool)
        in_left[np.arange(rows)[:, None], top_left] = True
        in_right = np.zeros((rows, cols), dtype=bool)
        in_right[top_right, np.arange(cols)[:, None]] = True
        er, ec = np.nonzero(in_left & in_right)
        assert np.array_equal(lefts, er) and np.array_equal(rights, ec)
        if n >= max(rows, cols):
            assert lefts.size == rows * cols


# ---------------------------------------------------------- zero-norm guard
class TestZeroNormGuard:
    def test_safe_normalize_zero_rows_stay_zero(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [1e-300, 0.0]])
        normed = safe_l2_normalize(x)
        np.testing.assert_array_equal(normed[1], [0.0, 0.0])
        np.testing.assert_array_equal(normed[2], [0.0, 0.0])
        np.testing.assert_allclose(normed[0], [0.6, 0.8])
        assert np.all(np.isfinite(normed))

    def test_blocked_cosine_guards_zero_rows(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(9, 4))
        a[3] = 0.0  # zero-norm embedding row
        a[5] = 1e-14  # sub-eps norm: x / eps used to leak garbage similarities
        b = rng.normal(size=(6, 4))
        b[2] = 0.0
        channels = CosineChannels([ChannelPair.from_raw(a, b)])
        for block in (2, 4096):  # 4096 covers the single-tile path
            sim = assemble_matrix(channels, block)
            assert np.all(np.isfinite(sim))
            np.testing.assert_array_equal(sim[3], np.zeros(6))
            np.testing.assert_array_equal(sim[5], np.zeros(6))
            np.testing.assert_array_equal(sim[:, 2], np.zeros(9))

    def test_zero_rows_never_poison_topk(self):
        rng = np.random.default_rng(1)
        left = rng.normal(size=(8, 5))
        left[0] = 0.0
        right = rng.normal(size=(7, 5))
        channels = CosineChannels([ChannelPair.from_raw(left, right)])
        idx, val = stream_topk(channels, 3, block=4)
        assert np.all(np.isfinite(val))
        np.testing.assert_array_equal(val[0], np.zeros(3))  # all-tied at exactly 0


# ------------------------------------------------------------ configuration
def test_config_accepts_only_sharded():
    config = DAAKGConfig()
    assert config.similarity_backend == "sharded"
    for retired in ("dense", "faiss", "ann"):
        with pytest.raises(ValueError):
            DAAKGConfig(similarity_backend=retired)
    # round-trips through the JSON form (checkpoint manifests)
    assert DAAKGConfig.from_json(config.to_json()).similarity_backend == "sharded"


# ------------------------------------------------------------- kept tile
class TestKeptTile:
    def test_kept_tile_answers_like_the_factors(self):
        channels = random_channels(seed=31)
        kept = random_channels(seed=31).keep_tile(64)
        assert kept._kept is not None and not kept._kept.flags.writeable
        rows, cols = np.array([4, 0, 4, 40]), np.array([3, 42, 7])
        for got, expected in (
            (kept.tile(slice(2, 9), cols), channels.tile(slice(2, 9), cols)),
            (kept.tile(rows, cols), channels.tile(rows, cols)),
            (kept.select_rows(rows).tile(slice(None), slice(None)), channels.tile(rows, slice(None))),
            (kept.select_cols(cols).tile(slice(None), slice(None)), channels.tile(slice(None), cols)),
            (kept.transpose().tile(cols, rows), channels.tile(rows, cols).T),
            (kept.pair_values(rows[:3], cols), channels.pair_values(rows[:3], cols)),
        ):
            np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)

    def test_no_tile_kept_beyond_one_block(self):
        channels = random_channels(seed=37).keep_tile(16)  # 57 x 43 > 16
        assert channels._kept is None
        matrix = dense_of(channels)
        np.testing.assert_allclose(assemble_matrix(channels, 16), matrix, rtol=0, atol=ATOL)


def test_one_block_engine_reads_the_kept_tile(tile_products, small_benchmark, fast_config):
    from repro import DAAKG
    from repro.nn.optim import SGD

    model = DAAKG(small_benchmark, fast_config).model
    engine = model.similarity
    kind = ElementKind.ENTITY
    num_rows, num_cols = engine.shape(kind)
    assert max(num_rows, num_cols) <= engine.block_size
    products = tile_products
    model.snapshot  # the refresh streams its weights from the kept tile
    channels = engine.channels(kind)
    assert products[0] == 1  # the one full tile, kept
    lefts = np.arange(0, num_rows, 3)
    rights = np.arange(lefts.shape[0]) % num_cols
    rows = engine.rows(kind, lefts)
    probabilities = engine.pair_probabilities(kind, lefts, rights, 0.1)
    table = engine.top_k_table(kind, 5)
    candidates = engine.threshold_candidates(kind, 0.5)
    assert products[0] == 1  # every query sliced the kept tile
    oracle = dense_of(channels)
    np.testing.assert_array_equal(rows, oracle[lefts])
    assert np.all((probabilities > 0) & (probabilities <= 1))
    np.testing.assert_array_equal(table.left_values[:, 0], oracle.max(axis=1))
    assert np.array_equal(candidates[0], np.nonzero(oracle >= 0.5)[0])

    # an optimiser step moves the token: the channels and their tile go
    optimizer = SGD(model.parameters(), lr=0.1)
    for p in optimizer.parameters:
        p.grad = np.ones_like(p.data)
    optimizer.step()
    engine.rows(kind, lefts)
    rebuilt = engine.channels(kind)
    assert rebuilt is not channels and rebuilt._kept is not channels._kept
    assert not np.allclose(rebuilt._kept, channels._kept)
    assert products[0] == 2  # one new tile for the new token


# ------------------------------------------------------ fitted-model parity
@pytest.fixture(scope="module")
def engines(fitted_pipeline):
    """The fitted model's one-block engine plus a fresh small-block engine."""
    model = fitted_pipeline.model
    one_block = model.similarity
    assert max(one_block.shape(ElementKind.ENTITY)) <= one_block.block_size
    return one_block, SimilarityEngine(model, block_size=64)


def oracle(engine: SimilarityEngine, kind: ElementKind) -> np.ndarray:
    """The NumPy oracle: the engine's channels assembled in one product each."""
    return dense_of(engine.channels(kind))


KINDS = [ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS]


def assert_same_topk(o_idx, o_val, e_idx, e_val):
    """Equal top-k up to tie order.

    ``top_k_rows``'s argpartition orders exact ties arbitrarily; the
    streamed merge orders them by ascending index.  Canonicalising both
    sides by (their own value desc, index asc) makes the comparison
    order-insensitive for ties while still exact for distinct values.
    """
    np.testing.assert_allclose(e_val, o_val, rtol=0, atol=ATOL)
    o_val_c, o_idx_c = canonical_topk(o_val, o_idx, o_idx.shape[1])
    e_val_c, e_idx_c = canonical_topk(e_val, e_idx, e_idx.shape[1])
    assert np.array_equal(o_idx_c, e_idx_c)
    np.testing.assert_allclose(e_val_c, o_val_c, rtol=0, atol=ATOL)


def oracle_top_k(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    idx = top_k_rows(matrix, k)
    return idx, matrix[np.arange(matrix.shape[0])[:, None], idx]


class TestBackendParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_full_matrix_parity(self, engines, kind):
        one_block, streamed = engines
        np.testing.assert_array_equal(one_block.matrix(kind), oracle(one_block, kind))
        np.testing.assert_allclose(
            streamed.matrix(kind), oracle(streamed, kind), rtol=0, atol=ATOL
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_top_k_indices_and_values(self, engines, kind):
        k = 10
        for engine in engines:
            matrix = oracle(engine, kind)
            table = engine.top_k_table(kind, k)
            assert_same_topk(*oracle_top_k(matrix, k), table.left_indices, table.left_values)
            assert_same_topk(
                *oracle_top_k(matrix.T, k), table.right_indices, table.right_values
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_cols_row_max(self, engines, kind):
        one_block, streamed = engines
        num_rows, num_cols = one_block.shape(kind)
        assert streamed.shape(kind) == (num_rows, num_cols)
        if num_rows == 0 or num_cols == 0:
            pytest.skip("empty similarity")
        idx = np.arange(0, num_rows, 2)
        matrix = oracle(one_block, kind)
        np.testing.assert_array_equal(one_block.rows(kind, idx), matrix[idx])
        np.testing.assert_allclose(streamed.rows(kind, idx), matrix[idx], rtol=0, atol=ATOL)
        # both directions' maxima: exact on the kept tile, to an ulp streamed
        row_max, col_max = one_block.row_col_max(kind)
        np.testing.assert_array_equal(row_max, matrix.max(axis=1))
        np.testing.assert_array_equal(col_max, matrix.max(axis=0))
        row_max, col_max = streamed.row_col_max(kind)
        np.testing.assert_allclose(row_max, matrix.max(axis=1), rtol=0, atol=ATOL)
        np.testing.assert_allclose(col_max, matrix.max(axis=0), rtol=0, atol=ATOL)

    def test_evaluate_metrics_identical(self, fitted_pipeline, engines):
        # both entries against the per-row rank loops and the sequential walk
        gold = fitted_pipeline.pair.entity_match_ids(fitted_pipeline.pair.test_entity_pairs)
        for engine in engines:
            matrix = oracle(engine, ElementKind.ENTITY)
            expected = evaluate_dense(matrix, gold)
            assert evaluate_alignment(matrix, gold) == expected
            assert evaluate_alignment_from_engine(engine, ElementKind.ENTITY, gold) == expected

    def test_mining_identical(self, fitted_pipeline, engines):
        labels = fitted_pipeline.trainer.labels
        matches = labels.match_array(ElementKind.ENTITY)
        for engine in engines:
            for kwargs in ({}, {"matches": matches[: len(matches) // 2]}):
                pairs, soft = mine_potential_matches(
                    engine, ElementKind.ENTITY, threshold=0.6, **kwargs
                )
                expected_pairs, expected_soft = mine_dense(
                    oracle(engine, ElementKind.ENTITY), 0.6, **kwargs
                )
                assert len(pairs)
                np.testing.assert_array_equal(pairs, expected_pairs)
                np.testing.assert_allclose(soft, expected_soft, rtol=0, atol=ATOL)

    def test_calibration_identical(self, fitted_pipeline, engines):
        rng = np.random.default_rng(0)
        num_rows, num_cols = engines[0].shape(ElementKind.ENTITY)
        lefts = rng.integers(0, num_rows, size=20)
        rights = rng.integers(0, num_cols, size=20)
        calibrator = fitted_pipeline.calibrator
        for engine in engines:
            matrix = oracle(engine, ElementKind.ENTITY)
            expected = calibrator.probability_matrix(matrix, ElementKind.ENTITY)[lefts, rights]
            got = calibrator.pair_probabilities_from_engine(
                engine, ElementKind.ENTITY, lefts, rights
            )
            np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)
            slab_based = calibrator.pair_probabilities_from_slabs(
                matrix[lefts], matrix[:, rights], ElementKind.ENTITY, lefts, rights
            )
            np.testing.assert_allclose(slab_based, got, rtol=0, atol=ATOL)

    def test_parity_survives_landmark_update(self, fitted_pipeline, engines):
        model = fitted_pipeline.model
        previous = model._landmarks
        gold = fitted_pipeline.pair.entity_match_ids(fitted_pipeline.pair.test_entity_pairs)
        try:
            extended = np.unique(np.concatenate([previous, gold[:5]]), axis=0)
            model.set_landmarks(extended)
            for engine in engines:
                matrix = oracle(engine, ElementKind.ENTITY)
                table = engine.top_k_table(ElementKind.ENTITY, 5)
                assert_same_topk(*oracle_top_k(matrix, 5), table.left_indices, table.left_values)
                expected = evaluate_dense(matrix, gold)
                assert evaluate_alignment_from_engine(engine, ElementKind.ENTITY, gold) == expected
        finally:
            model.set_landmarks(previous)


class TestBitExactParity:
    """The refresh's weights are the maxima of the matrix the engine serves."""

    @pytest.fixture(scope="class", params=["full", "class_embeddings", "mean_embeddings"])
    def model(self, request, small_benchmark, fast_config):
        from repro import DAAKG

        return DAAKG(small_benchmark, fast_config.with_ablation(request.param)).model

    @pytest.mark.parametrize("block_size", [64, 4096])
    def test_matrices_and_weights_bit_equal(self, model, block_size):
        engine = SimilarityEngine(model, block_size)
        landmarks = model.pair.entity_match_ids(model.pair.train_entity_pairs)
        original = model.similarity
        try:
            model.similarity = engine
            # before landmarks (all-zero structural channel), then after
            for update in (np.empty((0, 2)), landmarks[:20]):
                model.set_landmarks(update)
                snap = model.refresh_statistics()
                w1, w2 = entity_weights(engine.matrix(ElementKind.ENTITY))
                assert np.array_equal(snap.weights_1, w1)
                assert np.array_equal(snap.weights_2, w2)
                for kind in KINDS:
                    fits = max(engine.shape(kind)) <= block_size
                    if fits:
                        assert np.array_equal(engine.matrix(kind), oracle(engine, kind))
                    else:
                        np.testing.assert_allclose(
                            engine.matrix(kind), oracle(engine, kind), rtol=0, atol=ATOL
                        )
        finally:
            model.similarity = original


# ------------------------------------------------------------ serving parity
class TestServingParity:
    @pytest.fixture()
    def two_services(self, fitted_pipeline):
        """A one-block and a streamed service, frozen from the same fitted state."""
        model = fitted_pipeline.model
        original = model.similarity
        one_block = serve(fitted_pipeline)
        try:
            model.similarity = SimilarityEngine(model, block_size=64)
            streamed = serve(fitted_pipeline)
        finally:
            model.similarity = original
        return one_block, streamed

    def test_queries_agree(self, fitted_pipeline, two_services):
        matrix = oracle(fitted_pipeline.model.similarity, ElementKind.ENTITY)
        kg1, kg2 = fitted_pipeline.kg1, fitted_pipeline.kg2
        uris = list(kg1.entities[:6])
        top, values = oracle_top_k(matrix[:6], 5)
        pairs = [(kg1.entities[i], kg2.entities[j]) for i, j in ((0, 0), (2, 5), (7, 1))]
        ids = np.array([[0, 0], [2, 5], [7, 1]])
        probabilities = fitted_pipeline.calibrator.probability_matrix(matrix, ElementKind.ENTITY)
        for service in two_services:
            for row, ranked in enumerate(service.top_k_alignments(uris, k=5)):
                assert [name for name, _ in ranked] == [kg2.entities[j] for j in top[row]]
                np.testing.assert_allclose(
                    [v for _, v in ranked], values[row], rtol=0, atol=ATOL
                )
            np.testing.assert_allclose(
                service.score_pairs(pairs), matrix[ids[:, 0], ids[:, 1]], rtol=0, atol=ATOL
            )
            np.testing.assert_allclose(
                service.pair_probabilities(pairs),
                probabilities[ids[:, 0], ids[:, 1]],
                rtol=0,
                atol=ATOL,
            )

    def test_fold_in_agrees(self, fitted_pipeline, two_services):
        one_block, streamed = two_services
        kg2 = fitted_pipeline.kg2
        victim = max(range(kg2.num_entities), key=kg2.entity_degree)
        triples = [
            ("folded:parity", kg2.relations[r], kg2.entities[t])
            for r, t in kg2.out_edges(victim)[:6]
        ]
        delta = KGDelta.single_entity("folded:parity", triples)
        one_block.apply_delta(delta)
        streamed.apply_delta(delta)
        probes = [(fitted_pipeline.kg1.entities[i], "folded:parity") for i in range(5)]
        np.testing.assert_allclose(
            streamed.score_pairs(probes), one_block.score_pairs(probes), rtol=0, atol=ATOL
        )
        # the folded column participates identically in ranked queries: same
        # rank and same score from the kept tile and from streamed tiles
        # (deep ranks can contain exact ties whose order is arbitrary, so
        # compare the fold itself)
        uris = [fitted_pipeline.kg1.entities[0]]
        o_top = one_block.top_k_alignments(uris, k=kg2.num_entities + 1)[0]
        s_top = streamed.top_k_alignments(uris, k=kg2.num_entities + 1)[0]
        o_rank = [name for name, _ in o_top].index("folded:parity")
        s_rank = [name for name, _ in s_top].index("folded:parity")
        assert o_rank == s_rank
        assert s_top[s_rank][1] == pytest.approx(o_top[o_rank][1], abs=ATOL)
        np.testing.assert_allclose(
            [v for _, v in s_top], [v for _, v in o_top], rtol=0, atol=ATOL
        )


# -------------------------------------------------------- checkpoint parity
class TestBackendPersistence:
    @pytest.fixture(scope="class")
    def pipeline(self, small_benchmark):
        from repro import DAAKG
        from repro.alignment.trainer import AlignmentTrainingConfig
        from repro.embedding.trainer import EmbeddingTrainingConfig

        config = DAAKGConfig(
            base_model="transe",
            entity_dim=8,
            class_dim=4,
            pretrain=EmbeddingTrainingConfig(epochs=2),
            alignment=AlignmentTrainingConfig(
                rounds=1, epochs_per_round=4, num_negatives=3,
                embedding_batches_per_round=1, embedding_batch_size=128,
            ),
            seed=0,
        )
        return DAAKG(small_benchmark, config).fit()

    def test_round_trip_recomputes_topk_without_storing_it(self, pipeline, tmp_path):
        table = pipeline.model.similarity.top_k_table(ElementKind.ENTITY, 5)
        before = {k: v.as_dict() for k, v in pipeline.evaluate().items()}
        pipeline.save(tmp_path / "ckpt")
        with np.load(tmp_path / "ckpt" / "arrays.npz") as npz:
            assert not any(key.startswith("topk/") for key in npz.files)

        from repro import DAAKG

        restored = DAAKG.load(tmp_path / "ckpt")
        # restoration is bit-exact, so the recomputed table is the live one
        again = restored.model.similarity.top_k_table(ElementKind.ENTITY, 5)
        for name in ("left_indices", "left_values", "right_indices", "right_values"):
            live, recomputed = getattr(table, name), getattr(again, name)
            assert live.dtype == recomputed.dtype and live.shape == recomputed.shape
            assert live.tobytes() == recomputed.tobytes()
        after = {k: v.as_dict() for k, v in restored.evaluate().items()}
        assert before == after

    def test_manifest_without_backend(self, pipeline, tmp_path):
        pipeline.save(tmp_path / "ckpt")
        from repro import load_checkpoint

        checkpoint = load_checkpoint(tmp_path / "ckpt")
        assert "similarity_backend" not in checkpoint.manifest
        assert checkpoint.manifest["config"]["similarity_backend"] == "sharded"
