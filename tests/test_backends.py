"""Dense ↔ sharded backend parity, streaming kernels, and the zero-norm guard.

The contract under test: for the *same* model state, the sharded backend
serves the same top-k indices, the same ranks and therefore the same
``evaluate()`` metrics as the dense backend — including after landmark
updates and serving fold-ins — while never materialising the full matrix on
its query paths.  Both backends assemble the same channel factors, so at one
block size their matrices and dangling-entity weights are bit-equal
(``TestBitExactParity``).  Raw values may differ in the last ulp only between
*different* block sizes (tiled BLAS reductions round differently), so the
cross-block-size comparisons keep index/metric checks exact and compare
values with ``atol=1e-12``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alignment import (
    SimilarityEngine,
    evaluate_alignment,
    evaluate_alignment_from_engine,
    mine_potential_matches,
    mine_potential_matches_from_engine,
)
from repro.core.config import DAAKGConfig
from repro.kg.elements import ElementKind
from repro.runtime import (
    ChannelPair,
    CosineChannels,
    canonical_topk,
    mutual_top_n,
    resolve_backend_name,
    stream_row_col_max,
    stream_threshold_candidates,
    stream_topk,
)
from repro.runtime.backends import assemble_matrix
from repro.serving import serve
from repro.updates import KGDelta
from repro.utils.math import cosine_similarity_matrix, safe_l2_normalize, top_k_rows

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


# -------------------------------------------------------- backend selection
class TestBackendSelection:
    def test_env_overrides_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMILARITY_BACKEND", "sharded")
        assert resolve_backend_name("dense") == "sharded"
        monkeypatch.delenv("REPRO_SIMILARITY_BACKEND")
        assert resolve_backend_name("dense") == "dense"
        assert resolve_backend_name(None) == "dense"
        for retired in ("faiss", "ann"):  # "ann" is a retired backend
            with pytest.raises(ValueError):
                resolve_backend_name(retired)
            monkeypatch.setenv("REPRO_SIMILARITY_BACKEND", retired)
            with pytest.raises(ValueError):
                resolve_backend_name("dense")
            monkeypatch.delenv("REPRO_SIMILARITY_BACKEND")

    def test_config_validates_backend(self):
        config = DAAKGConfig(similarity_backend="sharded")
        assert config.similarity_backend == "sharded"
        for retired in ("faiss", "ann"):
            with pytest.raises(ValueError):
                DAAKGConfig(similarity_backend=retired)
        # round-trips through the JSON form (checkpoint manifests)
        assert DAAKGConfig.from_json(config.to_json()).similarity_backend == "sharded"


# ------------------------------------------------------ fitted-model parity
def forced_engine(model, name: str, block_size: int = 64) -> SimilarityEngine:
    """An engine pinned to ``name`` regardless of REPRO_SIMILARITY_BACKEND."""
    from repro.runtime import create_backend

    engine = SimilarityEngine(model, block_size=block_size)
    engine.backend = create_backend(engine, name)
    return engine


@pytest.fixture(scope="module")
def engines(fitted_pipeline):
    """The fitted model's engine plus a fresh engine on the *other* backend."""
    model = fitted_pipeline.model
    own = model.similarity
    other_name = "sharded" if own.backend_name == "dense" else "dense"
    other = forced_engine(model, other_name)
    dense = own if own.backend_name == "dense" else other
    sharded = other if own.backend_name == "dense" else own
    return dense, sharded


KINDS = [ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS]


class TestBackendParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_full_matrix_parity(self, engines, kind):
        dense, sharded = engines
        np.testing.assert_allclose(
            sharded.matrix(kind), dense.matrix(kind), rtol=0, atol=ATOL
        )

    @staticmethod
    def _assert_same_topk(d_idx, d_val, s_idx, s_val):
        """Equal top-k up to tie order.

        The dense path's argpartition orders exact ties arbitrarily; the
        sharded merge orders them by ascending index.  Canonicalising both
        sides by (their own value desc, index asc) makes the comparison
        order-insensitive for ties while still exact for distinct values.
        """
        np.testing.assert_allclose(s_val, d_val, rtol=0, atol=ATOL)
        d_val_c, d_idx_c = canonical_topk(d_val, d_idx, d_idx.shape[1])
        s_val_c, s_idx_c = canonical_topk(s_val, s_idx, s_idx.shape[1])
        assert np.array_equal(d_idx_c, s_idx_c)
        np.testing.assert_allclose(s_val_c, d_val_c, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("kind", KINDS)
    def test_top_k_indices_and_values(self, engines, kind):
        dense, sharded = engines
        k = 10
        dt = dense.top_k_table(kind, k)
        st = sharded.top_k_table(kind, k)
        self._assert_same_topk(dt.left_indices, dt.left_values, st.left_indices, st.left_values)
        self._assert_same_topk(
            dt.right_indices, dt.right_values, st.right_indices, st.right_values
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_cols_row_max(self, engines, kind):
        dense, sharded = engines
        num_rows, num_cols = dense.shape(kind)
        assert sharded.shape(kind) == (num_rows, num_cols)
        if num_rows == 0 or num_cols == 0:
            pytest.skip("empty similarity")
        idx = np.arange(0, num_rows, 2)
        np.testing.assert_allclose(
            sharded.rows(kind, idx), dense.rows(kind, idx), rtol=0, atol=ATOL
        )
        # the column direction: per-column maxima of both backends, and of
        # the dense matrix itself
        s_row, s_col = sharded.row_col_max(kind)
        d_row, d_col = dense.row_col_max(kind)
        np.testing.assert_allclose(s_row, d_row, rtol=0, atol=ATOL)
        np.testing.assert_allclose(s_col, d_col, rtol=0, atol=ATOL)
        matrix = dense.matrix(kind)
        np.testing.assert_array_equal(d_row, matrix.max(axis=1))
        np.testing.assert_array_equal(d_col, matrix.max(axis=0))

    def test_evaluate_metrics_identical(self, fitted_pipeline, engines):
        dense, sharded = engines
        gold = fitted_pipeline.pair.entity_match_ids(fitted_pipeline.pair.test_entity_pairs)
        d = evaluate_alignment_from_engine(dense, ElementKind.ENTITY, gold)
        s = evaluate_alignment_from_engine(sharded, ElementKind.ENTITY, gold)
        assert d == s
        # and the engine evaluation equals the legacy full-matrix evaluation
        legacy = evaluate_alignment(dense.matrix(ElementKind.ENTITY), gold)
        assert d == legacy

    def test_mining_identical(self, engines):
        dense, sharded = engines
        d = mine_potential_matches_from_engine(dense, ElementKind.ENTITY, threshold=0.6)
        s = mine_potential_matches_from_engine(sharded, ElementKind.ENTITY, threshold=0.6)
        assert [(m.left, m.right) for m in d] == [(m.left, m.right) for m in s]
        np.testing.assert_allclose(
            [m.soft_label for m in s], [m.soft_label for m in d], rtol=0, atol=ATOL
        )
        legacy = mine_potential_matches(dense.matrix(ElementKind.ENTITY), threshold=0.6)
        assert [(m.left, m.right) for m in legacy] == [(m.left, m.right) for m in d]

    def test_calibration_identical(self, fitted_pipeline, engines):
        dense, sharded = engines
        rng = np.random.default_rng(0)
        num_rows, num_cols = dense.shape(ElementKind.ENTITY)
        lefts = rng.integers(0, num_rows, size=20)
        rights = rng.integers(0, num_cols, size=20)
        calibrator = fitted_pipeline.calibrator
        d = calibrator.pair_probabilities_from_engine(dense, ElementKind.ENTITY, lefts, rights)
        s = calibrator.pair_probabilities_from_engine(sharded, ElementKind.ENTITY, lefts, rights)
        np.testing.assert_allclose(s, d, rtol=0, atol=ATOL)
        # the dense engine path must be bit-exact with the historical
        # probability-matrix lookup the active loop used before the backends
        # (the slab-based probabilities can differ in the last ulp —
        # column-sliced reductions round differently)
        legacy = calibrator.probability_matrix(
            dense.matrix(ElementKind.ENTITY), ElementKind.ENTITY
        )[lefts, rights]
        np.testing.assert_array_equal(d, legacy)
        matrix = dense.matrix(ElementKind.ENTITY)
        slab_based = calibrator.pair_probabilities_from_slabs(
            matrix[lefts], matrix[:, rights], ElementKind.ENTITY, lefts, rights
        )
        np.testing.assert_allclose(slab_based, d, rtol=0, atol=ATOL)

    def test_parity_survives_landmark_update(self, fitted_pipeline, engines):
        dense, sharded = engines
        model = fitted_pipeline.model
        previous = model._landmarks
        gold = fitted_pipeline.pair.entity_match_ids(fitted_pipeline.pair.test_entity_pairs)
        try:
            extended = np.unique(np.concatenate([previous, gold[:5]]), axis=0)
            model.set_landmarks(extended)
            dt = dense.top_k_table(ElementKind.ENTITY, 5)
            st = sharded.top_k_table(ElementKind.ENTITY, 5)
            self._assert_same_topk(
                dt.left_indices, dt.left_values, st.left_indices, st.left_values
            )
            d = evaluate_alignment_from_engine(dense, ElementKind.ENTITY, gold)
            s = evaluate_alignment_from_engine(sharded, ElementKind.ENTITY, gold)
            assert d == s
        finally:
            model.set_landmarks(previous)


class TestBitExactParity:
    """At one block size both backends assemble the same channels: bit-equal."""

    @pytest.fixture(scope="class", params=["full", "class_embeddings", "mean_embeddings"])
    def model(self, request, small_benchmark, fast_config):
        from repro import DAAKG

        return DAAKG(small_benchmark, fast_config.with_ablation(request.param)).model

    @pytest.mark.parametrize("block_size", [64, 4096])
    def test_matrices_and_weights_bit_equal(self, model, block_size):
        dense = forced_engine(model, "dense", block_size)
        sharded = forced_engine(model, "sharded", block_size)
        landmarks = model.pair.entity_match_ids(model.pair.train_entity_pairs)
        original = model.similarity
        try:
            # before landmarks (all-zero structural channel), then after
            for update in (np.empty((0, 2)), landmarks[:20]):
                model.set_landmarks(update)
                seen = {}
                for engine in (dense, sharded):
                    # read right after the refresh, so dense serves its seed
                    model.similarity = engine
                    snap = model.refresh_statistics()
                    seen[engine.backend_name] = [snap.weights_1, snap.weights_2] + [
                        engine.matrix(kind) for kind in KINDS
                    ]
                for d, s in zip(seen["dense"], seen["sharded"]):
                    assert np.array_equal(d, s)
        finally:
            model.similarity = original


# ------------------------------------------------------------ serving parity
class TestServingParity:
    @pytest.fixture()
    def two_services(self, fitted_pipeline):
        """One service per backend, frozen from the same fitted state."""
        model = fitted_pipeline.model
        original = model.similarity
        services = {}
        try:
            for name in ("dense", "sharded"):
                if original.backend_name == name:
                    model.similarity = original
                else:
                    model.similarity = forced_engine(model, name)
                services[name] = serve(fitted_pipeline)
        finally:
            model.similarity = original
        return services["dense"], services["sharded"]

    def test_queries_agree(self, fitted_pipeline, two_services):
        dense, sharded = two_services
        uris = list(fitted_pipeline.kg1.entities[:6])
        for d_row, s_row in zip(dense.top_k_alignments(uris, k=5), sharded.top_k_alignments(uris, k=5)):
            assert [name for name, _ in d_row] == [name for name, _ in s_row]
            np.testing.assert_allclose(
                [v for _, v in s_row], [v for _, v in d_row], rtol=0, atol=ATOL
            )
        pairs = [
            (fitted_pipeline.kg1.entities[i], fitted_pipeline.kg2.entities[j])
            for i, j in ((0, 0), (2, 5), (7, 1))
        ]
        np.testing.assert_allclose(
            sharded.score_pairs(pairs), dense.score_pairs(pairs), rtol=0, atol=ATOL
        )
        np.testing.assert_allclose(
            sharded.pair_probabilities(pairs), dense.pair_probabilities(pairs), rtol=0, atol=ATOL
        )

    def test_fold_in_agrees(self, fitted_pipeline, two_services):
        dense, sharded = two_services
        kg2 = fitted_pipeline.kg2
        victim = max(range(kg2.num_entities), key=kg2.entity_degree)
        triples = [
            ("folded:parity", kg2.relations[r], kg2.entities[t])
            for r, t in kg2.out_edges(victim)[:6]
        ]
        delta = KGDelta.single_entity("folded:parity", triples)
        dense.apply_delta(delta)
        sharded.apply_delta(delta)
        probes = [(fitted_pipeline.kg1.entities[i], "folded:parity") for i in range(5)]
        np.testing.assert_allclose(
            sharded.score_pairs(probes), dense.score_pairs(probes), rtol=0, atol=ATOL
        )
        # the folded column participates identically in ranked queries: same
        # rank and same score on both backends (deep ranks can contain exact
        # ties whose order is backend-arbitrary, so compare the fold itself)
        uris = [fitted_pipeline.kg1.entities[0]]
        d_top = dense.top_k_alignments(uris, k=kg2.num_entities + 1)[0]
        s_top = sharded.top_k_alignments(uris, k=kg2.num_entities + 1)[0]
        d_rank = [name for name, _ in d_top].index("folded:parity")
        s_rank = [name for name, _ in s_top].index("folded:parity")
        assert d_rank == s_rank
        assert s_top[s_rank][1] == pytest.approx(d_top[d_rank][1], abs=ATOL)
        np.testing.assert_allclose(
            [v for _, v in s_top], [v for _, v in d_top], rtol=0, atol=ATOL
        )

    def test_tokens_name_the_backend(self, two_services):
        dense, sharded = two_services
        assert "dense" in dense.state_token
        assert "sharded" in sharded.state_token
        assert dense.state_token != sharded.state_token


# -------------------------------------------------------- checkpoint parity
class TestBackendPersistence:
    @pytest.fixture(scope="class")
    def sharded_pipeline(self, small_benchmark):
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
            similarity_backend="sharded",
            seed=0,
        )
        return DAAKG(small_benchmark, config).fit()

    def test_round_trip_preserves_metrics_and_seeds_topk(self, sharded_pipeline, tmp_path):
        pipeline = sharded_pipeline
        # populate a current-token top-k table so the checkpoint carries it
        table = pipeline.model.similarity.top_k_table(ElementKind.ENTITY, 5)
        before = {k: v.as_dict() for k, v in pipeline.evaluate().items()}
        pipeline.save(tmp_path / "ckpt")

        from repro import DAAKG, load_checkpoint

        manifest = load_checkpoint(tmp_path / "ckpt").manifest
        restored = DAAKG.load(tmp_path / "ckpt")
        if restored.model.similarity.backend_name == manifest["similarity_backend"]:
            # the saved table was re-seeded: identical arrays, no recompute
            seeded = restored.model.similarity._top_k[(ElementKind.ENTITY, 5)][1]
            assert np.array_equal(seeded.left_indices, table.left_indices)
            np.testing.assert_array_equal(seeded.left_values, table.left_values)
        after = {k: v.as_dict() for k, v in restored.evaluate().items()}
        assert before == after

    def test_manifest_records_backend(self, sharded_pipeline, tmp_path):
        # a freshly-computed table is current for the engine's token, so the
        # checkpoint carries it (fit-time tables are stale by the last step)
        sharded_pipeline.model.similarity.top_k_table(ElementKind.ENTITY, 5)
        sharded_pipeline.save(tmp_path / "ckpt")
        from repro import load_checkpoint

        checkpoint = load_checkpoint(tmp_path / "ckpt")
        # env override may force either backend at restore time; the manifest
        # records what the checkpoint was written with
        assert checkpoint.manifest["similarity_backend"] == (
            sharded_pipeline.model.similarity.backend_name
        )
        assert checkpoint.manifest["config"]["similarity_backend"] == "sharded"
        assert any(key.startswith("topk/") for key in checkpoint.arrays)
