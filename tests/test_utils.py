"""Tests for repro.utils: numeric helpers, RNG handling, timer and logging."""

import logging
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    RandomState,
    Timer,
    cosine_similarity,
    cosine_similarity_matrix,
    ensure_rng,
    get_logger,
    l2_normalize,
    pairwise_sq_dists,
    softmax,
    stable_log,
    top_k_indices,
)
from repro.utils.rng import get_rng_state, set_rng_state, spawn


class TestMath:
    def test_l2_normalize_rows_have_unit_norm(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        norms = np.linalg.norm(l2_normalize(x), axis=1)
        assert np.allclose(norms, 1.0)

    def test_l2_normalize_zero_vector_is_safe(self):
        assert np.all(np.isfinite(l2_normalize(np.zeros((2, 3)))))

    def test_cosine_similarity_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_cosine_similarity_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == pytest.approx(0.0)

    def test_cosine_similarity_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_cosine_similarity_matrix_matches_pairwise(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        matrix = cosine_similarity_matrix(a, b)
        assert matrix.shape == (4, 6)
        assert matrix[2, 3] == pytest.approx(cosine_similarity(a[2], b[3]))

    def test_pairwise_sq_dists_diagonal_zero(self):
        x = np.random.default_rng(2).normal(size=(5, 4))
        d = pairwise_sq_dists(x, x)
        assert np.allclose(np.diag(d), 0.0, atol=1e-9)

    def test_pairwise_sq_dists_matches_norm(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[3.0, 4.0]])
        d = pairwise_sq_dists(a, b)
        assert d[0, 0] == pytest.approx(25.0)

    def test_softmax_sums_to_one(self):
        p = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]), axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_softmax_temperature_sharpens(self):
        x = np.array([1.0, 2.0])
        hot = softmax(x, temperature=1.0)
        cold = softmax(x, temperature=0.1)
        assert cold[1] > hot[1]

    def test_softmax_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0]), temperature=0.0)

    def test_stable_log_handles_zero(self):
        assert np.isfinite(stable_log(np.array([0.0]))).all()

    def test_top_k_indices_largest(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert list(top_k_indices(scores, 2)) == [1, 3]

    def test_top_k_indices_smallest(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert list(top_k_indices(scores, 2, largest=False)) == [0, 2]

    def test_top_k_indices_k_larger_than_array(self):
        assert len(top_k_indices(np.array([1.0, 2.0]), 10)) == 2

    def test_top_k_indices_zero_k(self):
        assert len(top_k_indices(np.array([1.0, 2.0]), 0)) == 0

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=20))
    def test_softmax_is_probability_distribution(self, values):
        p = softmax(np.array(values))
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    def test_cosine_similarity_is_bounded(self, a, b):
        value = cosine_similarity(np.array(a), np.array(b))
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        assert ensure_rng(7).integers(0, 100) == ensure_rng(7).integers(0, 100)

    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_children_are_independent_but_deterministic(self):
        a = spawn(ensure_rng(3), 2)
        b = spawn(ensure_rng(3), 2)
        assert a[0].integers(0, 1000) == b[0].integers(0, 1000)
        assert a[1].integers(0, 1000) == b[1].integers(0, 1000)

    def test_get_set_rng_state_resumes_stream(self):
        rng = ensure_rng(11)
        rng.random(17)  # advance past the seed position
        state = get_rng_state(rng)
        expected = rng.random(5)
        other = ensure_rng(999)
        set_rng_state(other, state)
        np.testing.assert_array_equal(other.random(5), expected)

    def test_rng_state_is_json_serialisable(self):
        import json

        rng = ensure_rng(4)
        rng.integers(0, 10, size=3)
        state = get_rng_state(rng)
        restored_state = json.loads(json.dumps(state))
        other = ensure_rng(None)
        set_rng_state(other, restored_state)
        np.testing.assert_array_equal(other.random(3), rng.random(3))

    def test_get_rng_state_is_a_snapshot(self):
        rng = ensure_rng(0)
        state = get_rng_state(rng)
        rng.random(10)  # advancing must not mutate the captured snapshot
        fresh = set_rng_state(ensure_rng(None), state)
        np.testing.assert_array_equal(
            fresh.random(3), set_rng_state(ensure_rng(None), state).random(3)
        )


class TestTimer:
    def test_context_manager_accumulates(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_start_stop_accumulates_across_calls(self):
        t = Timer()
        t.start()
        t.stop()
        first = t.elapsed
        t.start()
        t.stop()
        assert t.elapsed >= first

    def test_double_start_raises(self):
        t = Timer().start()
        with pytest.raises(RuntimeError):
            t.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        t = Timer()
        t.start()
        t.stop()
        t.reset()
        assert t.elapsed == 0.0


class TestLogging:
    def test_get_logger_is_namespaced(self):
        assert get_logger("foo").name == "repro.foo"

    def test_get_logger_keeps_repro_prefix(self):
        assert get_logger("repro.bar").name == "repro.bar"

    def test_root_logger_has_null_handler(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler) for h in root.handlers)
