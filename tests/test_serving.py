"""The online AlignmentService: queries, caching, batching, swap, fold-in."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.kg.elements import ElementKind
from repro.serving import FrontendConfig, ServingError, ServingFrontend, serve
from repro.updates import KGDelta
from repro.utils.math import l2_normalize


@pytest.fixture(scope="module")
def service(fitted_pipeline):
    return serve(fitted_pipeline)


@pytest.fixture(scope="module")
def entity_matrix(fitted_pipeline):
    return fitted_pipeline.model.entity_similarity_matrix().copy()


@pytest.fixture(scope="module")
def value_tol(fitted_pipeline) -> float:
    """Tolerance when comparing served values against the full matrix.

    The fitted pair fits one block, so the engine keeps its full tile and
    serves slices of the very matrix being compared against: equality is
    exact.
    """
    engine = fitted_pipeline.model.similarity
    assert max(engine.shape(ElementKind.ENTITY)) <= engine.block_size
    return 0.0


# ------------------------------------------------------------------- queries
def test_top_k_matches_engine_matrix(service, fitted_pipeline, entity_matrix, value_tol):
    uris = list(fitted_pipeline.kg1.entities[:4])
    results = service.top_k_alignments(uris, k=5)
    for uri, ranked in zip(uris, results):
        row = entity_matrix[fitted_pipeline.kg1.entity_id(uri)]
        assert len(ranked) == 5
        assert ranked[0][1] == pytest.approx(row.max(), abs=value_tol)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert all(name in fitted_pipeline.kg2.entity_index for name, _ in ranked)


def test_score_pairs_matches_engine_matrix(service, fitted_pipeline, entity_matrix, value_tol):
    pairs = [
        (fitted_pipeline.kg1.entities[i], fitted_pipeline.kg2.entities[j])
        for i, j in ((0, 0), (1, 3), (5, 2))
    ]
    scores = service.score_pairs(pairs)
    for (left, right), score in zip(pairs, scores):
        i = fitted_pipeline.kg1.entity_id(left)
        j = fitted_pipeline.kg2.entity_id(right)
        assert score == pytest.approx(entity_matrix[i, j], abs=value_tol)


def test_pair_probabilities_match_full_matrix(service, fitted_pipeline, entity_matrix):
    expected = fitted_pipeline.calibrator.probability_matrix(
        entity_matrix, ElementKind.ENTITY
    )
    pairs = [(fitted_pipeline.kg1.entities[2], fitted_pipeline.kg2.entities[7])]
    probabilities = service.pair_probabilities(pairs)
    np.testing.assert_allclose(probabilities[0], expected[2, 7], rtol=0, atol=1e-12)


def test_unknown_uri_raises(service):
    with pytest.raises(ServingError, match="unknown KG1 entity"):
        service.top_k_alignments(["definitely-not-an-entity"], k=3)


def test_empty_requests_are_counted(fitted_pipeline):
    service = serve(fitted_pipeline)
    assert service.top_k_alignments([], k=3) == []
    assert service.score_pairs([]).shape == (0,)
    assert service.pair_probabilities([]).shape == (0,)
    assert service.metrics()["requests_total"] == 3  # one per method
    assert service.obs.counter("service.requests.total", method="pair_probabilities").value == 1
    assert service._lat_hist.count == 3


# -------------------------------------------------------------------- caching
def test_lru_cache_hits_on_repeat(fitted_pipeline):
    service = serve(fitted_pipeline)
    uris = list(fitted_pipeline.kg1.entities[:3])
    service.top_k_alignments(uris, k=4)
    assert service.obs.counter("service.cache.hits").value == 0
    first = service.top_k_alignments(uris, k=4)
    assert service.obs.counter("service.cache.hits").value == 3
    assert first == service.top_k_alignments(uris, k=4)


def test_cache_eviction_respects_capacity(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=2)
    uris = list(fitted_pipeline.kg1.entities[:5])
    service.top_k_alignments(uris, k=3)
    assert len(service._cache) == 2


# ------------------------------------------------------------------ batching
def test_bad_query_fails_only_its_own_ticket(fitted_pipeline):
    service = serve(fitted_pipeline)
    frontend = ServingFrontend(service, FrontendConfig(num_workers=1, max_batch=3))
    good_uri = fitted_pipeline.kg1.entities[0]
    # not started: all three wait in the queue and leave it as one full batch
    good = frontend.submit_top_k(good_uri, k=2)
    bad = frontend.submit_top_k("no-such-entity", k=2)
    also_good = frontend.submit_score(
        fitted_pipeline.kg1.entities[1], fitted_pipeline.kg2.entities[1]
    )
    with frontend:
        assert good.result(timeout=5) == service.top_k_alignments([good_uri], k=2)[0]
        assert np.isfinite(also_good.result(timeout=5))
        with pytest.raises(ServingError, match="unknown KG1 entity"):
            bad.result(timeout=5)
    assert frontend.stats()["dispatched_batches"] == 1


def test_in_memory_tokens_are_unique_per_snapshot(fitted_pipeline):
    a = serve(fitted_pipeline)
    b = serve(fitted_pipeline)
    assert a.state_token != b.state_token  # same pipeline, distinct snapshots


# ------------------------------------------------------------------- hot swap
def test_hot_swap_from_checkpoint(fitted_pipeline, tmp_path, value_tol):
    service = serve(fitted_pipeline)
    token_before = service.state_token
    fitted_pipeline.save(tmp_path / "snap")
    token_after = service.hot_swap(tmp_path / "snap")
    assert token_after == service.state_token != token_before
    assert token_after.startswith("ckpt-")
    assert service.metrics()["hot_swaps"] == 1
    # the swapped state serves the same frozen matrices
    uri = fitted_pipeline.kg1.entities[0]
    matrix = fitted_pipeline.model.entity_similarity_matrix()
    assert service.top_k_alignments([uri], k=1)[0][0][1] == pytest.approx(
        matrix[0].max(), abs=value_tol
    )


# -------------------------------------------------------------------- fold-in
def _fold(service, name, triples, side=2):
    """Fold one entity in through a single-entity delta; its one report."""
    (report,) = service.apply_delta(KGDelta.single_entity(name, triples, side=side))
    return report


def _clone_triples(kg, victim: int, new_name: str, limit: int = 6):
    triples = [
        (new_name, kg.relations[r], kg.entities[t]) for r, t in kg.out_edges(victim)[:limit]
    ]
    triples += [
        (kg.entities[h], kg.relations[r], new_name) for r, h in kg.in_edges(victim)[:limit]
    ]
    return triples


def test_fold_in_appends_column_and_scores_like_clone(fitted_pipeline, entity_matrix, value_tol):
    service = serve(fitted_pipeline)
    kg2 = fitted_pipeline.kg2
    victim = max(range(kg2.num_entities), key=kg2.entity_degree)
    token_before = service.state_token
    n_before = service.num_entities(2)
    report = _fold(service, "folded:new", _clone_triples(kg2, victim, "folded:new"))
    assert service.num_entities(2) == n_before + 1
    assert report.index == n_before
    assert service.state_token != token_before
    assert service.metrics()["fold_ins"] == 1
    # the clone of the best-matched entity should itself score well for the
    # same KG1 partner (embedding channel only, so not identical)
    partner = int(np.argmax(entity_matrix[:, victim]))
    partner_name = fitted_pipeline.kg1.entities[partner]
    clone_score = service.score_pairs([(partner_name, "folded:new")])[0]
    assert clone_score > 0.25
    # existing entities are untouched
    assert service.score_pairs([(partner_name, kg2.entities[victim])])[0] == pytest.approx(
        entity_matrix[partner, victim], abs=value_tol
    )


def test_fold_in_side_1_appends_row(fitted_pipeline):
    service = serve(fitted_pipeline)
    kg1 = fitted_pipeline.kg1
    victim = max(range(kg1.num_entities), key=kg1.entity_degree)
    _fold(service, "folded:left", _clone_triples(kg1, victim, "folded:left"), side=1)
    ranked = service.top_k_alignments(["folded:left"], k=3)[0]
    assert len(ranked) == 3
    assert all(np.isfinite(score) for _, score in ranked)


def test_fold_in_cache_isolation(fitted_pipeline):
    # results cached before a fold-in must not be served for the new state
    service = serve(fitted_pipeline)
    kg2 = fitted_pipeline.kg2
    uri = fitted_pipeline.kg1.entities[0]
    service.top_k_alignments([uri], k=2)
    victim = max(range(kg2.num_entities), key=kg2.entity_degree)
    _fold(service, "folded:iso", _clone_triples(kg2, victim, "folded:iso"))
    hits = service.obs.counter("service.cache.hits")
    hits_before = hits.value
    service.top_k_alignments([uri], k=2)
    assert hits.value == hits_before  # token changed → cache miss


def test_pipeline_snapshot_is_one_identity_piece(fitted_pipeline):
    state = serve(fitted_pipeline)._state
    (context,) = state.pieces
    assert context.rows_global.dtype == context.cols_global.dtype == np.int64
    np.testing.assert_array_equal(context.rows_global, np.arange(len(state.entity_names_1)))
    np.testing.assert_array_equal(context.cols_global, np.arange(len(state.entity_names_2)))
    assert context.entity_index_1 == state.entity_index_1
    assert context.entity_index_2 == state.entity_index_2
    assert context.relation_index_1 == state.relation_index_1
    assert context.relation_index_2 == state.relation_index_2


def test_folds_match_context_oracle(fitted_pipeline):
    """Folded rows/columns are exactly the owning context's embedding channel."""
    service = serve(fitted_pipeline)
    kg1, kg2 = fitted_pipeline.kg1, fitted_pipeline.kg2
    victim_1 = max(range(kg1.num_entities), key=kg1.entity_degree)
    _fold(service, "oracle:left", _clone_triples(kg1, victim_1, "oracle:left"), side=1)
    state = service._state
    (context,) = state.pieces
    vector = context.entity_out_1[-1]
    expected_row = context.norm_out_2 @ l2_normalize(vector @ context.map_entity)
    view = state.similarity[ElementKind.ENTITY]
    row = view.rows(np.array([state.entity_index_1["oracle:left"]]))[0]
    assert row.tobytes() == expected_row.tobytes()

    victim_2 = max(range(kg2.num_entities), key=kg2.entity_degree)
    _fold(service, "oracle:right", _clone_triples(kg2, victim_2, "oracle:right"))
    state = service._state
    (context,) = state.pieces
    vector = context.entity_out_2[-1]
    expected_col = context.norm_mapped_1 @ l2_normalize(vector)
    view = state.similarity[ElementKind.ENTITY]
    col = view.cols(np.array([state.entity_index_2["oracle:right"]]))[:, 0]
    assert col.tobytes() == expected_col.tobytes()


def test_apply_delta_is_all_or_nothing(fitted_pipeline):
    service = serve(fitted_pipeline)
    kg1, kg2 = fitted_pipeline.kg1, fitted_pipeline.kg2
    victim = max(range(kg1.num_entities), key=kg1.entity_degree)
    left = ("atomic:left",)
    left_triples = tuple(_clone_triples(kg1, victim, "atomic:left"))
    anchor = kg2.entities[0]
    token = service.state_token
    sizes = (service.num_entities(1), service.num_entities(2))
    bad_fold = KGDelta(
        added_entities_1=left,
        added_triples_1=left_triples,
        added_entities_2=("atomic:right",),
        added_triples_2=(("atomic:right", "no-such-relation", anchor),),
    )
    bad_bucket = KGDelta(
        added_entities_1=left, added_triples_1=left_triples, added_entities_2=("atomic:orphan",)
    )
    for delta, message in ((bad_fold, "unknown side-2 relation"), (bad_bucket, "no side-2 triples")):
        with pytest.raises(ServingError, match=message):
            service.apply_delta(delta)
        # the valid side-1 entity was not published either
        assert (service.num_entities(1), service.num_entities(2)) == sizes
        assert service.state_token == token
        assert service.metrics()["fold_ins"] == 0
        with pytest.raises(ServingError, match="unknown KG1 entity"):
            service.score_pairs([("atomic:left", anchor)])


# ---------------------------------------------------------------- threading
def test_concurrent_queries_keep_exact_counters(fitted_pipeline):
    """Hammer the direct query API from many threads.

    The registry counters are lock-exact, so the totals must come out *equal*
    (not approximately equal — a lost ``+=`` update is exactly the bug the
    per-counter lock exists to prevent), and the LRU cache must respect its
    capacity under concurrent eviction.
    """
    service = serve(fitted_pipeline, cache_size=16)
    kg1, kg2 = fitted_pipeline.kg1, fitted_pipeline.kg2
    uris = list(kg1.entities)
    threads, errors = [], []
    rounds, batch = 40, 8

    def hammer(offset: int) -> None:
        try:
            for round_index in range(rounds):
                base = (offset * rounds + round_index) % len(uris)
                chunk = [uris[(base + j) % len(uris)] for j in range(batch)]
                service.top_k_alignments(chunk, k=3)
                service.score_pairs([(chunk[0], kg2.entities[base % kg2.num_entities])])
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    for offset in range(6):
        threads.append(threading.Thread(target=hammer, args=(offset,)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    # 6 threads x 40 rounds x (8 top-k uris + 1 score pair), counted exactly
    assert service.obs.counter("service.queries.total").value == 6 * rounds * (batch + 1)
    assert len(service._cache) <= 16


def test_fold_in_rejects_bad_input(fitted_pipeline):
    service = serve(fitted_pipeline)
    kg2 = fitted_pipeline.kg2
    existing = kg2.entities[0]
    with pytest.raises(ServingError, match="at least one triple"):
        _fold(service, "x", [])
    with pytest.raises(ServingError, match="already exists"):
        _fold(service, existing, [("a", kg2.relations[0], existing)])
    with pytest.raises(ServingError, match="unknown side-2 relation"):
        _fold(service, "x", [("x", "no-such-relation", existing)])
    with pytest.raises(ServingError, match="must connect"):
        _fold(service, "x", [("ghost", kg2.relations[0], "phantom")])
