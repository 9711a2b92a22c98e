"""The concurrent serving front end: admission, deadlines, storms, hot-swap."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    BackpressureError,
    FrontendConfig,
    ServingError,
    ServingFrontend,
    serve,
)
from repro.updates import KGDelta


# ------------------------------------------------------------------- config
def test_frontend_config_validation():
    with pytest.raises(ValueError, match="num_workers"):
        FrontendConfig(num_workers=0)
    with pytest.raises(ValueError, match="max_queue_depth"):
        FrontendConfig(max_queue_depth=0)
    with pytest.raises(ValueError, match="max_batch"):
        FrontendConfig(max_batch=0)
    with pytest.raises(ValueError, match="default_deadline_ms"):
        FrontendConfig(default_deadline_ms=0)


# ----------------------------------------------------------------- dispatch
def test_submit_resolves_via_worker_pool(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=0)
    frontend = ServingFrontend(service, FrontendConfig(num_workers=2, default_deadline_ms=50))
    uris = list(fitted_pipeline.kg1.entities[:6])
    expected_topk = service.top_k_alignments(uris, k=3)
    pair = (uris[0], fitted_pipeline.kg2.entities[1])
    expected_score = float(service.score_pairs([pair])[0])
    with frontend:
        tickets = [frontend.submit_top_k(uri, k=3) for uri in uris]
        score_ticket = frontend.submit_score(*pair)
        assert [t.result(timeout=5) for t in tickets] == expected_topk
        assert score_ticket.result(timeout=5) == pytest.approx(expected_score)
    stats = frontend.stats()
    assert stats["submitted_total"] == len(uris) + 1
    assert stats["resolved_total"] == len(uris) + 1
    assert stats["shed_total"] == 0
    assert stats["dispatched_batches"] >= 1


def test_bad_k_rejected_at_admission(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=0)
    frontend = ServingFrontend(service, FrontendConfig(num_workers=1, max_batch=2))
    e1, e2 = fitted_pipeline.kg1.entities[:2]
    f0 = fitted_pipeline.kg2.entities[0]
    # not started: whatever is admitted waits in the queue for one batch
    with pytest.raises(ValueError, match="k must be >= 1"):
        frontend.submit_top_k(e1, k=0)
    top = frontend.submit_top_k(e2, k=2)
    score = frontend.submit_score(e1, f0)
    with frontend:
        assert top.result(timeout=5) == service.top_k_alignments([e2], k=2)[0]
        expected = float(service.score_pairs([(e1, f0)])[0])
        assert score.result(timeout=5) == pytest.approx(expected)
    assert frontend.stats()["submitted_total"] == 2


# ------------------------------------------------------------- backpressure
def test_backpressure_sheds_with_typed_error_then_drains(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=0)
    frontend = ServingFrontend(
        service,
        FrontendConfig(num_workers=1, max_queue_depth=8, default_deadline_ms=50),
    )
    # not started: the queue cannot drain, so admission fills deterministically
    uris = list(fitted_pipeline.kg1.entities)
    admitted = [frontend.submit_top_k(uris[i % len(uris)], k=2) for i in range(8)]
    with pytest.raises(BackpressureError) as excinfo:
        frontend.submit_top_k(uris[0], k=2)
    assert excinfo.value.depth == 8
    assert excinfo.value.limit == 8
    assert frontend.stats()["shed_total"] == 1
    assert frontend.depth == 8
    # once workers start, the burst drains completely and service recovers
    frontend.start()
    try:
        assert frontend.drain(timeout=10)
        assert frontend.depth == 0
        assert all(t.result(timeout=5) is not None for t in admitted)
        post = frontend.submit_top_k(uris[1], k=2)  # admissions resume
        assert post.result(timeout=5)
    finally:
        frontend.stop()


def test_overload_burst_sheds_and_recovers(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=0)
    frontend = ServingFrontend(
        service,
        FrontendConfig(num_workers=1, max_queue_depth=32, max_batch=16, default_deadline_ms=200),
    )
    uris = list(fitted_pipeline.kg1.entities)
    admitted, shed = [], 0
    with frontend:
        for i in range(2000):
            try:
                admitted.append(frontend.submit_top_k(uris[i % len(uris)], k=5))
            except BackpressureError:
                shed += 1
        assert frontend.drain(timeout=30)
        assert frontend.depth == 0
    assert shed > 0  # a submit-speed burst must shed, not queue unboundedly
    assert frontend.stats()["shed_total"] == shed
    assert frontend.stats()["peak_queue_depth"] <= 32
    assert all(t.ready and t.error is None for t in admitted)


def test_stop_without_drain_fails_queued_tickets(fitted_pipeline):
    service = serve(fitted_pipeline)
    frontend = ServingFrontend(service, FrontendConfig(num_workers=1))
    ticket = frontend.submit_top_k(fitted_pipeline.kg1.entities[0], k=2)
    frontend.stop(drain=False)
    with pytest.raises(ServingError, match="stopped before resolving"):
        ticket.result()


# ------------------------------------------------------- deadline semantics
def test_lone_request_flushes_at_half_deadline(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=0)
    frontend = ServingFrontend(service, FrontendConfig(num_workers=1, default_deadline_ms=5000))
    with frontend:
        submitted = time.perf_counter()
        ticket = frontend.submit_top_k(
            fitted_pipeline.kg1.entities[0], k=2, deadline_ms=600
        )
        time.sleep(0.06)
        assert not ticket.ready  # far below max_batch and only 60ms in: no flush yet
        ticket.result(timeout=5)
        elapsed = ticket.completed_at - submitted
        # flushed once half the 600ms budget was spent — not immediately, and
        # well before the full deadline (generous margins for busy CI boxes)
        assert 0.15 <= elapsed <= 0.55
        assert frontend.stats()["flush_reasons"]["deadline"] >= 1


def test_full_batch_flushes_without_waiting_for_deadline(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=0)
    frontend = ServingFrontend(service, FrontendConfig(num_workers=1, max_batch=8))
    uris = list(fitted_pipeline.kg1.entities[:8])
    with frontend:
        start = time.perf_counter()
        tickets = [frontend.submit_top_k(uri, k=2, deadline_ms=10_000) for uri in uris]
        for ticket in tickets:
            ticket.result(timeout=5)
        elapsed = time.perf_counter() - start
    assert elapsed < 2.0  # batch-size trigger, not the 5s half-deadline
    assert frontend.stats()["flush_reasons"]["full"] >= 1


# ------------------------------------------------------- hot-swap under load
def test_hot_swap_and_fold_in_under_sustained_storm(fitted_pipeline):
    service = serve(fitted_pipeline, cache_size=4096)
    frontend = ServingFrontend(
        service,
        FrontendConfig(num_workers=2, max_queue_depth=4096, default_deadline_ms=25),
    )
    kg1, kg2 = fitted_pipeline.kg1, fitted_pipeline.kg2
    uris = list(kg1.entities)
    errors: list[Exception] = []
    resolved = [0]
    stop = threading.Event()

    def storm(seed: int) -> None:
        rng = np.random.default_rng(seed)
        count = 0
        while not stop.is_set():
            window = [
                frontend.submit_top_k(uris[i], k=5)
                for i in rng.integers(0, len(uris), 48)
            ]
            window.append(
                frontend.submit_score(
                    uris[int(rng.integers(len(uris)))],
                    kg2.entities[int(rng.integers(kg2.num_entities))],
                )
            )
            for ticket in window:
                try:
                    ticket.result(timeout=10)
                    count += 1
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)
        resolved[0] += count

    tokens = {service.state_token}
    with frontend:
        threads = [threading.Thread(target=storm, args=(seed,)) for seed in range(3)]
        for thread in threads:
            thread.start()
        # two atomic swaps and one fold-in while the storm runs
        time.sleep(0.15)
        tokens.add(service.hot_swap(fitted_pipeline))
        time.sleep(0.15)
        tokens.add(service.hot_swap(fitted_pipeline))
        time.sleep(0.15)
        victim = max(range(kg2.num_entities), key=kg2.entity_degree)
        triples = [
            ("storm:new", kg2.relations[r], kg2.entities[t])
            for r, t in kg2.out_edges(victim)[:6]
        ]
        (report,) = service.apply_delta(KGDelta.single_entity("storm:new", triples))
        tokens.add(report.token)
        time.sleep(0.15)
        stop.set()
        for thread in threads:
            thread.join()
        assert frontend.drain(timeout=30)

    # zero request errors across the storm, swaps and fold-in
    assert errors == []
    assert resolved[0] > 0
    metrics = service.metrics()
    assert metrics["hot_swaps"] == 2 and metrics["fold_ins"] == 1
    # no cross-token cache leaks: every cached entry is keyed by a token the
    # service actually served — and post-storm queries serve the *current*
    # (folded) state, matching a fresh computation
    assert {key[0] for key in service._cache} <= tokens
    matrix = fitted_pipeline.model.entity_similarity_matrix()
    uri = kg1.entities[0]
    # the folded clone may legitimately outrank the original best match, so
    # the served top-1 must be at least as good as the pre-fold maximum
    assert service.top_k_alignments([uri], k=1)[0][0][1] >= matrix[0].max() - 1e-9
    assert np.isfinite(service.score_pairs([(uri, "storm:new")])[0])
    # bounded tail latency: generous bound, this asserts "no stall", not speed
    assert frontend.stats()["p99_latency_ms"] < 1000.0
