"""``repro.obs``: exactness, no-op path, Prometheus output, fleet merge.

The load-bearing guarantees:

* counters and histograms stay exact under concurrent thread updates;
* snapshot merges are **exact** (fixed buckets → per-slot sums), so metrics
  folded across process-executor pieces equal the sum of the per-piece
  snapshots — no approximation crosses the process boundary;
* when collection is disabled, every accessor returns a shared no-op
  singleton (zero allocation on hot paths);
* the Prometheus renderer emits valid text exposition (cumulative buckets,
  ``+Inf``, ``_sum``/``_count``);
* a partitioned campaign folds every piece's snapshot and events back into
  the driver, and failures name the piece, backend and elapsed time;
* ``AlignmentService.metrics()`` reports request counts and latency
  quantiles from the service's own histogram.
"""

from __future__ import annotations

import re
import threading

import pytest

import repro.obs as obs
from repro import DAAKGConfig, PartitionConfig, PartitionedCampaign, make_benchmark
from repro.active.campaign import CampaignExecutionError
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.obs.registry import MetricsRegistry, quantile_from_buckets, render_prometheus
from repro.runtime.executor import POISON_ENV
from repro.serving import serve


@pytest.fixture()
def enabled_obs():
    """Force-enable collection with a clean scope; restore the prior state."""
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


# -------------------------------------------------------------- registry core
def test_counter_label_sets_are_distinct_instruments():
    registry = MetricsRegistry()
    registry.counter("requests", method="a").inc()
    registry.counter("requests", method="b").inc(2)
    assert registry.counter("requests", method="a").value == 1
    assert registry.counter("requests", method="b").value == 2
    with pytest.raises(ValueError, match="only go up"):
        registry.counter("requests", method="a").inc(-1)


def test_histogram_buckets_and_quantiles():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(6.05)
    # median lands in the (0.1, 1.0] bucket, interpolated
    assert 0.1 <= hist.quantile(0.5) <= 1.0
    with pytest.raises(ValueError, match="strictly increasing"):
        registry.histogram("bad", buckets=(1.0, 1.0))
    with pytest.raises(ValueError, match="buckets"):
        registry.histogram("latency", buckets=(0.5, 1.0))  # conflicting re-request


def test_quantile_from_buckets_edge_cases():
    assert quantile_from_buckets((1.0, 2.0), [0, 0, 0], 0, 0.5) == 0.0
    with pytest.raises(ValueError, match="quantile"):
        quantile_from_buckets((1.0,), [1, 0], 1, 1.5)


def test_concurrent_updates_stay_exact():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    hist = registry.histogram("work", buckets=(0.5, 1.5, 2.5))
    threads, per_thread = 8, 2000

    def worker() -> None:
        for i in range(per_thread):
            counter.inc()
            hist.observe(float(i % 3))

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert counter.value == threads * per_thread
    assert hist.count == threads * per_thread
    snap = registry.snapshot()
    counts = snap["histograms"]["work"]["counts"]
    assert sum(counts) == threads * per_thread


def test_merge_snapshot_is_exact():
    left, right = MetricsRegistry(), MetricsRegistry()
    for registry, factor in ((left, 1), (right, 10)):
        registry.counter("pieces", status="completed").inc(factor)
        registry.gauge("depth").set(factor)
        hist = registry.histogram("seconds", buckets=(1.0, 10.0))
        hist.observe(0.5 * factor)
    left.merge_snapshot(right.snapshot())
    merged = left.snapshot()
    assert merged["counters"]['pieces{status="completed"}']["value"] == 11
    assert merged["gauges"]["depth"]["value"] == 10  # last write wins
    hist_state = merged["histograms"]["seconds"]
    assert hist_state["count"] == 2
    assert hist_state["sum"] == pytest.approx(5.5)
    assert hist_state["counts"] == [1, 1, 0]  # 0.5 → (≤1), 5.0 → (≤10)

    mismatched = MetricsRegistry()
    mismatched.histogram("seconds", buckets=(2.0, 20.0)).observe(1.0)
    with pytest.raises(ValueError, match="bucket"):
        left.merge_snapshot(mismatched.snapshot())


def test_disabled_accessors_return_noop_singletons():
    was_enabled = obs.enabled()
    obs.disable()
    try:
        assert obs.counter("a", kind="x") is obs.counter("b")
        assert obs.gauge("a") is obs.gauge("b")
        assert obs.histogram("a") is obs.histogram("b")
        assert obs.span("a") is obs.span("b")
        # the no-ops absorb the full API without recording anything (the
        # pre-existing scope contents — e.g. from a REPRO_OBS=1 run — are
        # untouched, so compare against the before-state, not emptiness)
        before_snapshot = obs.snapshot()
        before_events = len(obs.events())
        obs.counter("a").inc()
        obs.gauge("a").set(3)
        obs.histogram("a").observe(1.0)
        with obs.span("a") as span:
            span.set(key="value")
        with obs.timer("a"):
            pass
        obs.event("a", detail=1)
        assert obs.snapshot() == before_snapshot
        assert len(obs.events()) == before_events
    finally:
        if was_enabled:
            obs.enable()


def test_prometheus_exposition_format(enabled_obs):
    obs.counter("pipeline.fits", model="transe").inc(3)
    obs.gauge("queue.depth").set(2)
    hist = obs.histogram("step.seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    text = obs.render_prometheus()
    assert render_prometheus(obs.snapshot()) == text

    line_re = re.compile(
        r'^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* \w+'
        r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(\.[0-9]+)?)$"
    )
    for line in text.strip().splitlines():
        assert line_re.match(line), f"invalid exposition line: {line!r}"

    assert '# TYPE pipeline_fits counter' in text
    assert 'pipeline_fits{model="transe"} 3' in text
    assert "queue_depth 2" in text
    # cumulative buckets: each le-count includes everything below it
    assert 'step_seconds_bucket{le="0.1"} 1' in text
    assert 'step_seconds_bucket{le="1"} 2' in text
    assert 'step_seconds_bucket{le="+Inf"} 3' in text
    assert "step_seconds_count 3" in text


def test_span_nesting_links_parents(enabled_obs):
    with obs.span("outer"):
        with obs.span("inner", detail=1):
            obs.event("tick")
    by_name = {event["name"]: event for event in obs.events()}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["tick"]["parent_id"] == by_name["inner"]["span_id"]
    assert by_name["outer"]["parent_id"] is None
    assert by_name["outer"]["dur_s"] >= by_name["inner"]["dur_s"] >= 0.0


def test_scoped_isolates_and_yields_state(enabled_obs):
    obs.counter("outside").inc()
    with obs.scoped() as state:
        obs.counter("inside").inc(5)
        assert "outside" not in obs.snapshot()["counters"]
    assert state.registry.snapshot()["counters"]["inside"]["value"] == 5
    assert "inside" not in obs.snapshot()["counters"]
    with obs.scoped(False) as inactive:
        assert inactive is None
        obs.counter("outside").inc()  # falls through to the enclosing scope
    assert obs.snapshot()["counters"]["outside"]["value"] == 2


# ------------------------------------------------------------- campaign fleet
SCALE = 0.15


def campaign_config(executor: str) -> DAAKGConfig:
    return DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=2),
        alignment=AlignmentTrainingConfig(
            rounds=1, epochs_per_round=4, num_negatives=3,
            embedding_batches_per_round=1, embedding_batch_size=128,
        ),
        pool=PoolConfig(top_n=10),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        partition=PartitionConfig(num_partitions=2, workers=2, executor=executor),
        seed=3,
    )


def make_campaign(executor: str) -> PartitionedCampaign:
    return PartitionedCampaign(
        make_benchmark("D-W", scale=SCALE, seed=3),
        campaign_config(executor),
        strategy="uncertainty",
        active_config=ActiveLearningConfig(batch_size=6, num_batches=1, fine_tune_epochs=3),
        resolve_env=False,
    )


def test_process_campaign_folds_every_piece(enabled_obs):
    """Cross-process fleet metrics: each worker's snapshot crosses the
    boundary on its piece outcome and the fold is exact."""
    campaign = make_campaign("process")
    campaign.run()

    assert sorted(campaign.piece_obs) == [0, 1]
    merged = obs.snapshot()
    piece_hist = merged["histograms"]["executor.piece.seconds"]
    assert piece_hist["count"] == 2  # one observation per piece

    # the driver-side fold equals re-merging the raw per-piece snapshots
    check = MetricsRegistry()
    for payload in campaign.piece_obs.values():
        check.merge_snapshot(payload["snapshot"])
    expected = check.snapshot()["histograms"]["executor.piece.seconds"]
    assert expected["counts"] == piece_hist["counts"]
    assert expected["count"] == piece_hist["count"]

    # per-piece trainer activity survived the process boundary
    statuses = merged["counters"]['executor.pieces.total{status="completed"}']
    assert statuses["value"] == 2
    assert any(key.startswith("trainer.steps.total") for key in merged["counters"])

    # lifecycle events: queued in the driver, started/finished in the workers
    names = [event["name"] for event in obs.events()]
    assert names.count("executor.piece.queued") == 2
    assert names.count("executor.piece.started") == 2
    assert names.count("executor.piece.finished") == 2
    finished = [e for e in obs.events() if e["name"] == "executor.piece.finished"]
    assert {e["attrs"]["piece"] for e in finished} == {0, 1}
    assert all(e["attrs"]["seconds"] > 0 for e in finished)


def test_failure_names_piece_backend_and_elapsed(enabled_obs, monkeypatch):
    campaign = make_campaign("serial")
    monkeypatch.setenv(POISON_ENV, "1")
    with pytest.raises(CampaignExecutionError) as excinfo:
        campaign.run()
    message = str(excinfo.value)
    assert "piece 1" in message
    assert "'serial' executor" in message
    assert re.search(r"piece 1 after \d+\.\d\ds", message)
    # the failed piece still exported its snapshot for post-mortem
    assert 1 in campaign.piece_obs
    failed = campaign.piece_obs[1]["snapshot"]["counters"]
    assert failed['executor.pieces.total{status="failed"}']["value"] == 1


# ------------------------------------------------------------------- serving
def test_service_metrics_reports_requests_and_latency(fitted_pipeline):
    service = serve(fitted_pipeline)
    uris = list(fitted_pipeline.kg1.entities[:3])
    service.top_k_alignments(uris, k=4)
    service.top_k_alignments(uris, k=4)  # cache hits
    service.score_pairs([(uris[0], fitted_pipeline.kg2.entities[0])])

    metrics = service.metrics()
    assert metrics["requests_total"] == 3
    assert metrics["qps"] > 0
    assert metrics["p99_latency_ms"] >= metrics["p50_latency_ms"] > 0
    assert 0.0 < metrics["cache_hit_ratio"] < 1.0
    assert metrics["hot_swaps"] == 0

    snap = metrics["snapshot"]
    assert snap["counters"]['service.requests.total{method="top_k"}']["value"] == 2
    assert snap["histograms"]["service.request.seconds"]["count"] == 3

    # the service registry is its own (always-on, independent of the global
    # gate): nothing above leaked into the process-global scope
    assert "service.requests.total" not in str(obs.snapshot()["counters"])
