"""Incremental end-to-end updates: warm-start retrains vs full retrains.

The incremental-update path's claim: when a drifting KG delivers a delta that
touches one campaign piece, ``PartitionedCampaign.apply_update`` retrains
exactly that piece from its warm-start checkpoint and re-merges — so a batch
of K localised updates costs a fraction of K full retrains, while the merged
quality stays put and the serving layer keeps answering throughout.

Two tracks over the same drifting ``make_large_world_pair`` world (K update
batches, each confined to one partition's community):

* **incremental** — one campaign ingests every delta via ``apply_update``;
* **full retrain** — a fresh campaign is partitioned and trained from
  scratch on each successively-updated pair.

During the incremental track a :class:`ServingFrontend` storm hammers the
service from worker threads while each update trains and the refreshed
campaign is hot-swapped in.

Assertions (always):

* incremental wall-clock ≤ 0.5× the full-retrain track at K=4 batches,
* final |ΔH@1| between the tracks ≤ 0.02,
* the mid-update storm completes with zero errors and zero shed requests
  across every hot-swap.

Writes ``BENCH_update.json`` via the shared conftest harness.
"""

from __future__ import annotations

import threading
import time

import pytest

from conftest import BENCH_SCALE, print_table, record_bench
from repro import DAAKGConfig, KGDelta, PartitionConfig, PartitionedCampaign, serve
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.datasets import make_large_world_pair
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.pair import SplitRatios

MIN_ENTITIES = 600
NUM_ENTITIES = max(MIN_ENTITIES, int(1500 * BENCH_SCALE))
NUM_PARTITIONS = 4
NUM_UPDATES = 4
ENTITIES_PER_UPDATE = 3
STORM_TOP_K = 5


def world_pair():
    pair = make_large_world_pair(
        NUM_ENTITIES,
        num_relations=10,
        mean_out_degree=5.0,
        seed=0,
        shared_topology=True,
        num_communities=NUM_PARTITIONS,
        inter_community_fraction=0.05,
    )
    pair.split_entity_matches(SplitRatios(train=0.3, valid=0.1, test=0.6), seed=0)
    return pair


def campaign_config() -> DAAKGConfig:
    return DAAKGConfig(
        base_model="transe",
        entity_dim=24,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=3),
        alignment=AlignmentTrainingConfig(
            rounds=2, epochs_per_round=8, num_negatives=6,
            embedding_batches_per_round=2, embedding_batch_size=512,
        ),
        pool=PoolConfig(top_n=15),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        similarity_backend="sharded",
        seed=0,
    )


def loop_config() -> ActiveLearningConfig:
    return ActiveLearningConfig(batch_size=20, num_batches=1, fine_tune_epochs=4)


def partition_knobs() -> PartitionConfig:
    return PartitionConfig(
        num_partitions=NUM_PARTITIONS, workers=1, executor="serial",
        max_refine_passes=30, balance_slack=0.6,
    )


def build_campaign(pair) -> PartitionedCampaign:
    return PartitionedCampaign(
        pair,
        campaign_config(),
        strategy="uncertainty",
        active_config=loop_config(),
        partition=partition_knobs(),
        resolve_env=False,  # the comparison must not switch executors from outside
    )


def drift_delta(campaign: PartitionedCampaign, step: int) -> KGDelta:
    """One update batch confined to a single partition's community.

    New gold-linked entity pairs anchored inside piece ``step % P``, plus a
    fresh triple between existing entities of that piece — the localised
    drift the membership routing exists for.
    """
    piece = campaign.partition.pieces[step % NUM_PARTITIONS]
    anchors_1 = [n for n in piece.pair.kg1.entities if not n.startswith("lw1:inc")]
    anchors_2 = [n for n in piece.pair.kg2.entities if not n.startswith("lw2:inc")]
    relations_1 = campaign.dataset.kg1.relations
    relations_2 = campaign.dataset.kg2.relations
    new_1, new_2, triples_1, triples_2, links = [], [], [], [], []
    for j in range(ENTITIES_PER_UPDATE):
        a = f"lw1:inc{step}_{j}"
        b = f"lw2:inc{step}_{j}"
        new_1.append(a)
        new_2.append(b)
        anchor_1 = anchors_1[(7 * step + 3 * j) % len(anchors_1)]
        anchor_2 = anchors_2[(7 * step + 3 * j) % len(anchors_2)]
        triples_1.append((a, relations_1[j % len(relations_1)], anchor_1))
        triples_1.append((anchors_1[(7 * step + 3 * j + 1) % len(anchors_1)],
                          relations_1[(j + 1) % len(relations_1)], a))
        triples_2.append((b, relations_2[j % len(relations_2)], anchor_2))
        links.append((a, b))
    return KGDelta(
        added_entities_1=tuple(new_1),
        added_entities_2=tuple(new_2),
        added_triples_1=tuple(triples_1),
        added_triples_2=tuple(triples_2),
        added_gold_links=tuple(links),
    )


class Storm:
    """Open-loop query pressure from worker threads, across hot-swaps."""

    def __init__(self, frontend, uris) -> None:
        self.frontend = frontend
        self.uris = uris
        self.issued = 0
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True) for i in range(2)
        ]

    def _run(self, worker: int) -> None:
        position = worker
        while not self._stop.is_set():
            uri = self.uris[position % len(self.uris)]
            position += len(self._threads)
            try:
                answer = self.frontend.submit_top_k(
                    uri, k=STORM_TOP_K, deadline_ms=30_000.0
                ).result(timeout=30.0)
                if len(answer) != STORM_TOP_K:
                    raise RuntimeError(f"short answer for {uri!r}: {len(answer)}")
                with self._lock:
                    self.issued += 1
            except Exception as exc:  # noqa: BLE001 - every failure is a finding
                with self._lock:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                    self.issued += 1
            time.sleep(0.002)

    def __enter__(self) -> "Storm":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=60.0)


@pytest.fixture(scope="module")
def update_results():
    from repro.serving import FrontendConfig

    results: dict = {}

    # ---------------------------------------------------------- incremental
    incremental = build_campaign(world_pair())
    start = time.perf_counter()
    incremental.run()
    baseline_seconds = time.perf_counter() - start

    deltas: list[KGDelta] = []
    update_seconds: list[float] = []
    touched: list[tuple[int, ...]] = []
    frontend = serve(
        incremental,
        frontend=FrontendConfig(
            num_workers=2, max_queue_depth=8192, default_deadline_ms=30_000.0
        ),
    )
    service = frontend.service
    storm_uris = list(world_pair().kg1.entities[: max(32, NUM_ENTITIES // 16)])
    try:
        with Storm(frontend, storm_uris) as storm:
            for step in range(NUM_UPDATES):
                delta = drift_delta(incremental, step)
                deltas.append(delta)
                start = time.perf_counter()
                report = incremental.apply_update(delta)
                update_seconds.append(time.perf_counter() - start)
                touched.append(report.touched)
                # zero-downtime refresh: queries keep resolving against the
                # old snapshot until the single reference assignment
                service.hot_swap(incremental)
        frontend.drain()
        stats = frontend.stats()
    finally:
        frontend.stop()
    results["incremental"] = {
        "baseline_seconds": baseline_seconds,
        "update_seconds": update_seconds,
        "touched": touched,
        "h1": incremental.evaluate()["entity"].hits_at_1,
        "storm_issued": storm.issued,
        "storm_errors": storm.errors,
        "storm_shed": stats["shed_total"],
        "num_entities": incremental.dataset.kg1.num_entities,
    }

    # --------------------------------------------------------- full retrain
    pair = world_pair()
    retrain_seconds: list[float] = []
    full = None
    for delta in deltas:
        pair = pair.apply_delta(delta)
        full = build_campaign(pair)
        start = time.perf_counter()
        full.run()
        retrain_seconds.append(time.perf_counter() - start)
    results["full"] = {
        "retrain_seconds": retrain_seconds,
        "h1": full.evaluate()["entity"].hits_at_1,
    }
    return results


def test_bench_incremental_update(update_results):
    incremental = update_results["incremental"]
    full = update_results["full"]
    incremental_total = sum(incremental["update_seconds"])
    full_total = sum(full["retrain_seconds"])
    ratio = incremental_total / full_total
    h1_delta = incremental["h1"] - full["h1"]

    rows = []
    for step in range(NUM_UPDATES):
        rows.append(
            [
                f"update {step}",
                str(list(incremental["touched"][step])),
                f"{incremental['update_seconds'][step]:.2f}s",
                f"{full['retrain_seconds'][step]:.2f}s",
            ]
        )
    rows.append(["total", "-", f"{incremental_total:.2f}s", f"{full_total:.2f}s"])
    print_table(
        f"Incremental updates ({NUM_ENTITIES}+ entities/side, {NUM_PARTITIONS} "
        f"partitions, {NUM_UPDATES} update batches)",
        ["batch", "touched pieces", "incremental", "full retrain"],
        rows,
    )

    record_bench(
        "update",
        wall_time_seconds=incremental["baseline_seconds"] + incremental_total + full_total,
        headline={
            "incremental_over_full_ratio": round(ratio, 3),
            "incremental_seconds": round(incremental_total, 2),
            "full_retrain_seconds": round(full_total, 2),
            "h1_incremental": round(incremental["h1"], 4),
            "h1_full_retrain": round(full["h1"], 4),
            "h1_delta": round(h1_delta, 4),
            "storm_requests": incremental["storm_issued"],
            "storm_errors": len(incremental["storm_errors"]),
            "storm_shed": int(incremental["storm_shed"]),
        },
        detail={
            "num_entities_start": NUM_ENTITIES,
            "num_entities_end": incremental["num_entities"],
            "num_partitions": NUM_PARTITIONS,
            "num_updates": NUM_UPDATES,
            "entities_per_update": ENTITIES_PER_UPDATE,
            "touched_per_update": [list(t) for t in incremental["touched"]],
            "update_seconds": [round(s, 3) for s in incremental["update_seconds"]],
            "retrain_seconds": [round(s, 3) for s in full["retrain_seconds"]],
            "baseline_seconds": round(incremental["baseline_seconds"], 2),
        },
    )

    # each localised delta must touch exactly one piece
    assert all(len(t) == 1 for t in incremental["touched"])
    assert ratio <= 0.5, f"incremental updates not cheap enough: {ratio:.2f}x full retrain"
    assert abs(h1_delta) <= 0.02, f"incremental quality drifted: ΔH@1 {h1_delta:+.4f}"
    assert incremental["storm_errors"] == [], incremental["storm_errors"][:5]
    assert incremental["storm_shed"] == 0
    assert incremental["storm_issued"] > 0
