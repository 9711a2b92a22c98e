"""Partition-parallel campaign: executor sweep, wall-clock speedup, parity.

The campaign runtime's claim is threefold:

* cutting the pair into ρ-bounded partitions turns one quadratic campaign
  into ``P`` much smaller ones, so total wall-clock drops even serially;
* the **process executor** breaks the GIL: the training loops are pure-
  numpy Python, so a thread pool cannot scale them (this benchmark measured
  serial beating four threads before the thread backend was retired), while
  worker processes buy real cores;
* results are **byte-identical** across every executor backend and worker
  count — the backend may only ever change wall-clock.

This benchmark pins all three with numbers on a community-structured
shared-topology world pair (the regime ρ-bounded partitioning exists for):
one monolithic campaign versus the partitioned campaign across an executor
sweep — serial, process×2, process×4 — all on the streamed similarity
runtime.

Assertions (always):

* the best partitioned configuration is ≥ 1.5× faster than the monolithic
  run,
* merged entity H@1 within 0.02 of the monolithic H@1,
* the deterministic result payload (scores, per-partition records, merged
  top-k digest) is byte-identical across **every** sweep entry.

Assertion (multi-core runners only, ``os.cpu_count() >= 4`` — CI enforces
it; a single-core box cannot measure it honestly):

* process×4 is ≥ 1.5× faster than the monolithic run.

Writes ``BENCH_partition.json`` via the shared conftest harness.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from conftest import BENCH_SCALE, print_table, record_bench
from repro import DAAKG, DAAKGConfig, PartitionConfig, PartitionedCampaign
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.datasets import make_large_world_pair
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.kg.elements import ElementKind
from repro.kg.pair import SplitRatios

MIN_ENTITIES = 2400
NUM_ENTITIES = max(MIN_ENTITIES, int(6000 * BENCH_SCALE))
NUM_PARTITIONS = 4
#: (executor, workers) sweep; every entry must produce identical bytes.
EXECUTOR_SWEEP = (("serial", 1), ("process", 2), ("process", 4))
TOP_K = 10
MULTI_CORE = (os.cpu_count() or 1) >= 4


def sweep_key(executor: str, workers: int) -> str:
    return f"{executor}_{workers}"


def world_pair():
    pair = make_large_world_pair(
        NUM_ENTITIES,
        mean_out_degree=6.0,
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
        entity_dim=32,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=4),
        alignment=AlignmentTrainingConfig(
            rounds=3, epochs_per_round=12, num_negatives=8,
            embedding_batches_per_round=3, embedding_batch_size=512,
        ),
        pool=PoolConfig(top_n=20),
        seed=0,
    )


def loop_config() -> ActiveLearningConfig:
    return ActiveLearningConfig(batch_size=30, num_batches=2, fine_tune_epochs=6)


def partition_knobs(executor: str, workers: int) -> PartitionConfig:
    return PartitionConfig(
        num_partitions=NUM_PARTITIONS,
        workers=workers,
        executor=executor,
        max_refine_passes=30,
        balance_slack=0.6,
    )


def deterministic_payload(campaign: PartitionedCampaign) -> dict:
    """Everything about a campaign run that must not depend on the executor.

    Wall-clock, backend and worker count are deliberately excluded; scores,
    record sequences and a digest of the merged entity top-k table are all
    included.
    """
    merged = campaign.merged_state()
    table = merged.top_k_table(ElementKind.ENTITY, TOP_K)
    digest = hashlib.sha256()
    for array in (
        table.left_indices, table.left_values, table.right_indices, table.right_values
    ):
        digest.update(array.tobytes())
    scores = campaign.evaluate()
    return {
        "scores": {kind: s.as_dict() for kind, s in scores.items()},
        "records": [
            [
                [r.batch_index, r.labels_used, r.matches_labelled, r.entity_scores.as_dict()]
                for r in campaign.loops[i].records
            ]
            for i in range(campaign.num_partitions)
        ],
        "merged_topk_sha256": digest.hexdigest(),
    }


@pytest.fixture(scope="module")
def campaign_results():
    results: dict = {}

    start = time.perf_counter()
    monolithic = DAAKG(world_pair(), campaign_config())
    monolithic.fit()
    monolithic.active_learning("uncertainty", loop_config()).run()
    results["monolithic"] = {
        "seconds": time.perf_counter() - start,
        "h1": monolithic.evaluate()["entity"].hits_at_1,
    }

    results["partitioned"] = {}
    for executor, workers in EXECUTOR_SWEEP:
        start = time.perf_counter()
        campaign = PartitionedCampaign(
            world_pair(),
            campaign_config(),
            strategy="uncertainty",
            active_config=loop_config(),
            partition=partition_knobs(executor, workers),
            resolve_env=False,  # the sweep must not be overridden from outside
        )
        run_result = campaign.run()
        assert run_result.executor == executor
        seconds = time.perf_counter() - start
        results["partitioned"][sweep_key(executor, workers)] = {
            "executor": executor,
            "workers": workers,
            "seconds": seconds,
            "payload": deterministic_payload(campaign),
            "cut_weight_fraction": campaign.partition.cut_weight_fraction,
            "piece_entities": [
                piece.pair.kg1.num_entities for piece in campaign.partition.pieces
            ],
        }
    return results


def test_bench_partition_campaign(campaign_results):
    mono = campaign_results["monolithic"]
    sweep = campaign_results["partitioned"]
    keys = [sweep_key(executor, workers) for executor, workers in EXECUTOR_SWEEP]
    speedups = {key: mono["seconds"] / sweep[key]["seconds"] for key in keys}
    reference = sweep[sweep_key("process", 4)]
    merged_h1 = reference["payload"]["scores"]["entity"]["H@1"]
    h1_delta = merged_h1 - mono["h1"]

    rows = [["monolithic", "-", 1, f"{mono['seconds']:.2f}s", "1.00x", f"{mono['h1']:.4f}"]]
    for key in keys:
        entry = sweep[key]
        h1 = entry["payload"]["scores"]["entity"]["H@1"]
        rows.append(
            [
                f"partitioned x{NUM_PARTITIONS}",
                entry["executor"],
                entry["workers"],
                f"{entry['seconds']:.2f}s",
                f"{speedups[key]:.2f}x",
                f"{h1:.4f}",
            ]
        )
    print_table(
        f"Partition-parallel campaign ({NUM_ENTITIES} entities/side, "
        f"{NUM_PARTITIONS} partitions, {os.cpu_count()} cores)",
        ["campaign", "executor", "workers", "wall", "speedup", "entity H@1"],
        rows,
    )

    payload_bytes = {
        key: json.dumps(sweep[key]["payload"], sort_keys=True).encode("utf-8")
        for key in keys
    }
    executors_identical = all(payload_bytes[key] == payload_bytes[keys[0]] for key in keys)

    record_bench(
        "partition",
        wall_time_seconds=mono["seconds"] + sum(sweep[key]["seconds"] for key in keys),
        headline={
            "speedup_serial_1_vs_monolithic": round(speedups["serial_1"], 2),
            "speedup_process_4_vs_monolithic": round(speedups["process_4"], 2),
            "h1_merged": round(merged_h1, 4),
            "h1_monolithic": round(mono["h1"], 4),
            "h1_delta": round(h1_delta, 4),
            "executors_identical": executors_identical,
        },
        detail={
            "num_entities": NUM_ENTITIES,
            "num_partitions": NUM_PARTITIONS,
            "cpu_count": os.cpu_count(),
            "multi_core_assertions": MULTI_CORE,
            "cut_weight_fraction": round(reference["cut_weight_fraction"], 4),
            "piece_entities": reference["piece_entities"],
            "seconds": {
                "monolithic": round(mono["seconds"], 2),
                **{key: round(sweep[key]["seconds"], 2) for key in keys},
            },
            "merged_topk_sha256": reference["payload"]["merged_topk_sha256"],
        },
    )

    # some partitioned configuration must clearly beat the monolithic
    # wall-clock on any machine (serially on one core, via processes on many)
    best = max(speedups.values())
    assert best >= 1.5, (
        f"best partitioned configuration is only {best:.2f}x faster than the "
        "monolithic run (need >= 1.5x)"
    )
    # merging must not cost (or magically gain) accuracy
    assert abs(h1_delta) <= 0.02, (
        f"merged H@1 {merged_h1:.4f} deviates from monolithic {mono['h1']:.4f} "
        f"by {h1_delta:+.4f} (budget 0.02)"
    )
    # the executor backend and worker count must never change results
    assert executors_identical, (
        "campaign results differ across executor backends — "
        "the determinism contract is broken"
    )
    if MULTI_CORE:
        # with real cores, the process backend must deliver the paper claim
        assert speedups["process_4"] >= 1.5, (
            f"process executor at 4 workers is only {speedups['process_4']:.2f}x "
            "faster than the monolithic run on a multi-core machine (need >= 1.5x)"
        )
