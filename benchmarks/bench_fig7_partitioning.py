"""Figure 7: run time and relative inference power of partition-based selection.

Compares Algorithm 1 (greedy selection on exact reachable sets) against
Algorithm 2 (graph-partitioning-based selection) for several values of the
partition threshold ρ.  For each ρ it records the wall-clock of one batch
selection, its ratio to Algorithm 1's wall-clock, the number of groups the
partitioning produced, and the relative expected overall inference power of
the selected batch.  Every run must return ``BATCH_SIZE`` distinct pairs with
non-zero power; the timings are recorded, not gated, because a single-shot
sub-second ratio is too noisy to gate.

Writes ``BENCH_fig7.json`` via the shared conftest harness (headline: greedy
wall time and worst relative power), so the selection runtime's trajectory is
tracked across PRs like every other benchmark.
"""

import time

import numpy as np

from conftest import BENCH_DATASETS, fitted_daakg, print_table, record_bench
from repro.active.partition import PartitionSelectionConfig, partition_pool, partition_select
from repro.active.selection import GreedySelectionConfig, expected_overall_power, greedy_select
from repro.alignment.calibration import AlignmentCalibrator
from repro.kg.elements import ElementKind

RHO_VALUES = [1.0, 0.95, 0.9, 0.85, 0.8]
BATCH_SIZE = 30


def test_fig7_partitioning(benchmark):
    pipeline = fitted_daakg(BENCH_DATASETS[0], "transe")
    pool = pipeline.build_pool()
    graph, estimator = pipeline.build_inference_estimator(pool)
    calibrator = AlignmentCalibrator(pipeline.config.calibration)
    matrices = {
        ElementKind.ENTITY: calibrator.probability_matrix(
            pipeline.model.entity_similarity_matrix(), ElementKind.ENTITY
        ),
        ElementKind.RELATION: calibrator.probability_matrix(
            pipeline.model.relation_similarity_matrix(), ElementKind.RELATION
        ),
        ElementKind.CLASS: calibrator.probability_matrix(
            pipeline.model.class_similarity_matrix(), ElementKind.CLASS
        ),
    }
    sides = {kind: pool.sides(kind) for kind in ElementKind}
    probabilities = np.concatenate([
        matrices[kind][s[:, 0], s[:, 1]] if matrices[kind].size else np.zeros(len(s))
        for kind, s in sides.items()
    ])
    candidates = np.arange(len(pool))
    selection_config = GreedySelectionConfig(
        power_threshold=estimator.config.power_threshold, candidate_limit=500
    )

    def run() -> list[dict]:
        entries = []
        start = time.perf_counter()
        greedy_batch = greedy_select(candidates, probabilities, estimator.reachable_power,
                                     BATCH_SIZE, selection_config, rng=0)
        greedy_time = time.perf_counter() - start
        greedy_power = expected_overall_power(
            greedy_batch, probabilities, estimator.reachable_power,
            power_threshold=estimator.config.power_threshold, rng=0,
        )
        entries.append({"rho": 1.0, "algorithm": "greedy", "seconds": greedy_time,
                        "relative_power": 1.0, "batch": greedy_batch})
        for rho in RHO_VALUES[1:]:
            partition_config = PartitionSelectionConfig(rho=rho)
            start = time.perf_counter()
            batch = partition_select(
                candidates, probabilities, graph, estimator, BATCH_SIZE,
                selection_config=selection_config,
                partition_config=partition_config,
                rng=0,
            )
            elapsed = time.perf_counter() - start
            power = expected_overall_power(
                batch, probabilities, estimator.reachable_power,
                power_threshold=estimator.config.power_threshold, rng=0,
            )
            relative = power / greedy_power if greedy_power > 0 else 1.0
            groups = len(set(partition_pool(graph, estimator, partition_config).values()))
            entries.append({"rho": rho, "algorithm": "partition", "seconds": elapsed,
                            "seconds_vs_greedy": elapsed / greedy_time, "groups": groups,
                            "relative_power": relative, "batch": batch})
        return entries

    entries = benchmark.pedantic(run, rounds=1, iterations=1)
    batches = [e.pop("batch") for e in entries]
    print_table(
        f"Figure 7: selection algorithms ({BENCH_DATASETS[0]}, TransE, B={BATCH_SIZE})",
        ["Algorithm", "Time", "Time / greedy", "Groups", "Relative inference power"],
        [
            [
                f"{e['algorithm']} (rho={e['rho']:.2f})",
                f"{e['seconds']:.2f}s",
                f"{e.get('seconds_vs_greedy', 1.0):.2f}",
                str(e.get("groups", "-")),
                f"{e['relative_power']:.3f}",
            ]
            for e in entries
        ],
    )
    greedy_seconds = entries[0]["seconds"]
    partition_entries = entries[1:]
    record_bench(
        "fig7",
        wall_time_seconds=sum(e["seconds"] for e in entries),
        # headline carries the deterministic quality number; raw selection
        # timings live in detail — a single-shot sub-second ratio would make
        # the regression wall gate on timing noise
        headline={
            "greedy_seconds": round(greedy_seconds, 3),
            "worst_relative_power": round(
                min(e["relative_power"] for e in partition_entries), 3
            ),
        },
        detail={
            "batch_size": BATCH_SIZE,
            "dataset": BENCH_DATASETS[0],
            "results": [
                {key: (round(v, 4) if isinstance(v, float) else v) for key, v in e.items()}
                for e in entries
            ],
        },
    )
    for entry, batch in zip(entries, batches):
        assert len(set(batch.tolist())) == BATCH_SIZE, entry
    assert all(e["relative_power"] > 0.0 for e in partition_entries)
