"""Figure 6: recall of the element pair pool as a function of N.

Sweeps the top-N parameter of the schema-signature pool generation and
measures how many gold entity matches survive, together with the fraction of
the full pair space the pool retains.  The paper's shape: recall grows with N
while the pool stays a small fraction of all pairs.

Writes ``BENCH_fig6.json`` via the shared conftest harness: per N the entity
pair count, recall and pair-space reduction, with the recall at the largest N
as the headline.
"""

import time

from conftest import BENCH_DATASETS, fitted_daakg, print_table, record_bench
from repro.active.pool import PoolConfig, build_pool
from repro.kg.elements import ElementKind

N_VALUES = [10, 25, 50, 100, 200]


def test_fig6_pool_recall(benchmark):
    pipeline = fitted_daakg(BENCH_DATASETS[0], "transe")
    gold = {
        (pipeline.kg1.entity_id(a), pipeline.kg2.entity_id(b))
        for a, b in pipeline.pair.entity_alignment.pairs
    }
    total_pairs = pipeline.kg1.num_entities * pipeline.kg2.num_entities

    def run() -> list[dict]:
        rows = []
        for n in N_VALUES:
            start = time.perf_counter()
            pool = build_pool(pipeline.model, PoolConfig(top_n=n))
            entity_pairs = len(pool.sides(ElementKind.ENTITY))
            rows.append({
                "n": n,
                "entity_pairs": entity_pairs,
                "recall": round(pool.recall_of_matches(gold), 4),
                "reduction": round(1.0 - entity_pairs / total_pairs, 4),
                "seconds": round(time.perf_counter() - start, 4),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Figure 6: pool recall vs N ({BENCH_DATASETS[0]}, TransE)",
        ["N", "Entity pairs", "Recall", "Pair-space reduction"],
        [[r["n"], r["entity_pairs"], f"{r['recall']:.3f}", f"{r['reduction']:.3f}"] for r in rows],
    )
    record_bench(
        "fig6",
        wall_time_seconds=sum(r["seconds"] for r in rows),
        headline={
            "recall_at_max_n": rows[-1]["recall"],
            "entity_pairs_at_max_n": rows[-1]["entity_pairs"],
        },
        detail={"dataset": BENCH_DATASETS[0], "total_pairs": total_pairs, "results": rows},
    )
    recalls = [r["recall"] for r in rows]
    # Recall must be monotone non-decreasing in N.
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))
