"""Concurrent serving under load: dispatcher, backpressure, zero-downtime swap.

Fits a small DAAKG pipeline, freezes it into an :class:`AlignmentService`,
and puts a :class:`ServingFrontend` dispatcher in front of it:

1. concurrent caller threads submit top-k and pair-score queries through the
   frontend's bounded admission queue; worker threads batch and resolve them
   (deadline-aware: a lone request waits at most half its latency budget),
2. a deliberate burst past the queue limit shows explicit load-shedding —
   a typed :class:`BackpressureError` instead of unbounded queueing,
3. the serving state is hot-swapped and a brand-new entity folded in *while
   the query storm is running* — zero request errors, and the state token
   in every cache key proves no stale result crossed the swap,
4. ``service.metrics()`` and ``frontend.stats()`` show what the run did.

Run with::

    python examples/async_serving.py
"""

import threading
import time

import numpy as np

from repro import DAAKG, DAAKGConfig, KGDelta, make_benchmark
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.serving import (
    BackpressureError,
    FrontendConfig,
    ServingFrontend,
    serve,
)
from repro.utils.logging import enable_console_logging


def fit_pipeline() -> DAAKG:
    pair = make_benchmark("D-W", scale=0.15, seed=0)
    config = DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=3),
        alignment=AlignmentTrainingConfig(
            rounds=1,
            epochs_per_round=8,
            num_negatives=5,
            embedding_batches_per_round=2,
            embedding_batch_size=256,
        ),
        seed=0,
    )
    pipeline = DAAKG(pair, config)
    pipeline.fit()
    return pipeline


def main() -> None:
    enable_console_logging()
    pipeline = fit_pipeline()
    service = serve(pipeline, max_batch=64, cache_size=2048)
    kg1, kg2 = pipeline.kg1, pipeline.kg2

    # ------------------------------------------------ 1. storm through the
    # dispatcher: three caller threads submit windows of queries and wait on
    # their tickets; worker threads flush deadline-aware batches.
    frontend = ServingFrontend(
        service,
        FrontendConfig(num_workers=2, max_queue_depth=2048, default_deadline_ms=25),
    )
    errors: list[Exception] = []
    resolved = [0]
    stop = threading.Event()

    def storm(seed: int) -> None:
        rng = np.random.default_rng(seed)
        count = 0
        while not stop.is_set():
            window = [
                frontend.submit_top_k(kg1.entities[i], k=5)
                for i in rng.integers(0, kg1.num_entities, 32)
            ]
            left = kg1.entities[int(rng.integers(kg1.num_entities))]
            right = kg2.entities[int(rng.integers(kg2.num_entities))]
            window.append(frontend.submit_score(left, right))
            for ticket in window:
                try:
                    ticket.result(timeout=10)
                    count += 1
                except Exception as exc:  # noqa: BLE001 - tallied below
                    errors.append(exc)
        resolved[0] += count

    tokens = {service.state_token}
    with frontend:
        threads = [threading.Thread(target=storm, args=(seed,)) for seed in range(3)]
        for thread in threads:
            thread.start()

        # -------------------------------------------- 2. zero-downtime swap
        # and fold-in while the storm runs: queries in flight finish against
        # the snapshot they started with, new batches see the new state.
        time.sleep(0.3)
        tokens.add(service.hot_swap(pipeline))
        victim = max(range(kg2.num_entities), key=kg2.entity_degree)
        triples = [
            ("demo:new-entity", kg2.relations[r], kg2.entities[t])
            for r, t in kg2.out_edges(victim)[:6]
        ]
        delta = KGDelta.single_entity("demo:new-entity", triples)
        tokens.add(service.apply_delta(delta)[-1].token)
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        frontend.drain(timeout=30)

        print(f"storm resolved {resolved[0]:,} queries with {len(errors)} errors")
        print(f"state tokens served: {len(tokens)} (initial, hot-swap, fold-in)")
        print(
            "folded-in entity scores:",
            np.round(service.score_pairs([(kg1.entities[0], "demo:new-entity")]), 4),
        )

        # ---------------------------------------- 3. explicit backpressure:
        # a burst past the queue limit is shed with a typed error, not
        # queued into unbounded latency.
        shed = 0
        last: BackpressureError | None = None
        burst = [kg1.entities[i % kg1.num_entities] for i in range(4096)]
        for uri in burst:
            try:
                frontend.submit_top_k(uri, k=5, deadline_ms=50)
            except BackpressureError as exc:
                shed += 1
                last = exc
        frontend.drain(timeout=30)
        if shed:
            print(f"burst of {len(burst)} sheds {shed} requests: {last}")

    # ------------------------------------------------ 4. telemetry: the
    # frontend publishes into the service's always-on registry, so one
    # snapshot covers both layers.
    metrics = service.metrics()
    service_keys = (
        "requests_total",
        "qps",
        "p50_latency_ms",
        "p99_latency_ms",
        "cache_hit_ratio",
        "hot_swaps",
        "fold_ins",
    )
    print("\nservice.metrics():")
    for key in service_keys:
        value = metrics[key]
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {key:>16}: {rendered}")
    print("frontend.stats():")
    for key, value in frontend.stats().items():
        print(f"  {key:>18}: {value}")


if __name__ == "__main__":
    main()
