"""Similarity backend scaling: dense O(N·M) vs sharded O(block² + N·k) memory.

The point of the sharded backend is that the similarity runtime's peak
*transient* memory — the working set of a top-k pass above the model's
resident factor state — is bounded by the tile size, not by ``N × M``.  This
benchmark pins that claim with numbers: the same query workload (streamed
top-k tables, evaluation over a fixed gold budget, semi-supervised threshold
mining) runs on synthetic large-world pairs at scale factors 1 / 2 / 4
against both backends, tracking per-phase peak allocations with
``tracemalloc`` (which traces NumPy buffers).

Assertions:

* the sharded top-k transient peak is flat across scale factors (within 10%
  — the tile dominates; the ``N·k`` output is visible but small),
* the dense top-k transient peak grows ~quadratically (≥ 4× from scale 1 to
  scale 4; in practice ~16×),
* at the largest scale the sharded backend's worst phase uses a small
  fraction of the dense backend's.

Evaluation uses a fixed 64-pair gold budget at every scale (a constant
labelling/evaluation budget, as in a real campaign) so the measured phase
isolates the similarity runtime rather than an O(gold·M) protocol slab, and
the landmark set is likewise pinned at 128 so the structural propagation
factors stay a constant number of columns.

Writes ``BENCH_scale.json`` via the shared conftest harness.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from conftest import print_table, record_bench
from repro.alignment import (
    SimilarityEngine,
    evaluate_alignment_from_engine,
    mine_potential_matches_from_engine,
)
from repro.alignment.model import JointAlignmentModel
from repro.datasets import make_large_world_pair
from repro.embedding import TransE
from repro.kg.elements import ElementKind
from repro.runtime import create_backend

BASE_ENTITIES = 1408
SCALE_FACTORS = (1, 2, 4)
SHARDED_BLOCK = 1024
DENSE_BLOCK = 4096  # the dense default: full-width row blocks
LANDMARK_BUDGET = 128
GOLD_BUDGET = 64
TOP_K = 10
MINE_THRESHOLD = 0.8


def build_engine(pair, backend: str) -> SimilarityEngine:
    """An untrained joint model with its engine pinned to ``backend``.

    Training is irrelevant to the memory profile of the similarity runtime,
    so random TransE embeddings keep the benchmark about the backends.  The
    backend is pinned directly (not via config) so the comparison is
    unaffected by a REPRO_SIMILARITY_BACKEND override in the environment.
    """
    model = JointAlignmentModel(
        pair,
        TransE(pair.kg1, dim=32, rng=0),
        TransE(pair.kg2, dim=32, rng=1),
        rng=0,
    )
    block = SHARDED_BLOCK if backend == "sharded" else DENSE_BLOCK
    engine = SimilarityEngine(model, block_size=block)
    engine.backend = create_backend(engine, backend)
    model.similarity = engine
    model.set_landmarks(pair.entity_match_ids()[:LANDMARK_BUDGET])
    return engine


def run_workload(engine: SimilarityEngine, gold: np.ndarray) -> dict:
    """The query workload; returns per-phase wall time and transient peak MB.

    Transient peak = tracemalloc peak minus the traced memory resident when
    the phase starts, i.e. the phase's working set above the model state
    (snapshot, channel factors) that exists on both backends anyway.
    """
    engine.model.refresh_statistics()
    if engine.backend_name == "sharded":
        engine.channels(ElementKind.ENTITY)  # warm the factor cache

    phases: dict[str, dict] = {}

    def phase(name, fn):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        fn()
        phases[name] = {
            "seconds": round(time.perf_counter() - start, 3),
            "transient_peak_mb": round(
                (tracemalloc.get_traced_memory()[1] - base) / 1e6, 2
            ),
        }

    phase("topk", lambda: engine.top_k_table(ElementKind.ENTITY, TOP_K))
    phase("evaluate", lambda: evaluate_alignment_from_engine(engine, ElementKind.ENTITY, gold))
    phase(
        "mine",
        lambda: mine_potential_matches_from_engine(
            engine, ElementKind.ENTITY, threshold=MINE_THRESHOLD
        ),
    )
    return phases


@pytest.fixture(scope="module")
def scale_results():
    results: dict[str, dict[int, dict]] = {"dense": {}, "sharded": {}}
    for factor in SCALE_FACTORS:
        pair = make_large_world_pair(BASE_ENTITIES * factor, seed=factor)
        for backend in ("dense", "sharded"):
            engine = build_engine(pair, backend)
            tracemalloc.start()
            try:
                results[backend][factor] = run_workload(engine, pair.entity_match_ids()[:GOLD_BUDGET])
            finally:
                tracemalloc.stop()
    return results


def test_bench_similarity_scale(scale_results):
    rows = []
    for backend in ("dense", "sharded"):
        for factor in SCALE_FACTORS:
            phases = scale_results[backend][factor]
            rows.append(
                [
                    backend,
                    BASE_ENTITIES * factor,
                    phases["topk"]["transient_peak_mb"],
                    phases["evaluate"]["transient_peak_mb"],
                    phases["mine"]["transient_peak_mb"],
                    round(sum(p["seconds"] for p in phases.values()), 2),
                ]
            )
    print_table(
        "Similarity backend scaling (transient peak MB per phase)",
        ["backend", "entities/side", "topk MB", "eval MB", "mine MB", "total s"],
        rows,
    )

    dense_topk = {f: scale_results["dense"][f]["topk"]["transient_peak_mb"] for f in SCALE_FACTORS}
    sharded_topk = {f: scale_results["sharded"][f]["topk"]["transient_peak_mb"] for f in SCALE_FACTORS}
    dense_growth = dense_topk[4] / dense_topk[1]
    sharded_growth = sharded_topk[4] / sharded_topk[1]
    worst_dense = max(p["transient_peak_mb"] for p in scale_results["dense"][4].values())
    worst_sharded = max(p["transient_peak_mb"] for p in scale_results["sharded"][4].values())

    record_bench(
        "scale",
        wall_time_seconds=sum(
            p["seconds"]
            for backend in scale_results.values()
            for phases in backend.values()
            for p in phases.values()
        ),
        headline={
            "dense_topk_growth_1_to_4": round(dense_growth, 2),
            "sharded_topk_growth_1_to_4": round(sharded_growth, 3),
            "dense_peak_mb_at_scale_4": worst_dense,
            "sharded_peak_mb_at_scale_4": worst_sharded,
            "peak_reduction_at_scale_4": round(worst_dense / worst_sharded, 1),
        },
        detail={
            "base_entities": BASE_ENTITIES,
            "scale_factors": list(SCALE_FACTORS),
            "sharded_block": SHARDED_BLOCK,
            "landmark_budget": LANDMARK_BUDGET,
            "gold_budget": GOLD_BUDGET,
            "results": {
                backend: {str(f): phases for f, phases in per_scale.items()}
                for backend, per_scale in scale_results.items()
            },
        },
    )

    # dense peak transient memory tracks N×M (~quadratic in the scale factor)
    assert dense_growth >= 4.0, f"dense top-k peak grew only {dense_growth:.1f}x from scale 1 to 4"
    # sharded peak stays flat: the tile dominates, N·k output is marginal
    assert sharded_growth <= 1.10, (
        f"sharded top-k peak grew {sharded_growth:.2f}x across scales; "
        "expected flat (within 10%) — the streaming invariant is broken"
    )
    assert worst_sharded < worst_dense / 4, (
        f"sharded worst-phase peak {worst_sharded}MB is not clearly below "
        f"dense {worst_dense}MB at scale 4"
    )

