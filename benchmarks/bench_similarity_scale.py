"""Similarity scaling: streamed O(block² + N·k) vs assembled O(N·M) memory.

The point of the streamed similarity engine is that its peak *transient*
memory — the working set of a top-k pass above the model's resident factor
state — is bounded by the tile size, not by ``N × M``.  This benchmark pins
that claim with numbers: the same query workload (top-k tables in both
directions, evaluation over a fixed gold budget, semi-supervised threshold
mining) runs on synthetic large-world pairs at scale factors 1 / 2 / 4, once
through the engine and once on a reference that assembles the full matrix
(:func:`~repro.runtime.backends.assemble_matrix`) and applies the
full-matrix functions to it, tracking per-phase peak allocations with
``tracemalloc`` (which traces NumPy buffers).

Assertions:

* the streamed top-k transient peak is flat across scale factors (within
  10% — the tile dominates; the ``N·k`` output is visible but small),
* the assembled reference's top-k transient peak grows ~quadratically (≥ 4×
  from scale 1 to scale 4; in practice ~16×),
* at the largest scale the engine's worst phase uses a small fraction of the
  reference's.

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
    evaluate_alignment,
    evaluate_alignment_from_engine,
    mine_potential_matches,
    mine_potential_matches_from_engine,
)
from repro.alignment.model import JointAlignmentModel
from repro.datasets import make_large_world_pair
from repro.embedding import TransE
from repro.kg.elements import ElementKind
from repro.runtime.backends import assemble_matrix
from repro.utils.math import top_k_rows

BASE_ENTITIES = 1408
SCALE_FACTORS = (1, 2, 4)
STREAM_BLOCK = 1024  # below every scale's side: the engine streams, keeps no tile
ASSEMBLY_BLOCK = 4096  # the engine's default block
LANDMARK_BUDGET = 128
GOLD_BUDGET = 64
TOP_K = 10
MINE_THRESHOLD = 0.8
RUNS = ("assembled", "streamed")


def build_engine(pair) -> SimilarityEngine:
    """An untrained joint model read through a ``STREAM_BLOCK`` engine.

    Training is irrelevant to the memory profile of the similarity runtime,
    so random TransE embeddings keep the benchmark about the queries.
    """
    model = JointAlignmentModel(
        pair,
        TransE(pair.kg1, dim=32, rng=0),
        TransE(pair.kg2, dim=32, rng=1),
        rng=0,
    )
    engine = SimilarityEngine(model, block_size=STREAM_BLOCK)
    model.similarity = engine
    model.set_landmarks(pair.entity_match_ids()[:LANDMARK_BUDGET])
    return engine


def measure(queries: dict) -> dict:
    """Per-phase wall time and transient peak MB of ``queries`` (name -> call).

    Transient peak = tracemalloc peak minus the traced memory resident when
    the phase starts, i.e. the phase's working set above the model state
    (snapshot, channel factors) and whatever earlier phases left resident.
    """
    phases: dict[str, dict] = {}
    for name, query in queries.items():
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        query()
        phases[name] = {
            "seconds": round(time.perf_counter() - start, 3),
            "transient_peak_mb": round((tracemalloc.get_traced_memory()[1] - base) / 1e6, 2),
        }
    return phases


def run_workload(engine: SimilarityEngine, gold: np.ndarray, run: str) -> dict:
    """The query workload through the engine, or on the assembled reference.

    The reference assembles the full matrix in its top-k phase and keeps it
    resident for the evaluation and mining phases, as a cached matrix would.
    """
    engine.model.refresh_statistics()
    channels = engine.channels(ElementKind.ENTITY)  # warm the factor cache
    if run == "streamed":
        return measure(
            {
                "topk": lambda: engine.top_k_table(ElementKind.ENTITY, TOP_K),
                "evaluate": lambda: evaluate_alignment_from_engine(
                    engine, ElementKind.ENTITY, gold
                ),
                "mine": lambda: mine_potential_matches_from_engine(
                    engine, ElementKind.ENTITY, threshold=MINE_THRESHOLD
                ),
            }
        )
    held = {}

    def topk():
        matrix = held["matrix"] = assemble_matrix(channels, ASSEMBLY_BLOCK)
        top_k_rows(matrix, TOP_K)
        top_k_rows(matrix.T, TOP_K)

    return measure(
        {
            "topk": topk,
            "evaluate": lambda: evaluate_alignment(held["matrix"], gold),
            "mine": lambda: mine_potential_matches(held["matrix"], threshold=MINE_THRESHOLD),
        }
    )


@pytest.fixture(scope="module")
def scale_results():
    results: dict[str, dict[int, dict]] = {run: {} for run in RUNS}
    for factor in SCALE_FACTORS:
        pair = make_large_world_pair(BASE_ENTITIES * factor, seed=factor)
        for run in RUNS:
            engine = build_engine(pair)
            tracemalloc.start()
            try:
                results[run][factor] = run_workload(
                    engine, pair.entity_match_ids()[:GOLD_BUDGET], run
                )
            finally:
                tracemalloc.stop()
    return results


def test_bench_similarity_scale(scale_results):
    rows = []
    for run in RUNS:
        for factor in SCALE_FACTORS:
            phases = scale_results[run][factor]
            rows.append(
                [
                    run,
                    BASE_ENTITIES * factor,
                    phases["topk"]["transient_peak_mb"],
                    phases["evaluate"]["transient_peak_mb"],
                    phases["mine"]["transient_peak_mb"],
                    round(sum(p["seconds"] for p in phases.values()), 2),
                ]
            )
    print_table(
        "Similarity scaling (transient peak MB per phase)",
        ["run", "entities/side", "topk MB", "eval MB", "mine MB", "total s"],
        rows,
    )

    assembled_topk = {
        f: scale_results["assembled"][f]["topk"]["transient_peak_mb"] for f in SCALE_FACTORS
    }
    streamed_topk = {
        f: scale_results["streamed"][f]["topk"]["transient_peak_mb"] for f in SCALE_FACTORS
    }
    assembled_growth = assembled_topk[4] / assembled_topk[1]
    streamed_growth = streamed_topk[4] / streamed_topk[1]
    worst_assembled = max(p["transient_peak_mb"] for p in scale_results["assembled"][4].values())
    worst_streamed = max(p["transient_peak_mb"] for p in scale_results["streamed"][4].values())

    record_bench(
        "scale",
        wall_time_seconds=sum(
            p["seconds"]
            for per_scale in scale_results.values()
            for phases in per_scale.values()
            for p in phases.values()
        ),
        headline={
            "assembled_topk_growth_1_to_4": round(assembled_growth, 2),
            "streamed_topk_growth_1_to_4": round(streamed_growth, 3),
            "assembled_peak_mb_at_scale_4": worst_assembled,
            "streamed_peak_mb_at_scale_4": worst_streamed,
            "peak_reduction_at_scale_4": round(worst_assembled / worst_streamed, 1),
        },
        detail={
            "base_entities": BASE_ENTITIES,
            "scale_factors": list(SCALE_FACTORS),
            "stream_block": STREAM_BLOCK,
            "assembly_block": ASSEMBLY_BLOCK,
            "landmark_budget": LANDMARK_BUDGET,
            "gold_budget": GOLD_BUDGET,
            "results": {
                run: {str(f): phases for f, phases in per_scale.items()}
                for run, per_scale in scale_results.items()
            },
        },
    )

    # the assembled matrix's transient peak tracks N×M (~quadratic in the scale)
    assert assembled_growth >= 4.0, (
        f"assembled top-k peak grew only {assembled_growth:.1f}x from scale 1 to 4"
    )
    # streamed peak stays flat: the tile dominates, N·k output is marginal
    assert streamed_growth <= 1.10, (
        f"streamed top-k peak grew {streamed_growth:.2f}x across scales; "
        "expected flat (within 10%) — the streaming invariant is broken"
    )
    assert worst_streamed < worst_assembled / 4, (
        f"streamed worst-phase peak {worst_streamed}MB is not clearly below "
        f"the assembled reference's {worst_assembled}MB at scale 4"
    )
