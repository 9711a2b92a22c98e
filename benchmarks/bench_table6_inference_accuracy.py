"""Table 6: accuracy of the inference power measurement.

For each base embedding model and fit seed, takes the labelled training
matches, computes the element pairs whose inference power from those labels
exceeds the threshold κ, and records the inferred-set size beside the
fraction of it that are true matches (its precision).  The paper's shape:
the measurement is accurate (≳0.75).  The gate: TransE and RotatE infer
something on every seed, at mean precision ≥ 0.75.  CompGCN's aggregated
outputs do not carry the translation the edge cost rests on, so it infers
nothing; its row is a strict expected failure until a non-translational
cost exists.
"""

import statistics
import time

import numpy as np
import pytest

from conftest import BENCH_DATASETS, fitted_daakg, print_table, record_bench
from repro.inference.power import inference_accuracy
from repro.kg.elements import ElementKind

SEEDS = (0, 1, 2)
MIN_MEAN_PRECISION = 0.75

_RESULTS: dict[str, list[tuple[int, float | None]]] = {}


def _runs(base_model: str) -> list[tuple[int, float | None]]:
    """``(inferred-set size, precision)`` per fit seed; precision is ``None``
    when nothing is inferred."""
    if base_model in _RESULTS:
        return _RESULTS[base_model]
    start = time.perf_counter()
    runs = []
    for seed in SEEDS:
        pipeline = fitted_daakg(BENCH_DATASETS[0], base_model, seed=seed)
        pool = pipeline.build_pool()
        _, estimator = pipeline.build_inference_estimator(pool)
        matches = np.array(pipeline.trainer.labels.matches[ElementKind.ENTITY]).reshape(-1, 2)
        labelled = pool.pair_ids(ElementKind.ENTITY, matches[:, 0], matches[:, 1])
        labelled = labelled[labelled >= 0]  # pairs outside the pool reach nothing
        gold = {
            ElementKind.ENTITY: {tuple(r) for r in pipeline.pair.entity_match_ids().tolist()},
            ElementKind.RELATION: {tuple(r) for r in pipeline.pair.relation_match_ids().tolist()},
            ElementKind.CLASS: {tuple(r) for r in pipeline.pair.class_match_ids().tolist()},
        }
        runs.append(inference_accuracy(estimator, labelled, gold))
    _RESULTS[base_model] = runs
    precisions = [precision for _, precision in runs]
    mean = None if None in precisions else round(statistics.fmean(precisions), 4)
    record_bench(
        "table6",
        wall_time_seconds=time.perf_counter() - start,
        headline={
            f"{base_model}:mean_precision": mean,
            f"{base_model}:min_inferred": min(inferred for inferred, _ in runs),
        },
        detail={
            base_model: [
                {
                    "seed": seed,
                    "inferred": inferred,
                    "precision": None if precision is None else round(precision, 4),
                }
                for seed, (inferred, precision) in zip(SEEDS, runs)
            ]
        },
    )
    print_table(
        f"Table 6: inference power accuracy ({BENCH_DATASETS[0]}, {base_model})",
        ["Fit seed", "Inferred", "Precision"],
        [
            [seed, inferred, "—" if precision is None else f"{precision:.3f}"]
            for seed, (inferred, precision) in zip(SEEDS, runs)
        ],
    )
    return runs


@pytest.mark.parametrize(
    "base_model",
    [
        "transe",
        "rotate",
        pytest.param(
            "compgcn",
            marks=pytest.mark.xfail(
                strict=True,
                reason="infers nothing: CompGCN's outputs carry no translation for the edge cost",
            ),
        ),
    ],
)
def test_table6_inference_accuracy(benchmark, base_model):
    runs = benchmark.pedantic(lambda: _runs(base_model), rounds=1, iterations=1)
    assert all(inferred > 0 for inferred, _ in runs), f"a seed inferred nothing: {runs}"
    mean = statistics.fmean(precision for _, precision in runs)
    assert mean >= MIN_MEAN_PRECISION, f"mean precision {mean:.3f}: {runs}"
