"""Shared fixtures for the benchmark harness.

The benchmarks reproduce every table and figure of the paper's evaluation at a
reduced scale so the whole suite runs in minutes on a laptop.  Two environment
variables control fidelity:

* ``REPRO_BENCH_SCALE`` (default ``0.4``) — multiplier on dataset size,
* ``REPRO_BENCH_DATASETS`` (default ``D-W,D-Y``) — comma-separated dataset
  names; set to ``D-W,D-Y,EN-DE,EN-FR`` for the full sweep.

Expensive artefacts (datasets, fitted pipelines) are cached per session so the
table benchmarks that share them do not re-train.

Every bench module records its wall-time and headline metrics through
:func:`record_bench`; at session end the accumulated records are written as
machine-readable ``BENCH_<name>.json`` files in the repository root, so the
performance trajectory is tracked across PRs (CI uploads the table4 smoke
artifact on every run).
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import replace

import pytest

from repro import DAAKG, DAAKGConfig, make_benchmark
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.active.pool import PoolConfig
from repro.inference.power import InferencePowerConfig

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
BENCH_DATASETS = [
    name.strip()
    for name in os.environ.get("REPRO_BENCH_DATASETS", "D-W,D-Y").split(",")
    if name.strip()
]

_PAIR_CACHE: dict[str, object] = {}
_PIPELINE_CACHE: dict[tuple, DAAKG] = {}


def bench_pair(name: str):
    """A benchmark dataset at the configured scale (cached)."""
    key = f"{name}:{BENCH_SCALE}"
    if key not in _PAIR_CACHE:
        _PAIR_CACHE[key] = make_benchmark(name, scale=BENCH_SCALE, seed=0)
    return _PAIR_CACHE[key]


def quick_config(base_model: str = "transe", **overrides) -> DAAKGConfig:
    """A DAAKG configuration sized for the benchmark harness."""
    config = DAAKGConfig(
        base_model=base_model,
        pretrain=EmbeddingTrainingConfig(epochs=6),
        alignment=AlignmentTrainingConfig(
            rounds=3,
            epochs_per_round=15,
            num_negatives=8,
            embedding_batches_per_round=3,
            embedding_batch_size=512,
        ),
        pool=PoolConfig(top_n=50),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=0,
    )
    if overrides:
        config = replace(config, **overrides)
    return config


def fitted_daakg(
    dataset: str, base_model: str = "transe", ablation: str = "full", seed: int = 0
) -> DAAKG:
    """A fitted DAAKG pipeline (cached per dataset/model/ablation/fit seed)."""
    key = (dataset, base_model, ablation, seed, BENCH_SCALE)
    if key not in _PIPELINE_CACHE:
        config = quick_config(base_model, seed=seed).with_ablation(ablation)
        pipeline = DAAKG(bench_pair(dataset), config)
        pipeline.fit()
        _PIPELINE_CACHE[key] = pipeline
    return _PIPELINE_CACHE[key]


@pytest.fixture(scope="session")
def bench_datasets() -> list[str]:
    return list(BENCH_DATASETS)


# ----------------------------------------------------------- bench artifacts
_BENCH_RECORDS: dict[str, dict] = {}
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record_bench(
    name: str,
    wall_time_seconds: float | None = None,
    headline: dict | None = None,
    detail: dict | None = None,
) -> None:
    """Accumulate one benchmark's results for the ``BENCH_<name>.json`` artifact.

    ``wall_time_seconds`` adds to the benchmark's total (components report
    their own share), ``headline`` holds the few numbers worth comparing
    across PRs, and ``detail`` per-component breakdowns.  Repeated calls from
    cached fixtures are harmless: cached components simply report nothing.
    """
    entry = _BENCH_RECORDS.setdefault(
        name, {"name": name, "wall_time_seconds": 0.0, "headline": {}, "detail": {}}
    )
    if wall_time_seconds is not None:
        entry["wall_time_seconds"] += float(wall_time_seconds)
    if headline:
        entry["headline"].update(headline)
    if detail:
        entry["detail"].update(detail)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write one ``BENCH_<name>.json`` per recorded benchmark (repo root)."""
    for name, entry in _BENCH_RECORDS.items():
        entry["wall_time_seconds"] = round(entry["wall_time_seconds"], 3)
        entry["scale"] = BENCH_SCALE
        entry["datasets"] = BENCH_DATASETS
        entry["python"] = platform.python_version()
        # which campaign executor the session ran under: wall-clock numbers
        # are only comparable between artifacts produced on the same backend
        entry["executor"] = os.environ.get("REPRO_CAMPAIGN_EXECUTOR") or "auto"
        # host context: lets check_regression explain wall-clock drift when a
        # baseline was produced on different hardware (informational only)
        entry["host"] = {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        }
        path = os.path.join(_REPO_ROOT, f"BENCH_{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print a result table in the shape of the paper's tables."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(x)) for x in [header[i]] + [row[i] for row in rows]) for i in range(len(header))]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(str(x).ljust(widths[i]) for i, x in enumerate(row)))
