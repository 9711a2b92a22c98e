"""The process environment surface: which ``REPRO_*`` variables the library reads.

Every environment variable is one more setting that tests and benchmarks
would have to cover, so the set is pinned here.  Adding a name means changing
this test on purpose.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro
from repro import PartitionConfig, PartitionedCampaign
from repro.serving import FrontendConfig, ServingFrontend, serve

ENV_NAMES = {
    "REPRO_CAMPAIGN_EXECUTOR",
    "REPRO_CAMPAIGN_POISON",
    "REPRO_OBS",
    "REPRO_OBS_DIR",
}
_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _env_literals() -> set[str]:
    """Every string literal under ``src/repro`` that is exactly a ``REPRO_*`` name."""
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _ENV_NAME.fullmatch(node.value):
                    names.add(node.value)
    return names


def test_env_names_are_the_pinned_set():
    assert _env_literals() == ENV_NAMES


def test_retired_partition_overrides_are_ignored(monkeypatch, small_benchmark, fast_config):
    monkeypatch.setenv("REPRO_PARTITION_COUNT", "5")
    monkeypatch.setenv("REPRO_PARTITION_WORKERS", "3")
    monkeypatch.setenv("REPRO_PARTITION_RHO", "0.8")
    configured = PartitionConfig(num_partitions=2, rho=0.95)
    campaign = PartitionedCampaign(
        small_benchmark, fast_config, strategy="uncertainty", partition=configured
    )
    assert campaign.partition_config.num_partitions == 2
    assert campaign.partition_config.rho == 0.95
    assert campaign.partition_config.workers == 1
    assert campaign.num_partitions == 2


def test_retired_serving_overrides_are_ignored(monkeypatch, fitted_pipeline):
    monkeypatch.setenv("REPRO_SERVING_WORKERS", "7")
    monkeypatch.setenv("REPRO_SERVING_MAX_BATCH", "17")
    configured = FrontendConfig(num_workers=1, max_queue_depth=5)
    frontend = ServingFrontend(serve(fitted_pipeline), configured)
    assert frontend.config == configured
