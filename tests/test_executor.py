"""Campaign executor layer: selection, spec portability, parity, recovery.

The load-bearing guarantees:

* executor resolution is explicit — env beats config, ``"auto"`` maps to a
  concrete backend from (workers, pieces, cores) only;
* a :class:`PieceSpec` is a self-contained, picklable work unit, and the
  runtime knobs that shape it survive ``DAAKGConfig`` JSON round-trips;
* serial and process backends produce **byte-identical** campaigns
  (merged top-k digests, eval scores, record sequences);
* a crashing piece is a resumable per-piece failure: the campaign checkpoint
  stays loadable and resume re-runs *only* the failed piece, converging to
  the same bytes as a run that never crashed.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro import DAAKGConfig, PartitionConfig, PartitionedCampaign, make_benchmark
from repro.active.campaign import CampaignExecutionError
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.elements import ElementKind
from repro.kg.partition import CAMPAIGN_EXECUTOR_ENV, resolve_campaign_executor
from repro.runtime.executor import (
    POISON_ENV,
    PieceSpec,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
    effective_executor_name,
)

SCALE = 0.15
TOP_K = 5


def executor_pair():
    return make_benchmark("D-W", scale=SCALE, seed=3)


def executor_config(executor: str = "serial") -> DAAKGConfig:
    return DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=2),
        alignment=AlignmentTrainingConfig(
            rounds=1, epochs_per_round=4, num_negatives=3,
            embedding_batches_per_round=1, embedding_batch_size=128,
        ),
        pool=PoolConfig(top_n=10),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        partition=PartitionConfig(num_partitions=2, workers=2, executor=executor),
        seed=3,
    )


LOOP_CONFIG = ActiveLearningConfig(batch_size=6, num_batches=1, fine_tune_epochs=3)


def make_campaign(executor: str) -> PartitionedCampaign:
    # resolve_env=False: these tests pin the backend under test, so the CI
    # leg that exports REPRO_CAMPAIGN_EXECUTOR must not override the sweep
    return PartitionedCampaign(
        executor_pair(),
        executor_config(executor),
        strategy="uncertainty",
        active_config=LOOP_CONFIG,
        resolve_env=False,
    )


def campaign_payload(campaign: PartitionedCampaign) -> str:
    """Everything that must not depend on the executor backend, as one blob."""
    merged = campaign.merged_state()
    table = merged.top_k_table(ElementKind.ENTITY, TOP_K)
    digest = hashlib.sha256()
    for array in (
        table.left_indices, table.left_values, table.right_indices, table.right_values
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    scores = campaign.evaluate()
    records = [
        [
            [r.batch_index, r.labels_used, r.matches_labelled, r.entity_scores.as_dict()]
            for r in campaign.loops[i].records
        ]
        for i in range(campaign.num_partitions)
    ]
    return json.dumps(
        {
            "topk_sha256": digest.hexdigest(),
            "scores": {kind: s.as_dict() for kind, s in scores.items()},
            "records": records,
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial_campaign() -> PartitionedCampaign:
    campaign = make_campaign("serial")
    result = campaign.run()
    assert result.executor == "serial"
    assert [r.status for r in result.partition_results] == ["completed", "completed"]
    return campaign


@pytest.fixture(scope="module")
def serial_payload(serial_campaign) -> str:
    return campaign_payload(serial_campaign)


# ---------------------------------------------------------------- resolution
def test_effective_executor_name_resolution():
    # explicit names pass through untouched, whatever the machine looks like
    for name in ("serial", "process"):
        assert effective_executor_name(name, workers=1, num_partitions=1) == name
    # auto: nothing to parallelise -> serial
    assert effective_executor_name("auto", workers=1, num_partitions=4, cpu_count=8) == "serial"
    assert effective_executor_name("auto", workers=4, num_partitions=1, cpu_count=8) == "serial"
    # auto: real parallelism available -> process breaks the GIL
    assert effective_executor_name("auto", workers=4, num_partitions=4, cpu_count=8) == "process"
    # auto: single core -> processes only add spawn overhead
    assert effective_executor_name("auto", workers=4, num_partitions=4, cpu_count=1) == "serial"
    with pytest.raises(ValueError, match="unknown campaign executor"):
        effective_executor_name("greenlet", workers=1, num_partitions=1)


def test_campaign_executor_env_override(monkeypatch):
    monkeypatch.delenv(CAMPAIGN_EXECUTOR_ENV, raising=False)
    assert resolve_campaign_executor() == "auto"
    assert resolve_campaign_executor("serial") == "serial"
    monkeypatch.setenv(CAMPAIGN_EXECUTOR_ENV, "process")
    assert resolve_campaign_executor("serial") == "process"
    # resolution stops at the *name*: auto resolves per machine later
    monkeypatch.setenv(CAMPAIGN_EXECUTOR_ENV, "auto")
    assert resolve_campaign_executor("process") == "auto"
    monkeypatch.setenv(CAMPAIGN_EXECUTOR_ENV, "hyperdrive")
    with pytest.raises(ValueError, match="executor"):
        resolve_campaign_executor()


def test_partition_config_rejects_unknown_executor():
    for name in ("hyperdrive", "thread"):  # "thread" is a retired backend
        with pytest.raises(ValueError, match="executor"):
            PartitionConfig(executor=name)


def test_create_executor_backends():
    assert isinstance(create_executor("serial"), SerialExecutor)
    process = create_executor("process", workers=2)
    assert isinstance(process, ProcessExecutor) and process.workers == 2
    with pytest.raises(ValueError, match="unknown campaign executor"):
        create_executor("auto")  # auto must be resolved before instantiation


# ------------------------------------------------------------ spec portability
def test_config_json_roundtrip_preserves_runtime_knobs():
    config = executor_config("process")
    config = DAAKGConfig(
        **{
            **{f: getattr(config, f) for f in config.__dataclass_fields__},
            "similarity_backend": "sharded",
            "similarity_workers": 3,
        }
    )
    restored = DAAKGConfig.from_json(config.to_json())
    assert restored == config
    assert restored.partition.executor == "process"
    assert restored.partition.num_partitions == 2
    assert restored.partition.workers == 2
    assert restored.similarity_backend == "sharded"
    assert restored.similarity_workers == 3


def test_piece_spec_pickle_roundtrip(tmp_path):
    campaign = make_campaign("serial")
    specs = campaign.piece_specs(tmp_path)
    assert len(specs) == campaign.num_partitions
    for spec in specs:
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.index == spec.index
        assert clone.config_json == spec.config_json
        assert clone.strategy == spec.strategy
        assert clone.checkpoint_dir is None  # unstarted piece ships its dataset
        assert set(clone.dataset_arrays) == set(spec.dataset_arrays)
        for key, array in spec.dataset_arrays.items():
            assert np.array_equal(clone.dataset_arrays[key], array)


def test_piece_spec_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        PieceSpec(index=0, config_json="{}", strategy="daakg", output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="exactly one"):
        PieceSpec(
            index=0,
            config_json="{}",
            strategy="daakg",
            output_dir=str(tmp_path),
            dataset_arrays={"x": np.zeros(1)},
            checkpoint_dir=str(tmp_path),
        )


def test_piece_seeds_flow_into_specs(tmp_path):
    campaign = make_campaign("serial")
    specs = campaign.piece_specs(tmp_path)
    seeds = {DAAKGConfig.from_json(spec.config_json).seed for spec in specs}
    assert len(seeds) == campaign.num_partitions  # every piece gets its own stream


# ----------------------------------------------------------- backend parity
@pytest.mark.parametrize("executor", ["process"])
def test_backend_parity_byte_identical(executor, serial_payload):
    campaign = make_campaign(executor)
    result = campaign.run()
    assert result.executor == executor
    assert [r.status for r in result.partition_results] == ["completed", "completed"]
    assert campaign_payload(campaign) == serial_payload


def test_completed_pieces_are_skipped(serial_campaign):
    again = serial_campaign.run()
    assert [r.status for r in again.partition_results] == ["skipped", "skipped"]
    assert again.total_labels == LOOP_CONFIG.batch_size * serial_campaign.num_partitions


def test_manifest_records_executor(serial_campaign, tmp_path):
    serial_campaign.save(str(tmp_path / "ckpt"))
    manifest = json.loads((tmp_path / "ckpt" / "campaign.json").read_text())
    assert manifest["executor"] == "serial"
    assert manifest["partition_config"]["executor"] == "serial"


# ----------------------------------------------------------- crash recovery
def test_crash_recovery_resumes_only_failed_piece(monkeypatch, tmp_path, serial_payload):
    campaign = make_campaign("serial")
    monkeypatch.setenv(POISON_ENV, "1")
    with pytest.raises(CampaignExecutionError) as excinfo:
        campaign.run()
    statuses = {r.index: r.status for r in excinfo.value.result.partition_results}
    assert statuses == {0: "completed", 1: "failed"}
    assert "poisoned" in excinfo.value.result.failed[0].error

    # the half-finished campaign checkpoints and loads cleanly
    campaign.save(str(tmp_path / "ckpt"))
    restored = PartitionedCampaign.load(str(tmp_path / "ckpt"))
    manifest = json.loads((tmp_path / "ckpt" / "campaign.json").read_text())
    piece_status = {p["index"]: p["status"] for p in manifest["pieces"]}
    assert piece_status == {0: "saved", 1: "pending"}

    # the merged state refuses to serve a half-trained campaign, resumably
    with pytest.raises(CampaignExecutionError):
        restored.merged_state()

    # resume without the poison: only the failed piece re-runs...
    monkeypatch.delenv(POISON_ENV)
    result = restored.run()
    assert {r.index: r.status for r in result.partition_results} == {
        0: "skipped", 1: "completed"
    }
    # ...and the final bytes match a campaign that never crashed
    assert campaign_payload(restored) == serial_payload
