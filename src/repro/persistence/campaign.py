"""Campaign checkpoints: per-partition checkpoints under one manifest.

A partition-parallel campaign checkpoint is a directory::

    campaign.json          # manifest: config, partitioning, piece directory
    dataset.npz            # the *original* aligned pair (encoded once)
    partition_0000/        # a standard DAAKG checkpoint (arrays + manifest)
    partition_0001/
    ...

Each partition directory is a plain :mod:`repro.persistence.checkpoint`
checkpoint of that partition's pipeline (and its active-learning loop when
one has started), so every bit-exactness guarantee of the single-pipeline
format carries over piece by piece.  Pieces that have not started yet are
recorded as ``"pending"`` in the manifest and rebuilt deterministically on
resume (partitioning and per-piece seeds are pure functions of the saved
dataset and configuration).

``load_campaign`` restores the campaign with the partitioning **saved in the
manifest** — environment overrides (``REPRO_PARTITION_COUNT`` …,
``REPRO_CAMPAIGN_EXECUTOR``) are deliberately *not* re-applied, because
resharding a half-finished campaign would silently orphan its per-partition
checkpoints.  The manifest also records the *resolved* executor name
(``"executor"``) that ran the campaign, alongside the configured value kept
inside ``partition_config``, so resumed runs re-use the same backend.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import DAAKGConfig, config_from_dict, config_to_dict
from repro.kg.partition import PartitionConfig
from repro.persistence.checkpoint import (
    CheckpointError,
    _atomic_write_bytes,
    _sha256,
    load_checkpoint,
    restore_loop,
    restore_pipeline,
    save_checkpoint,
)
from repro.persistence.codec import pair_from_arrays, pair_to_arrays
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle with active
    from repro.active.campaign import PartitionedCampaign

logger = get_logger(__name__)

# Version 2: the embedded DAAKGConfig dropped its ``ann_*`` keys.
CAMPAIGN_FORMAT_VERSION = 2
CAMPAIGN_MANIFEST_FILE = "campaign.json"
CAMPAIGN_DATASET_FILE = "dataset.npz"


def _piece_dirname(index: int, generation: int) -> str:
    return f"partition_{index:04d}_g{generation}"


def _membership_digest(campaign: "PartitionedCampaign") -> str:
    """SHA-256 over every piece's entity membership (both KG sides, in order).

    For classic campaigns, partitioning is recomputed on load (it is a pure
    function of the dataset and partition config), so any change to the
    partitioner's assignment — even one preserving the piece *count* — must
    be caught, or restored checkpoints would silently pair with the wrong
    sub-pairs.  For incremental campaigns (pieces evolved by deltas) the
    digest instead guards the integrity of the restored pieces themselves.
    The hashing lives on :meth:`KGPairPartition.membership_digest` — the
    same membership surface delta routing reads.
    """
    return campaign.partition.membership_digest()


def _pending_dataset_filename(index: int, generation: int) -> str:
    return f"pending_{index:04d}_g{generation}.npz"


def _piece_ids(names, index_map: dict[str, int]) -> np.ndarray:
    try:
        return np.array([index_map[name] for name in names], dtype=np.int64)
    except KeyError as exc:
        raise CheckpointError(
            f"incremental campaign piece names element {exc.args[0]!r} that is "
            "not in the saved dataset — the checkpoint is inconsistent"
        ) from exc


def _read_manifest(directory: Path) -> dict | None:
    manifest_path = directory / CAMPAIGN_MANIFEST_FILE
    if not manifest_path.is_file():
        return None
    try:
        return json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None


def save_campaign(path: str | os.PathLike, campaign: "PartitionedCampaign") -> Path:
    """Write a campaign checkpoint (manifest + per-partition dirs) to ``path``.

    Started pieces are checkpointed through the standard single-pipeline
    format; unstarted pieces are marked pending.  Re-saves are crash-safe:
    each save writes its piece checkpoints into a fresh *generation* of
    directories, the manifest (written last, atomically) switches over, and
    only then are the previous generation's directories removed — a crash at
    any point leaves a manifest whose referenced directories are untouched.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    previous = _read_manifest(directory)
    generation = int(previous.get("generation", 0)) + 1 if previous else 0

    arrays: dict[str, np.ndarray] = {}
    pair_to_arrays(campaign.dataset, "dataset", arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    _atomic_write_bytes(directory / CAMPAIGN_DATASET_FILE, payload)

    incremental = bool(getattr(campaign, "incremental", False))
    pieces = []
    for index in range(campaign.num_partitions):
        pipeline = campaign.pipelines[index]
        if pipeline is None:
            entry = {"index": index, "status": "pending"}
            if incremental:
                # an incrementally-evolved piece pair cannot be rebuilt by
                # re-partitioning the dataset, so a pending piece must carry
                # its own pair (saved pieces embed theirs in the checkpoint)
                piece_arrays: dict[str, np.ndarray] = {}
                pair_to_arrays(
                    campaign.partition.pieces[index].pair, "dataset", piece_arrays
                )
                piece_buffer = io.BytesIO()
                np.savez(piece_buffer, **piece_arrays)
                filename = _pending_dataset_filename(index, generation)
                _atomic_write_bytes(directory / filename, piece_buffer.getvalue())
                entry["dataset"] = filename
            pieces.append(entry)
            continue
        dirname = _piece_dirname(index, generation)
        save_checkpoint(directory / dirname, pipeline, loop=campaign.loops[index])
        pieces.append({"index": index, "status": "saved", "directory": dirname})

    manifest = {
        "generation": generation,
        "incremental": incremental,
        "membership_sha256": _membership_digest(campaign),
        "format_version": CAMPAIGN_FORMAT_VERSION,
        "kind": "campaign-checkpoint",
        "config": config_to_dict(campaign.config),
        "partition_config": config_to_dict(campaign.partition_config),
        "active_config": (
            config_to_dict(campaign.active_config)
            if campaign.active_config is not None
            else None
        ),
        "strategy": campaign.strategy,
        "executor": campaign.executor_name,
        "num_partitions": campaign.num_partitions,
        "partition_summary": campaign.partition.summary(),
        "pieces": pieces,
        "dataset": {"file": CAMPAIGN_DATASET_FILE, "sha256": _sha256(payload)},
    }
    _atomic_write_bytes(
        directory / CAMPAIGN_MANIFEST_FILE,
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    # the new manifest is durable: every partition directory it does not
    # reference is garbage — including generations orphaned by a crash
    # between an earlier manifest write and its cleanup
    current = {p["directory"] for p in pieces if p.get("directory")}
    for stale in directory.glob("partition_*"):
        if stale.is_dir() and stale.name not in current:
            shutil.rmtree(stale, ignore_errors=True)
    current_datasets = {p["dataset"] for p in pieces if p.get("dataset")}
    for stale_file in directory.glob("pending_*.npz"):
        if stale_file.name not in current_datasets:
            stale_file.unlink(missing_ok=True)
    logger.info(
        "campaign checkpoint written to %s (%d pieces, %d saved, generation %d)",
        directory,
        len(pieces),
        sum(1 for p in pieces if p["status"] == "saved"),
        generation,
    )
    return directory


def load_campaign(path: str | os.PathLike) -> "PartitionedCampaign":
    """Restore a campaign written by :func:`save_campaign`.

    The returned campaign's ``run()`` resumes every piece at its first
    uncompleted batch; pending pieces start from scratch with their original
    deterministic seeds.
    """
    from repro.active.campaign import PartitionedCampaign  # circular at module level

    directory = Path(path)
    manifest_path = directory / CAMPAIGN_MANIFEST_FILE
    if not manifest_path.is_file():
        raise CheckpointError(f"no campaign manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt campaign manifest at {manifest_path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != CAMPAIGN_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported campaign format version {version!r} "
            f"(this build reads {CAMPAIGN_FORMAT_VERSION})"
        )

    dataset_path = directory / manifest["dataset"]["file"]
    payload = dataset_path.read_bytes()
    expected = manifest["dataset"]["sha256"]
    actual = _sha256(payload)
    if expected != actual:
        raise CheckpointError(
            f"campaign dataset hash mismatch for {dataset_path}: "
            f"manifest says {expected}, file is {actual}"
        )
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    pair = pair_from_arrays("dataset", arrays)

    from repro.active.loop import ActiveLearningConfig  # circular at module level

    config = config_from_dict(DAAKGConfig, manifest["config"])
    partition_config = config_from_dict(PartitionConfig, manifest["partition_config"])
    active_config = (
        config_from_dict(ActiveLearningConfig, manifest["active_config"])
        if manifest.get("active_config") is not None
        else None
    )
    incremental = bool(manifest.get("incremental", False))
    restored: dict[int, tuple] = {}
    partition_state = None
    if incremental:
        # Incremental campaigns cannot be re-partitioned: their piece pairs
        # were evolved by deltas.  Each saved piece's pair is embedded
        # (bit-exactly) in its own checkpoint; pending pieces carry theirs
        # as a sidecar npz.  The local→global id maps are recomputed from
        # names — valid because delta application keeps every vocabulary
        # append-only on both the global and the piece pairs.
        from repro.kg.partition import KGPairPartition, PartitionPiece

        pieces_state = []
        for piece in sorted(manifest["pieces"], key=lambda p: int(p["index"])):
            index = int(piece["index"])
            if piece["status"] == "saved":
                checkpoint = load_checkpoint(directory / piece["directory"])
                if checkpoint.has_loop:
                    loop = restore_loop(checkpoint)
                    restored[index] = (loop.daakg, loop)
                else:
                    restored[index] = (restore_pipeline(checkpoint), None)
                piece_pair = restored[index][0].dataset
            elif piece.get("dataset"):
                piece_payload = (directory / piece["dataset"]).read_bytes()
                with np.load(io.BytesIO(piece_payload), allow_pickle=False) as npz:
                    piece_arrays = {key: npz[key] for key in npz.files}
                piece_pair = pair_from_arrays("dataset", piece_arrays)
            else:
                raise CheckpointError(
                    f"incremental campaign piece {index} is pending but has no "
                    "saved dataset — the checkpoint predates its last update"
                )
            if int(manifest["num_partitions"]) == 1:
                piece_pair = pair  # identity piece: bit-exact monolithic contract
            pieces_state.append(
                PartitionPiece(
                    index=index,
                    pair=piece_pair,
                    entity_ids_1=_piece_ids(piece_pair.kg1.entities, pair.kg1.entity_index),
                    entity_ids_2=_piece_ids(piece_pair.kg2.entities, pair.kg2.entity_index),
                    relation_ids_1=_piece_ids(
                        piece_pair.kg1.relations, pair.kg1.relation_index
                    ),
                    relation_ids_2=_piece_ids(
                        piece_pair.kg2.relations, pair.kg2.relation_index
                    ),
                    class_ids_1=_piece_ids(piece_pair.kg1.classes, pair.kg1.class_index),
                    class_ids_2=_piece_ids(piece_pair.kg2.classes, pair.kg2.class_index),
                )
            )
        summary = manifest.get("partition_summary", {})
        partition_state = KGPairPartition(
            source=pair,
            config=partition_config,
            pieces=pieces_state,
            cut_weight_fraction=float(summary.get("cut_weight_fraction", 0.0)),
            rho_satisfied_fraction=float(summary.get("rho_satisfied_fraction", 1.0)),
        )

    campaign = PartitionedCampaign(
        pair,
        config,
        strategy=manifest["strategy"],
        active_config=active_config,
        partition=partition_config,
        resolve_env=False,
        partition_state=partition_state,
    )
    if campaign.num_partitions != int(manifest["num_partitions"]):
        raise CheckpointError(
            "campaign repartitioning mismatch: manifest says "
            f"{manifest['num_partitions']} pieces, partitioner produced "
            f"{campaign.num_partitions}"
        )
    saved_membership = manifest.get("membership_sha256")
    if saved_membership is not None and saved_membership != _membership_digest(campaign):
        raise CheckpointError(
            "campaign partition membership mismatch: this build's partitioner "
            "assigns entities differently than the one that wrote the "
            "checkpoint, so the saved per-partition states cannot be safely "
            "reattached"
        )

    if incremental:
        for index, (pipeline, loop) in restored.items():
            campaign.pipelines[index] = pipeline
            campaign.loops[index] = loop
        return campaign

    for piece in manifest["pieces"]:
        index = int(piece["index"])
        if piece["status"] != "saved":
            continue
        checkpoint = load_checkpoint(directory / piece["directory"])
        if checkpoint.has_loop:
            loop = restore_loop(checkpoint)
            campaign.loops[index] = loop
            campaign.pipelines[index] = loop.daakg
        else:
            campaign.pipelines[index] = restore_pipeline(checkpoint)
    return campaign
