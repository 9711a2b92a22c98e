"""Campaign checkpoints: per-partition checkpoints under one manifest.

A partition-parallel campaign checkpoint is a directory::

    campaign.json            # manifest: config, partitioning, piece directory
    dataset_g{N}.npz         # the campaign's aligned pair (encoded per save)
    partition_0000_g{N}/     # a standard DAAKG checkpoint (arrays + manifest)
    pending_0001_g{N}.npz    # the pair of a piece that has not started yet
    ...

``N`` is the save's *generation*.  Each started piece's directory is a plain
:mod:`repro.persistence.checkpoint` checkpoint of that partition's pipeline
(and its active-learning loop when one has started), so every bit-exactness
guarantee of the single-pipeline format carries over piece by piece.  A
pending piece is recorded as ``"pending"`` in the manifest and its pair is
written as a ``pending_NNNN_gN.npz`` sidecar; a one-piece campaign's piece is
the campaign dataset itself and needs none.

Restore adopts the saved pieces as they are: a started piece's pair is the
dataset embedded in its own checkpoint, a pending piece's pair is its
sidecar.  The partitioner never runs on load, so a campaign whose pieces
were evolved by incremental updates restores exactly like a fresh one.  The
manifest's piece count and membership digest are checked against the
restored pieces.

Re-saves are crash-safe: every file and directory a save writes carries its
generation in its name, the manifest (written last, atomically) switches
over, and only then is everything the new manifest does not reference
removed — a crash at any point leaves the previous manifest with every file
it references untouched.

``load_campaign`` restores the campaign with the partitioning **saved in the
manifest**, executor included: ``REPRO_CAMPAIGN_EXECUTOR`` is deliberately
*not* re-applied, so resumed runs re-use the same backend.  The manifest also
records the *resolved* executor name (``"executor"``) that ran the campaign,
alongside the configured value kept inside ``partition_config``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import DAAKGConfig, config_to_dict
from repro.kg.pair import AlignedKGPair
from repro.kg.partition import KGPairPartition, PartitionConfig, PartitionPiece
from repro.persistence.checkpoint import (
    CheckpointError,
    _atomic_write_bytes,
    _manifest_config,
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

# Version 2: the embedded DAAKGConfig dropped its ``ann_*`` keys.  Version 3:
# the embedded configs dropped the settings that became constants.  Version 4:
# ``similarity_workers`` went (see ``FORMAT_VERSION`` in
# repro.persistence.checkpoint).  Version 5: the dataset file is named per
# generation, every pending piece of a multi-piece campaign carries its pair,
# and the ``incremental`` key went (restore always adopts the saved pieces).
# Version 6: the piece checkpoints moved to checkpoint format 5 (no
# ``similarity_backend`` in their manifests; the config accepts only
# ``"sharded"``).  Version 7: the embedded configs dropped the inference
# config's ``solver_samples`` and ``solver_steps`` (checkpoint format 6).
# Keys of fields retired since load through ``repro.core.config.RETIRED_KEYS``.
CAMPAIGN_FORMAT_VERSION = 7
CAMPAIGN_MANIFEST_FILE = "campaign.json"


def _piece_dirname(index: int, generation: int) -> str:
    return f"partition_{index:04d}_g{generation}"


def _pending_dataset_filename(index: int, generation: int) -> str:
    return f"pending_{index:04d}_g{generation}.npz"


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _pair_from_npz(payload: bytes) -> AlignedKGPair:
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return pair_from_arrays("dataset", arrays)


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
    format; unstarted pieces are marked pending and, in a multi-piece
    campaign, carry their pair as a sidecar.  Re-saves are crash-safe: each
    save writes its dataset, piece checkpoints and sidecars under fresh
    *generation* names, the manifest (written last, atomically) switches
    over, and only then are the previous generation's files removed — a
    crash at any point leaves a manifest whose referenced files are
    untouched.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    previous = _read_manifest(directory)
    generation = int(previous.get("generation", 0)) + 1 if previous else 0

    arrays: dict[str, np.ndarray] = {}
    pair_to_arrays(campaign.dataset, "dataset", arrays)
    payload = _npz_bytes(arrays)
    dataset_file = f"dataset_g{generation}.npz"
    _atomic_write_bytes(directory / dataset_file, payload)

    pieces = []
    for index in range(campaign.num_partitions):
        pipeline = campaign.pipelines[index]
        if pipeline is None:
            entry = {"index": index, "status": "pending"}
            if campaign.num_partitions > 1:
                filename = _pending_dataset_filename(index, generation)
                _atomic_write_bytes(
                    directory / filename,
                    _npz_bytes(campaign._encode_piece(index)),
                )
                entry["dataset"] = filename
            pieces.append(entry)
            continue
        dirname = _piece_dirname(index, generation)
        save_checkpoint(directory / dirname, pipeline, loop=campaign.loops[index])
        pieces.append({"index": index, "status": "saved", "directory": dirname})

    manifest = {
        "generation": generation,
        "membership_sha256": campaign.partition.membership_digest(),
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
        "dataset": {"file": dataset_file, "sha256": _sha256(payload)},
    }
    _atomic_write_bytes(
        directory / CAMPAIGN_MANIFEST_FILE,
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    # the new manifest is durable: every generation-named file or directory
    # it does not reference is garbage — including generations orphaned by a
    # crash between an earlier manifest write and its cleanup
    current = {dataset_file}
    current.update(p["directory"] for p in pieces if p.get("directory"))
    current.update(p["dataset"] for p in pieces if p.get("dataset"))
    for pattern in ("partition_*", "pending_*.npz", "dataset_g*.npz"):
        for stale in directory.glob(pattern):
            if stale.name in current:
                continue
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
            else:
                stale.unlink(missing_ok=True)
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

    The campaign adopts the saved pieces: a started piece's pair is the
    dataset embedded in its checkpoint, a pending piece's pair is its
    sidecar (a one-piece campaign's piece is the campaign dataset), and the
    partitioner is never re-run.  The returned campaign's ``run()`` resumes
    every started piece at its first uncompleted batch; pending pieces start
    from scratch with their original deterministic seeds.
    """
    from repro.active.campaign import PartitionedCampaign  # circular at module level
    from repro.active.loop import ActiveLearningConfig  # circular at module level

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
    pair = _pair_from_npz(payload)

    config = _manifest_config(DAAKGConfig, manifest["config"])
    partition_config = _manifest_config(PartitionConfig, manifest["partition_config"])
    active_config = (
        _manifest_config(ActiveLearningConfig, manifest["active_config"])
        if manifest.get("active_config") is not None
        else None
    )
    single = int(manifest["num_partitions"]) == 1
    restored: dict[int, tuple] = {}
    pieces = []
    for piece in sorted(manifest["pieces"], key=lambda p: int(p["index"])):
        index = int(piece["index"])
        if piece["status"] == "saved":
            checkpoint = load_checkpoint(directory / piece["directory"])
            if checkpoint.has_loop:
                loop = restore_loop(checkpoint)
                restored[index] = (loop.daakg, loop)
            else:
                restored[index] = (restore_pipeline(checkpoint), None)
        if single:
            # the identity piece *is* the dataset (bit-exact monolithic contract)
            piece_pair = pair
        elif index in restored:
            piece_pair = restored[index][0].dataset
        elif piece.get("dataset"):
            piece_pair = _pair_from_npz((directory / piece["dataset"]).read_bytes())
        else:
            raise CheckpointError(
                f"campaign piece {index} is pending but has no saved dataset"
            )
        pieces.append(PartitionPiece(index, piece_pair))
    summary = manifest.get("partition_summary", {})
    partition_state = KGPairPartition(
        pieces=pieces,
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
            f"campaign piece count mismatch: manifest says {manifest['num_partitions']} "
            f"pieces, the checkpoint holds {campaign.num_partitions}"
        )
    if manifest.get("membership_sha256") != campaign.partition.membership_digest():
        raise CheckpointError(
            "campaign partition membership mismatch: the restored pieces do not "
            "hold the entities the manifest recorded, so the checkpoint is "
            "inconsistent"
        )
    for index, (pipeline, loop) in restored.items():
        campaign.pipelines[index] = pipeline
        campaign.loops[index] = loop
    return campaign
