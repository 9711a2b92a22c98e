"""Versioned checkpoints for the whole DAAKG pipeline.

A checkpoint is a directory holding exactly two files:

* ``arrays.npz`` — every array of the pipeline state: the dataset (via
  :mod:`repro.persistence.codec`), the joint model's ``state_dict``, the
  optimiser's moment buffers and step count, the labelled
  :class:`~repro.alignment.trainer.LabelStore`, mined potential matches,
  landmarks, the model's :class:`~repro.alignment.model.AlignmentSnapshot`,
  and (for campaign checkpoints) the frozen element-pair pool.
* ``manifest.json`` — format version, the full :class:`DAAKGConfig`, RNG
  bit-generator states, active-loop progress (records, budget counters,
  strategy), and the SHA-256 of ``arrays.npz`` so a truncated or mismatched
  pair of files is rejected at load time.

Restoration is *bit-exact*: ``DAAKG.save`` → ``DAAKG.load`` → ``evaluate()``
reproduces the in-memory scores exactly, and a campaign resumed from an
autosave produces the same :class:`ActiveLearningRecord` sequence as the
uninterrupted run.  The parts of the pipeline that are pure functions of the
saved state (similarity matrices, the structural propagation channel, hard
negative tables, forward sessions) are deliberately **not** stored — they are
recomputed on first use from restored inputs, which yields the identical
floats at a fraction of the checkpoint size.

Both files are written via temp-file + ``os.replace``, and the manifest (which
names the array file's hash) is written last, so a crash mid-save leaves
either the previous consistent checkpoint or a detectably broken one — never
a silently corrupt state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.alignment.evaluation import AlignmentScores
from repro.alignment.model import AlignmentSnapshot
from repro.alignment.semi_supervised import PotentialMatch
from repro.core.config import DAAKGConfig, config_from_dict, config_to_dict
from repro.inference.pairs import ElementPair
from repro.kg.elements import ElementKind
from repro.persistence.codec import pair_from_arrays, pair_to_arrays
from repro.utils.logging import get_logger
from repro.utils.rng import get_rng_state, set_rng_state

if TYPE_CHECKING:  # pragma: no cover - import cycle with core/active
    from repro.active.loop import ActiveLearningLoop
    from repro.core.daakg import DAAKG

logger = get_logger(__name__)

# Version 2 dropped the ``ann_*`` DAAKGConfig keys; version 3 dropped the
# settings that became constants (``share_gnn_weights``, the trainers'
# margins, ``focal_gamma``, ``semi_max_per_kind``, ``renormalize``, the pool's
# ``include_*_pairs``, the loop's ``rebuild_pool_each_batch`` and the greedy
# ``base_gain``); version 4 dropped ``similarity_workers``; version 5 dropped
# the manifest's ``similarity_backend`` key, and the config's
# ``similarity_backend`` accepts only ``"sharded"``.  Older checkpoints fail
# the version check instead of the config's unknown-key or value check.
FORMAT_VERSION = 5
ARRAYS_FILE = "arrays.npz"
MANIFEST_FILE = "manifest.json"

_KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)
_SNAPSHOT_FIELDS = tuple(f.name for f in dataclasses.fields(AlignmentSnapshot))


class CheckpointError(RuntimeError):
    """Raised for unreadable, corrupt or incompatible checkpoints."""


@dataclass
class Checkpoint:
    """A loaded checkpoint: the parsed manifest plus all arrays, in memory."""

    manifest: dict
    arrays: dict[str, np.ndarray]
    path: Path | None = None

    @property
    def config(self) -> DAAKGConfig:
        return DAAKGConfig.from_dict(self.manifest["config"])

    @property
    def has_loop(self) -> bool:
        return "loop" in self.manifest

    def section(self, prefix: str) -> dict[str, np.ndarray]:
        """All arrays under ``prefix/``, with the prefix stripped."""
        start = prefix + "/"
        return {k[len(start):]: v for k, v in self.arrays.items() if k.startswith(start)}


# --------------------------------------------------------------------- helpers
def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scores_to_dict(scores: AlignmentScores) -> dict:
    return dataclasses.asdict(scores)


def _scores_from_dict(data: dict) -> AlignmentScores:
    return AlignmentScores(**data)


def _record_to_dict(record) -> dict:
    return {
        "batch_index": record.batch_index,
        "labels_used": record.labels_used,
        "matches_labelled": record.matches_labelled,
        "match_fraction": record.match_fraction,
        "entity_scores": _scores_to_dict(record.entity_scores),
        "relation_scores": _scores_to_dict(record.relation_scores),
        "class_scores": _scores_to_dict(record.class_scores),
        "seconds": record.seconds,
        "selected": [[p.kind.value, p.left, p.right] for p in record.selected],
    }


def _record_from_dict(data: dict):
    from repro.active.loop import ActiveLearningRecord  # circular at module level

    return ActiveLearningRecord(
        batch_index=data["batch_index"],
        labels_used=data["labels_used"],
        matches_labelled=data["matches_labelled"],
        match_fraction=data["match_fraction"],
        entity_scores=_scores_from_dict(data["entity_scores"]),
        relation_scores=_scores_from_dict(data["relation_scores"]),
        class_scores=_scores_from_dict(data["class_scores"]),
        seconds=data["seconds"],
        selected=[
            ElementPair(ElementKind(kind), int(left), int(right))
            for kind, left, right in data["selected"]
        ],
    )


def _strategy_spec(strategy) -> dict:
    """Everything needed to rebuild a registry strategy, configs included.

    Dropping the selection/partition configs here would silently resume a
    ``daakg`` campaign with *default* selection settings — divergent batches
    with no error — so they are serialised whenever the strategy carries them.
    """
    spec: dict = {"name": strategy.name}
    algorithm = getattr(strategy, "algorithm", None)
    if algorithm is not None:
        spec["algorithm"] = algorithm
    for key in ("selection_config", "partition_config"):
        value = getattr(strategy, key, None)
        if value is not None:
            spec[key] = config_to_dict(value)
    return spec


def _strategy_from_spec(spec: dict):
    from repro.active.partition import PartitionSelectionConfig
    from repro.active.selection import GreedySelectionConfig
    from repro.active.strategies import create_strategy

    spec = dict(spec)
    name = spec.pop("name")
    if "selection_config" in spec:
        spec["selection_config"] = config_from_dict(
            GreedySelectionConfig, spec["selection_config"]
        )
    if "partition_config" in spec:
        spec["partition_config"] = config_from_dict(
            PartitionSelectionConfig, spec["partition_config"]
        )
    return create_strategy(name, **spec)


def _pairs_array(pairs: list[tuple[int, int]]) -> np.ndarray:
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


# ------------------------------------------------------------------------ save
def save_checkpoint(path: str | os.PathLike, daakg: "DAAKG", loop: "ActiveLearningLoop | None" = None) -> Path:
    """Write a checkpoint of ``daakg`` (and optionally a campaign) to ``path``.

    ``path`` is created as a directory; an existing checkpoint there is
    replaced atomically.  Returns the checkpoint path.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    arrays: dict[str, np.ndarray] = {}
    # The dataset is immutable for the lifetime of a pipeline, but encoding
    # it dominates checkpoint CPU on large KGs; per-batch autosaves would pay
    # it over and over, so the encoded arrays are memoized on the pipeline.
    cached = getattr(daakg, "_dataset_arrays", None)
    if cached is None or cached[0] is not daakg.dataset:
        encoded: dict[str, np.ndarray] = {}
        pair_to_arrays(daakg.dataset, "dataset", encoded)
        cached = (daakg.dataset, encoded)
        daakg._dataset_arrays = cached
    arrays.update(cached[1])
    for key, value in daakg.model.state_dict().items():
        arrays[f"model/{key}"] = value
    for key, value in daakg.trainer.optimizer.state_dict().items():
        arrays[f"optim/{key}"] = value
    labels = daakg.trainer.labels
    for kind in _KINDS:
        arrays[f"labels/{kind.value}/matches"] = _pairs_array(labels.matches[kind])
        arrays[f"labels/{kind.value}/non_matches"] = _pairs_array(labels.non_matches[kind])
        mined = daakg.trainer._semi[kind]
        arrays[f"semi/{kind.value}/pairs"] = _pairs_array([(m.left, m.right) for m in mined])
        arrays[f"semi/{kind.value}/soft"] = np.asarray(
            [m.soft_label for m in mined], dtype=np.float64
        )
    arrays["landmarks"] = daakg.model._landmarks.copy()
    snapshot = daakg.model._snapshot
    if snapshot is not None:
        for name in _SNAPSHOT_FIELDS:
            arrays[f"snapshot/{name}"] = getattr(snapshot, name)
    # Similarity state: the top-k tables that are valid for the current
    # version token.  On restore (which is bit-exact) the tables seed the
    # engine's cache, so the streamed top-k passes resume for free.
    engine = daakg.model.similarity
    if snapshot is not None:
        for key, value in engine.export_top_k_arrays().items():
            arrays[f"topk/{key}"] = value

    manifest: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "daakg-checkpoint",
        "config": config_to_dict(daakg.config),
        "fitted": daakg.is_fitted,
        "training_seconds": daakg.training_time.elapsed,
        "loss_history": list(daakg.trainer.loss_history),
        "has_snapshot": snapshot is not None,
        "snapshot_version": daakg.model.snapshot_version,
        "landmark_version": daakg.model.landmark_version,
        "rng": {
            "main": get_rng_state(daakg.rng),
            "model1": get_rng_state(daakg.embedding_model_1.rng),
            "model2": get_rng_state(daakg.embedding_model_2.rng),
        },
    }

    if loop is not None:
        pool = loop._pool
        if pool is not None:
            for name, pairs in (
                ("entity", pool.entity_pairs),
                ("relation", pool.relation_pairs),
                ("class", pool.class_pairs),
            ):
                arrays[f"pool/{name}"] = _pairs_array([(p.left, p.right) for p in pairs])
        manifest["loop"] = {
            "config": config_to_dict(loop.config),
            "strategy": _strategy_spec(loop.strategy),
            "next_batch": loop._next_batch,
            "oracle_questions": loop.oracle.questions_asked,
            "autosave_path": str(loop.autosave_path) if loop.autosave_path else None,
            "has_pool": pool is not None,
            "records": [_record_to_dict(r) for r in loop.records],
        }

    # arrays first, manifest (holding their hash) last: a crash in between
    # leaves a manifest that still describes the previous arrays — detectable.
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    _atomic_write_bytes(directory / ARRAYS_FILE, payload)
    manifest["arrays"] = {
        "file": ARRAYS_FILE,
        "sha256": _sha256(payload),
        "count": len(arrays),
    }
    _atomic_write_bytes(
        directory / MANIFEST_FILE,
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    logger.info("checkpoint written to %s (%d arrays)", directory, len(arrays))
    return directory


# ------------------------------------------------------------------------ load
def load_checkpoint(path: str | os.PathLike, verify: bool = True) -> Checkpoint:
    """Read a checkpoint directory into memory, verifying its content hash."""
    directory = Path(path)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.is_file():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint manifest at {manifest_path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} (this build reads {FORMAT_VERSION})"
        )
    arrays_path = directory / manifest.get("arrays", {}).get("file", ARRAYS_FILE)
    if not arrays_path.is_file():
        raise CheckpointError(f"checkpoint arrays file missing: {arrays_path}")
    payload = arrays_path.read_bytes()
    if verify:
        expected = manifest.get("arrays", {}).get("sha256")
        actual = _sha256(payload)
        if expected != actual:
            raise CheckpointError(
                f"checkpoint arrays hash mismatch for {arrays_path}: "
                f"manifest says {expected}, file is {actual}"
            )
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return Checkpoint(manifest=manifest, arrays=arrays, path=directory)


# --------------------------------------------------------------------- restore
def restore_pipeline(checkpoint: Checkpoint) -> "DAAKG":
    """Rebuild a fitted :class:`DAAKG` pipeline from a loaded checkpoint.

    The pipeline is constructed normally from the saved dataset and config
    (which fixes all object topology — parameter order, weight sharing), then
    every piece of mutable state is overwritten with the saved arrays, and
    the RNG streams are rewound to their saved positions *last* so that the
    reconstruction draws cannot perturb them.
    """
    from repro.core.daakg import DAAKG  # circular at module level

    manifest = checkpoint.manifest
    config = checkpoint.config
    pair = pair_from_arrays("dataset", checkpoint.arrays)
    daakg = DAAKG(pair, config)

    daakg.model.load_state_dict(checkpoint.section("model"), strict=True)
    daakg.trainer.optimizer.load_state_dict(checkpoint.section("optim"))

    trainer = daakg.trainer
    for kind in _KINDS:
        for left, right in checkpoint.arrays[f"labels/{kind.value}/matches"]:
            trainer.labels.add(kind, (int(left), int(right)), True)
        for left, right in checkpoint.arrays[f"labels/{kind.value}/non_matches"]:
            trainer.labels.add(kind, (int(left), int(right)), False)
        mined_pairs = checkpoint.arrays[f"semi/{kind.value}/pairs"]
        mined_soft = checkpoint.arrays[f"semi/{kind.value}/soft"]
        trainer._set_mined(kind, [
            PotentialMatch(int(left), int(right), float(soft))
            for (left, right), soft in zip(mined_pairs, mined_soft)
        ])
    trainer.loss_history = list(manifest.get("loss_history", []))

    daakg.model.set_landmarks(checkpoint.arrays["landmarks"])
    if manifest.get("has_snapshot"):
        daakg.model._snapshot = AlignmentSnapshot(
            **{name: checkpoint.arrays[f"snapshot/{name}"] for name in _SNAPSHOT_FIELDS}
        )
    daakg.model._snapshot_version = int(manifest.get("snapshot_version", 0))
    daakg.model._landmark_version = int(manifest.get("landmark_version", 0))
    engine = daakg.model.similarity
    engine.invalidate()
    # Re-seed the saved top-k tables (restoration is bit-exact, so the
    # tables describe exactly the restored similarity state).
    if manifest.get("has_snapshot"):
        topk = checkpoint.section("topk")
        if topk:
            engine.seed_top_k_arrays(topk)

    daakg._fitted = bool(manifest.get("fitted", False))
    daakg.training_time.elapsed = float(manifest.get("training_seconds", 0.0))

    rng_states = manifest["rng"]
    set_rng_state(daakg.rng, rng_states["main"])
    set_rng_state(daakg.embedding_model_1.rng, rng_states["model1"])
    set_rng_state(daakg.embedding_model_2.rng, rng_states["model2"])
    return daakg


def restore_loop(
    checkpoint: Checkpoint,
    daakg: "DAAKG | None" = None,
    strategy=None,
) -> "ActiveLearningLoop":
    """Rebuild an active-learning campaign from a loaded checkpoint.

    ``daakg`` defaults to :func:`restore_pipeline` on the same checkpoint;
    ``strategy`` overrides the saved strategy spec (needed when the campaign
    used a custom strategy class outside the registry).  The returned loop's
    ``run()`` continues at the first batch the checkpoint had not completed.
    """
    from repro.active.loop import ActiveLearningConfig  # circular at module level
    from repro.active.pool import ElementPairPool
    from repro.inference.pairs import class_pair, entity_pair, relation_pair

    if not checkpoint.has_loop:
        raise CheckpointError("checkpoint holds no active-learning campaign state")
    if daakg is None:
        daakg = restore_pipeline(checkpoint)
    section = checkpoint.manifest["loop"]
    loop_config = config_from_dict(ActiveLearningConfig, section["config"])
    if strategy is None:
        strategy = _strategy_from_spec(section["strategy"])
    loop = daakg.active_learning(strategy, loop_config)
    loop.oracle.questions_asked = int(section["oracle_questions"])
    loop._next_batch = int(section["next_batch"])
    loop.records = [_record_from_dict(r) for r in section["records"]]
    loop.autosave_path = section.get("autosave_path")
    if section.get("has_pool"):
        builders = {"entity": entity_pair, "relation": relation_pair, "class": class_pair}
        pools = {
            name: tuple(
                build(int(left), int(right))
                for left, right in checkpoint.arrays[f"pool/{name}"]
            )
            for name, build in builders.items()
        }
        loop._pool = ElementPairPool(pools["entity"], pools["relation"], pools["class"])
    return loop
