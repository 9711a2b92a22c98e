"""Durable snapshots of the DAAKG pipeline.

The checkpoint format (one ``arrays.npz`` + one ``manifest.json`` per
checkpoint directory) captures everything needed to restart a pipeline or an
active-learning campaign bit-exactly: model and optimiser state, labels,
mined potential matches, landmarks, the statistics snapshot, RNG streams and
campaign progress.  High-level entry points are ``DAAKG.save`` /
``DAAKG.load`` and ``ActiveLearningLoop.resume``; this package holds the
format itself.
"""

from repro.persistence.checkpoint import (
    ARRAYS_FILE,
    FORMAT_VERSION,
    MANIFEST_FILE,
    Checkpoint,
    CheckpointError,
    checkpoint_of,
    load_checkpoint,
    restore_loop,
    restore_pipeline,
    save_checkpoint,
)
from repro.persistence.campaign import (
    CAMPAIGN_MANIFEST_FILE,
    load_campaign,
    save_campaign,
)
from repro.persistence.codec import (
    kg_from_arrays,
    kg_to_arrays,
    pair_from_arrays,
    pair_to_arrays,
)

__all__ = [
    "ARRAYS_FILE",
    "CAMPAIGN_MANIFEST_FILE",
    "Checkpoint",
    "CheckpointError",
    "FORMAT_VERSION",
    "MANIFEST_FILE",
    "checkpoint_of",
    "kg_from_arrays",
    "kg_to_arrays",
    "load_campaign",
    "load_checkpoint",
    "pair_from_arrays",
    "pair_to_arrays",
    "restore_loop",
    "restore_pipeline",
    "save_campaign",
    "save_checkpoint",
]
