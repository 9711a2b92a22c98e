"""Campaign executors: serial / process piece execution.

:class:`~repro.active.campaign.PartitionedCampaign` cuts a pair into
independent pieces; *this* module decides **where each piece's pipeline
actually runs**.  The contract has three parts:

1. **One runner, every backend.**  :func:`run_piece_spec` is a top-level,
   picklable function taking a self-contained :class:`PieceSpec` — the
   piece's dataset arrays (or a standard per-piece checkpoint to resume
   from), its config as JSON, its strategy name, and the directory to write
   its result checkpoint into.  The serial and process executors both call
   *the same function*; the process backend merely calls it in a worker
   process.  A piece's result is always a standard
   :mod:`repro.persistence.checkpoint` directory, which the campaign folds
   back with the ordinary bit-exact restore path — so results can never
   depend on which backend produced them.

2. **Bit-exactness across backends and worker counts.**  Every piece is a
   pure function of ``(piece dataset, piece config)``: the per-piece seed is
   derived from ``(campaign seed, partition index)`` before the spec is
   built, checkpoint restore is bit-exact, and pieces share no mutable state
   (the process backend shares nothing at all).  Serial and process runs of
   the same campaign produce byte-identical merged payloads for any worker
   count.

3. **Crashes are per-piece, resumable failures.**  The runner converts any
   exception into a failed :class:`PieceOutcome` (and the process executor
   additionally absorbs hard worker deaths — ``BrokenProcessPool`` — the
   same way).  A failed piece simply has no result checkpoint: the campaign
   keeps its previous state for that piece, its next ``run()`` re-executes
   only the failed pieces, and a campaign checkpoint taken in between stays
   loadable.

Why processes and not threads: the training loops are GIL-bound pure-numpy
Python, so a thread pool cannot scale them — the last ``BENCH_partition.json``
run that swept one measured serial *beating* four threads (18.66 s vs
22.55 s on a 1-core host), and the thread backend was retired.  Worker
processes follow the rank/world-size idiom of distributed inference (each
rank computes its shard and saves a per-rank artifact; the merge step folds
artifacts in rank order): a piece's ``index`` is its rank, the result
checkpoint is its per-rank artifact, and
:class:`~repro.runtime.merge.MergedSimilarityState` is the barrier-free
fold.  Shipping specs to *remote* ranks instead of local
processes is the designed next step — nothing in a spec assumes a shared
process, only a shared filesystem for its directories.

Executor selection: ``PartitionConfig.executor`` (``"auto"`` picks the
process backend when the campaign has more than one piece, more than one
worker and more than one core), overridden per process by the
``REPRO_CAMPAIGN_EXECUTOR`` environment variable
(:func:`resolve_campaign_executor`).  This module holds the one table of
executor names, :data:`EXECUTOR_NAMES`, and the one check of a name,
:func:`check_executor_name`.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

import repro.obs as obs
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle with active/core
    from repro.active.loop import ActiveLearningLoop
    from repro.core.daakg import DAAKG

logger = get_logger(__name__)

#: Every executor name: ``"auto"``, which :func:`effective_executor_name`
#: resolves per machine, then the concrete backends.
EXECUTOR_NAMES = ("auto", "serial", "process")

#: Overrides the configured executor name when set and non-empty; CI runs the
#: suite on the process executor this way without touching any config.
CAMPAIGN_EXECUTOR_ENV = "REPRO_CAMPAIGN_EXECUTOR"

#: Fault-injection hook for crash-recovery tests: a comma-separated list of
#: piece indices whose runner raises instead of running — in whichever
#: process the runner executes (children inherit the environment).
POISON_ENV = "REPRO_CAMPAIGN_POISON"


def check_executor_name(name: str, auto: bool) -> str:
    """``name`` if it is in :data:`EXECUTOR_NAMES` (``"auto"`` only when
    ``auto``), else :class:`ValueError`."""
    choices = EXECUTOR_NAMES if auto else EXECUTOR_NAMES[1:]
    if name not in choices:
        raise ValueError(
            f"unknown campaign executor {name!r} (choose from {', '.join(choices)})"
        )
    return name


def resolve_campaign_executor(configured: str = "auto") -> str:
    """Effective executor name: the environment override first, then config.

    Resolution stops at the *name* (``"auto"`` stays ``"auto"`` here); the
    campaign maps it to a concrete backend per machine via
    :func:`effective_executor_name`.
    """
    raw = os.environ.get(CAMPAIGN_EXECUTOR_ENV, "").strip()
    return check_executor_name(raw or configured, auto=True)


def effective_executor_name(
    name: str, workers: int, num_partitions: int, cpu_count: int | None = None
) -> str:
    """Resolve a configured executor name (possibly ``"auto"``) to a concrete one.

    ``"auto"`` picks ``"process"`` when the campaign can actually use it —
    more than one piece, more than one worker, and more than one core — and
    ``"serial"`` otherwise: with a single worker, a single piece or a single
    core there is nothing to parallelise, and process spawn plus checkpoint
    transfer would only add overhead.
    """
    if check_executor_name(name, auto=True) != "auto":
        return name
    if workers <= 1 or num_partitions <= 1:
        return "serial"
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return "process" if cores > 1 else "serial"


# ---------------------------------------------------------------------- specs
@dataclass
class PieceSpec:
    """Everything one piece's runner needs, with no live-object references.

    A spec is picklable by construction (ints, strings, plain dicts of numpy
    arrays), so it crosses the process boundary — and, by design, could
    cross a machine boundary given a shared filesystem.  Exactly one of
    ``dataset_arrays`` (fresh piece: build the pipeline from the encoded
    pair) and ``checkpoint_dir`` (started piece: bit-exact restore, then
    continue) is set.
    """

    index: int
    config_json: str
    strategy: str
    output_dir: str
    active_config: dict | None = None
    max_batches: int | None = None
    dataset_arrays: dict[str, np.ndarray] | None = None
    checkpoint_dir: str | None = None
    # warm start (incremental updates): a checkpoint of the piece's pipeline
    # from *before* its pair changed.  The runner builds a fresh pipeline
    # from ``dataset_arrays`` and transplants every compatible parameter
    # from this checkpoint by vocabulary name before fitting.
    warm_start_dir: str | None = None
    # observability opt-in: the campaign stamps ``obs.enabled()`` here, so a
    # worker process (which does not share the parent's in-process flag)
    # knows to collect a piece-scoped metrics/trace state and serialise it
    # into ``output_dir`` alongside the result checkpoint
    obs: bool = False

    def __post_init__(self) -> None:
        if (self.dataset_arrays is None) == (self.checkpoint_dir is None):
            raise ValueError(
                "a piece spec carries exactly one of dataset_arrays "
                "(fresh piece) and checkpoint_dir (resumed piece)"
            )
        if self.warm_start_dir is not None and self.dataset_arrays is None:
            raise ValueError(
                "warm_start_dir requires dataset_arrays (a warm start builds "
                "a fresh pipeline on the updated pair, then transplants)"
            )


@dataclass
class PieceOutcome:
    """What one runner invocation produced (or failed to)."""

    index: int
    status: str  # "completed" | "failed"
    seconds: float
    output_dir: str | None = None
    error: str | None = None
    traceback: str | None = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"


# --------------------------------------------------------------------- runner
def _check_poison(index: int) -> None:
    raw = os.environ.get(POISON_ENV, "").strip()
    if not raw:
        return
    if str(index) in {token.strip() for token in raw.split(",")}:
        raise RuntimeError(f"piece {index} poisoned via {POISON_ENV}")


def _materialize_piece(spec: PieceSpec) -> "tuple[DAAKG, ActiveLearningLoop]":
    """Build or restore the piece's pipeline + loop described by ``spec``."""
    from repro.active.loop import ActiveLearningConfig  # circular at module level
    from repro.core.config import DAAKGConfig, config_from_dict
    from repro.core.daakg import DAAKG
    from repro.persistence.checkpoint import (
        load_checkpoint,
        restore_loop,
        restore_pipeline,
    )
    from repro.persistence.codec import pair_from_arrays

    if spec.checkpoint_dir is not None:
        checkpoint = load_checkpoint(spec.checkpoint_dir)
        if checkpoint.has_loop:
            loop = restore_loop(checkpoint)
            return loop.daakg, loop
        pipeline = restore_pipeline(checkpoint)
    else:
        pair = pair_from_arrays("dataset", spec.dataset_arrays)
        pipeline = DAAKG(pair, DAAKGConfig.from_json(spec.config_json))
        if spec.warm_start_dir is not None:
            from repro.updates.warm_start import warm_start_pipeline

            counts = warm_start_pipeline(pipeline, load_checkpoint(spec.warm_start_dir))
            logger.info(
                "piece %d warm-started: %d copied, %d row-mapped, %d fresh",
                spec.index, counts["copied"], counts["row_mapped"], counts["fresh"],
            )
    active_config = (
        config_from_dict(ActiveLearningConfig, spec.active_config)
        if spec.active_config is not None
        else None
    )
    loop = pipeline.active_learning(spec.strategy, active_config)
    return pipeline, loop


#: Per-piece observability artifact, written next to the result checkpoint.
PIECE_OBS_FILENAME = "obs.json"


def write_piece_obs(output_dir: str, state: "obs.ObsState") -> None:
    """Serialise a piece-scoped obs state into the piece's output directory.

    Written for completed *and* failed pieces (a failed piece has no result
    checkpoint, but its lifecycle telemetry is exactly what debugging
    needs), so the directory may not exist yet.
    """
    os.makedirs(output_dir, exist_ok=True)
    payload = {
        "snapshot": state.registry.snapshot(),
        "events": state.trace.events(),
    }
    with open(os.path.join(output_dir, PIECE_OBS_FILENAME), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def load_piece_obs(output_dir: str | None) -> dict | None:
    """The piece's serialised obs payload, or None when absent/unreadable."""
    if not output_dir:
        return None
    path = os.path.join(output_dir, PIECE_OBS_FILENAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def run_piece_spec(spec: PieceSpec) -> PieceOutcome:
    """Run one piece end to end; every executor backend calls exactly this.

    Materialises the piece (fresh build or bit-exact restore), fits the
    pipeline if needed, runs the active loop (``max_batches`` caps *new*
    batches, the same semantics as :meth:`ActiveLearningLoop.run`), and
    writes a standard per-piece checkpoint into ``spec.output_dir`` — the
    per-rank artifact the campaign's merge layer folds in unchanged.

    When ``spec.obs`` is set, the whole run executes inside a fresh
    piece-scoped :class:`repro.obs.ObsState`; its metrics snapshot and trace
    events (including the started/finished/failed lifecycle events) are
    serialised into ``spec.output_dir`` for the campaign to fold back —
    metrics cross the process boundary exactly like checkpoints do.

    Never raises: any exception (including injected poison) becomes a failed
    :class:`PieceOutcome`, leaving the campaign resumable.
    """
    from repro.persistence.checkpoint import save_checkpoint  # circular at module level

    start = time.perf_counter()
    with obs.scoped(spec.obs) as obs_state:
        obs.event("executor.piece.started", piece=spec.index, pid=os.getpid())
        try:
            with obs.span("executor.piece", piece=spec.index):
                _check_poison(spec.index)
                pipeline, loop = _materialize_piece(spec)
                if not pipeline.is_fitted:
                    pipeline.fit()
                loop.run(spec.max_batches)
                save_checkpoint(spec.output_dir, pipeline, loop=loop)
            seconds = time.perf_counter() - start
            logger.info(
                "piece %d done in %.2fs (%d records, pid %d)",
                spec.index,
                seconds,
                len(loop.records),
                os.getpid(),
            )
            outcome = PieceOutcome(
                index=spec.index,
                status="completed",
                seconds=seconds,
                output_dir=spec.output_dir,
            )
        except Exception as exc:  # surfaced as a resumable per-piece failure
            seconds = time.perf_counter() - start
            logger.warning("piece %d failed after %.2fs: %s", spec.index, seconds, exc)
            outcome = PieceOutcome(
                index=spec.index,
                status="failed",
                seconds=seconds,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )
        obs.counter("executor.pieces.total", status=outcome.status).inc()
        obs.histogram("executor.piece.seconds").observe(outcome.seconds)
        obs.event(
            "executor.piece.finished" if outcome.completed else "executor.piece.failed",
            piece=spec.index,
            seconds=outcome.seconds,
            pid=os.getpid(),
        )
        if obs_state is not None:
            try:
                write_piece_obs(spec.output_dir, obs_state)
            except OSError:  # telemetry must never fail a piece
                logger.warning("piece %d could not write its obs artifact", spec.index)
    return outcome


# ------------------------------------------------------------------ executors
@runtime_checkable
class CampaignExecutor(Protocol):
    """Where piece specs run: the only seam between campaign and hardware."""

    name: str
    workers: int

    def execute(self, specs: Sequence[PieceSpec]) -> list[PieceOutcome]:
        """Run every spec (in spec order in the result), absorbing failures."""
        ...  # pragma: no cover - protocol


@dataclass
class SerialExecutor:
    """Pieces run one after another in the calling thread (workers ignored)."""

    workers: int = 1
    name: str = field(default="serial", init=False)

    def execute(self, specs: Sequence[PieceSpec]) -> list[PieceOutcome]:
        return [run_piece_spec(spec) for spec in specs]


@dataclass
class ProcessExecutor:
    """Worker processes — the backend that actually breaks the GIL.

    Each piece spec is shipped (pickled) to a worker process that runs the
    shared :func:`run_piece_spec` and leaves its result checkpoint on disk;
    the parent only collects outcomes.  A worker dying hard (OOM kill,
    segfault — ``BrokenProcessPool``) fails the pieces that were in flight
    instead of raising through the campaign, keeping the same
    resumable-failure contract as an in-runner exception.
    """

    workers: int = 2
    name: str = field(default="process", init=False)

    def execute(self, specs: Sequence[PieceSpec]) -> list[PieceOutcome]:
        if not specs:
            return []
        outcomes: list[PieceOutcome] = []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(specs))) as pool:
            futures: list[tuple[PieceSpec, Future]] = [
                (spec, pool.submit(run_piece_spec, spec)) for spec in specs
            ]
            for spec, future in futures:
                try:
                    outcomes.append(future.result())
                except Exception as exc:  # worker died before returning an outcome
                    logger.warning("piece %d lost its worker: %s", spec.index, exc)
                    outcomes.append(
                        PieceOutcome(
                            index=spec.index,
                            status="failed",
                            seconds=0.0,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
        return outcomes


def create_executor(name: str, workers: int = 1) -> CampaignExecutor:
    """Instantiate a concrete executor backend by name."""
    if check_executor_name(name, auto=False) == "serial":
        return SerialExecutor()
    return ProcessExecutor(workers=max(1, workers))
