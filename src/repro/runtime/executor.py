"""Campaign executors: serial / process piece execution.

:class:`~repro.active.campaign.PartitionedCampaign` cuts a pair into
independent pieces; *this* module decides **where each piece's pipeline
actually runs**.  The contract has three parts:

1. **One runner, every backend.**  :func:`run_piece_spec` is a top-level,
   picklable function taking a self-contained :class:`PieceSpec` — the
   piece's dataset arrays (or, for a started piece, its checkpoint value to
   resume from), an optional warm-start checkpoint value, its config as
   JSON and its strategy name — and returning a :class:`PieceOutcome` that
   holds the finished loop and the piece's obs payload.  The serial and
   process executors both call *the same function*.  The serial backend
   hands the finished loop back as it is; the process backend's worker
   sends it back as its :func:`~repro.persistence.checkpoint.checkpoint_of`
   value, which the parent rebuilds with the bit-exact
   :func:`~repro.persistence.checkpoint.restore_loop` — so results can
   never depend on which backend produced them.

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
   same way).  A failed piece simply has no finished loop: the campaign
   keeps its previous state for that piece (a started piece is restored
   from its checkpoint value inside the runner, so a crash mid-run touches
   nothing the campaign holds), its next ``run()`` re-executes only the
   failed pieces, and a campaign checkpoint taken in between stays
   loadable.

Why processes and not threads: the training loops are GIL-bound pure-numpy
Python, so a thread pool cannot scale them — the last ``BENCH_partition.json``
run that swept one measured serial *beating* four threads (18.66 s vs
22.55 s on a 1-core host), and the thread backend was retired.  Worker
processes follow the rank/world-size idiom of distributed inference (each
rank computes its shard and serialises a per-rank artifact only because it
crosses a process boundary; the merge step folds artifacts in rank order):
a piece's ``index`` is its rank, its checkpoint value is the per-rank
artifact, and :class:`~repro.runtime.merge.MergedSimilarityState` is the
barrier-free fold.  Shipping specs to *remote* ranks instead of local
processes is the designed next step — nothing in a spec assumes a shared
process: a spec and an outcome are picklable values (a worker's outcome
carries its loop as a checkpoint value).

Executor selection: ``PartitionConfig.executor`` (``"auto"`` picks the
process backend when the campaign has more than one piece, more than one
worker and more than one core), overridden per process by the
``REPRO_CAMPAIGN_EXECUTOR`` environment variable
(:func:`resolve_campaign_executor`).  This module holds the one table of
executor names, :data:`EXECUTOR_NAMES`, and the one check of a name,
:func:`check_executor_name`.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

import repro.obs as obs
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle with active/core
    from repro.active.loop import ActiveLearningLoop
    from repro.core.daakg import DAAKG
    from repro.persistence.checkpoint import Checkpoint

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
    transfer would only add overhead.  The cores are the ones this process
    may run on (its affinity mask under ``taskset`` or a container's CPU
    set), not the host's.
    """
    if check_executor_name(name, auto=True) != "auto":
        return name
    if workers <= 1 or num_partitions <= 1:
        return "serial"
    cores = cpu_count if cpu_count is not None else _available_cpus()
    return "process" if cores > 1 else "serial"


def _available_cpus() -> int:
    """How many CPUs this process may run on (its affinity mask if the
    platform has one, else the host's count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------- specs
@dataclass
class PieceSpec:
    """Everything one piece's runner needs, as values.

    A spec holds no live object and no writable buffer of the campaign
    (ints, strings, plain dicts of numpy arrays and
    :class:`~repro.persistence.checkpoint.Checkpoint` values), so it
    pickles across the process boundary — and, by design, could cross a
    machine boundary.  Exactly one of ``dataset_arrays`` (fresh piece:
    build the pipeline from the encoded pair) and ``checkpoint`` (started
    piece: bit-exact restore, then continue) is set.
    """

    index: int
    config_json: str
    strategy: str
    active_config: dict | None = None
    max_batches: int | None = None
    dataset_arrays: dict[str, np.ndarray] | None = None
    checkpoint: "Checkpoint | None" = None
    # warm start (incremental updates): the checkpoint of the piece's
    # pipeline from *before* its pair changed.  The runner builds a fresh
    # pipeline from ``dataset_arrays`` and transplants every compatible
    # parameter from this checkpoint by vocabulary name before fitting.
    warm_start: "Checkpoint | None" = None
    # observability opt-in: the campaign stamps ``obs.enabled()`` here, so a
    # worker process (which does not share the parent's in-process flag)
    # knows to collect a piece-scoped metrics/trace state and return it on
    # the outcome
    obs: bool = False

    def __post_init__(self) -> None:
        if (self.dataset_arrays is None) == (self.checkpoint is None):
            raise ValueError(
                "a piece spec carries exactly one of dataset_arrays "
                "(fresh piece) and checkpoint (resumed piece)"
            )
        if self.warm_start is not None and self.dataset_arrays is None:
            raise ValueError(
                "warm_start requires dataset_arrays (a warm start builds "
                "a fresh pipeline on the updated pair, then transplants)"
            )


@dataclass
class PieceOutcome:
    """What one runner invocation produced (or failed to).

    A completed piece holds its finished ``loop`` (whose ``daakg`` is the
    piece's pipeline); a failed one holds None.  ``obs`` is the piece's
    ``{"snapshot", "events"}`` payload when the spec asked for one, on
    failure too.
    """

    index: int
    status: str  # "completed" | "failed"
    seconds: float
    loop: "ActiveLearningLoop | None" = None
    obs: dict | None = None
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
    from repro.persistence.checkpoint import restore_loop, restore_pipeline
    from repro.persistence.codec import pair_from_arrays

    if spec.checkpoint is not None:
        if spec.checkpoint.has_loop:
            loop = restore_loop(spec.checkpoint)
            return loop.daakg, loop
        pipeline = restore_pipeline(spec.checkpoint)
    else:
        pair = pair_from_arrays("dataset", spec.dataset_arrays)
        pipeline = DAAKG(pair, DAAKGConfig.from_json(spec.config_json))
        if spec.warm_start is not None:
            from repro.updates.warm_start import warm_start_pipeline

            counts = warm_start_pipeline(pipeline, spec.warm_start)
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


def run_piece_spec(spec: PieceSpec) -> PieceOutcome:
    """Run one piece end to end; every executor backend calls exactly this.

    Materialises the piece (fresh build, warm start or bit-exact restore),
    fits the pipeline if needed, runs the active loop (``max_batches`` caps
    *new* batches, the same semantics as :meth:`ActiveLearningLoop.run`),
    and returns the finished loop on the outcome.

    When ``spec.obs`` is set, the whole run executes inside a fresh
    piece-scoped :class:`repro.obs.ObsState`; its metrics snapshot and trace
    events (including the started/finished/failed lifecycle events) ride on
    the outcome for the campaign to fold back — metrics cross the process
    boundary exactly like the loop does.

    Never raises: any exception (including injected poison) becomes a failed
    :class:`PieceOutcome`, leaving the campaign resumable.
    """
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
                loop=loop,
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
            outcome.obs = {
                "snapshot": obs_state.registry.snapshot(),
                "events": obs_state.trace.events(),
            }
    return outcome


def _run_piece_in_worker(spec: PieceSpec) -> "tuple[PieceOutcome, Checkpoint | None]":
    """:func:`run_piece_spec` in a worker process.

    The finished loop goes back to the parent as its checkpoint value, the
    picklable form the bit-exact restore reads, for
    :meth:`ProcessExecutor.execute` to restore.
    """
    from repro.persistence.checkpoint import checkpoint_of  # circular at module level

    outcome = run_piece_spec(spec)
    if outcome.loop is None:
        return outcome, None
    return replace(outcome, loop=None), checkpoint_of(outcome.loop.daakg, outcome.loop)


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
    shared :func:`run_piece_spec` and returns its outcome with the finished
    loop as a checkpoint value; the parent restores that loop bit-exactly.
    A worker dying hard (OOM kill, segfault — ``BrokenProcessPool``) fails
    the pieces that were in flight instead of raising through the campaign,
    keeping the same resumable-failure contract as an in-runner exception.
    """

    workers: int = 2
    name: str = field(default="process", init=False)

    def execute(self, specs: Sequence[PieceSpec]) -> list[PieceOutcome]:
        from repro.persistence.checkpoint import restore_loop  # circular at module level

        if not specs:
            return []
        outcomes: list[PieceOutcome] = []
        with ProcessPoolExecutor(max_workers=min(self.workers, len(specs))) as pool:
            futures: list[tuple[PieceSpec, Future]] = [
                (spec, pool.submit(_run_piece_in_worker, spec)) for spec in specs
            ]
            for spec, future in futures:
                try:
                    outcome, checkpoint = future.result()
                    if checkpoint is not None:
                        outcome.loop = restore_loop(checkpoint)
                    outcomes.append(outcome)
                except Exception as exc:  # the worker died, or its loop did not restore
                    logger.warning("piece %d did not come back from its worker: %s", spec.index, exc)
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
