"""``repro.obs`` — metrics, tracing and profiling for the whole pipeline.

One observability facade instruments every layer (trainer steps, similarity
caches, executor pieces, served queries) without touching
values or RNG streams — observation only, bit-exactness is preserved by
construction.

Usage::

    from repro import obs

    obs.counter("similarity.cache.hits", kind="entity").inc()
    with obs.span("trainer.step", piece=3):
        ...
    with obs.timer("trainer.loss.seconds", term="match"):
        ...
    print(obs.render_prometheus())

**Gate.**  Everything is off by default: when disabled, every accessor
returns a shared no-op singleton — no allocation, no locks, no events — so
instrumented hot paths cost a single flag check.  Enable programmatically
(:func:`enable`) or via the environment: ``REPRO_OBS=1`` turns collection
on, and setting ``REPRO_OBS_DIR=/some/dir`` additionally exports
``metrics.jsonl`` / ``metrics.prom`` / ``trace.jsonl`` artifacts at process
exit (one ``obs-<pid>`` subdirectory per process, so executor workers never
clobber the parent's export).

**Scopes.**  Metrics and events accumulate in the current
:class:`ObsState` — a ``contextvars``-scoped pair of
(:class:`~repro.obs.registry.MetricsRegistry`, ``TraceBuffer``).  The
process starts with one root state; :func:`scoped` pushes a fresh isolated
state, which is how :func:`repro.runtime.executor.run_piece_spec` gives
every campaign piece its own registry whose snapshot is serialised next to
the piece's checkpoint and folded back (exactly, see
:meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`) by
:class:`~repro.active.campaign.PartitionedCampaign` — fleet metrics survive
the process boundary the same way checkpoints do.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import os
import time

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_jsonl,
    quantile_from_buckets,
    render_prometheus as _render_prometheus,
)
from repro.obs.trace import Span, TraceBuffer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsState",
    "Span",
    "TraceBuffer",
    "counter",
    "disable",
    "drain_events",
    "enable",
    "enabled",
    "event",
    "events",
    "export_artifacts",
    "extend_events",
    "gauge",
    "histogram",
    "merge_snapshot",
    "metrics_jsonl",
    "quantile_from_buckets",
    "render_prometheus",
    "reset",
    "scoped",
    "snapshot",
    "span",
    "state",
    "timer",
]


class ObsState:
    """One observability scope: a metrics registry plus a trace buffer."""

    __slots__ = ("registry", "trace")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.trace = TraceBuffer()


_ROOT = ObsState()
_STATE: contextvars.ContextVar[ObsState] = contextvars.ContextVar(
    "repro_obs_state", default=_ROOT
)


def _truthy(raw: str | None) -> bool:
    return (raw or "").strip().lower() not in ("", "0", "false", "no", "off")


_OBS_DIR = os.environ.get("REPRO_OBS_DIR") or None
_ENABLED = _truthy(os.environ.get("REPRO_OBS")) or _OBS_DIR is not None


def enabled() -> bool:
    """Whether instrumentation currently collects anything."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def state() -> ObsState:
    """The current scope (root unless inside :func:`scoped`)."""
    return _STATE.get()


# ------------------------------------------------------------ no-op fast path
class _NoopCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class _NoopGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class _NoopHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NOOP_COUNTER = _NoopCounter()
NOOP_GAUGE = _NoopGauge()
NOOP_HISTOGRAM = _NoopHistogram()
NOOP_SPAN = _NoopSpan()


class _Timer:
    """Accumulates the block's elapsed seconds into a counter."""

    __slots__ = ("_counter", "_start")

    def __init__(self, target: Counter) -> None:
        self._counter = target

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._counter.inc(time.perf_counter() - self._start)
        return False


# ------------------------------------------------------------------ accessors
def counter(name: str, **labels) -> Counter:
    if not _ENABLED:
        return NOOP_COUNTER  # type: ignore[return-value]
    return _STATE.get().registry.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    if not _ENABLED:
        return NOOP_GAUGE  # type: ignore[return-value]
    return _STATE.get().registry.gauge(name, **labels)


def histogram(name: str, buckets: tuple[float, ...] | None = None, **labels) -> Histogram:
    if not _ENABLED:
        return NOOP_HISTOGRAM  # type: ignore[return-value]
    return _STATE.get().registry.histogram(name, buckets=buckets, **labels)


def span(name: str, **attrs) -> Span:
    if not _ENABLED:
        return NOOP_SPAN  # type: ignore[return-value]
    return _STATE.get().trace.span(name, **attrs)


def timer(name: str, **labels) -> _Timer:
    """``with obs.timer("trainer.loss.seconds", term="match"):`` — cheap
    elapsed-seconds accumulation into a counter (no per-call trace event)."""
    if not _ENABLED:
        return NOOP_SPAN  # type: ignore[return-value]
    return _Timer(_STATE.get().registry.counter(name, **labels))


def event(name: str, **attrs) -> None:
    if _ENABLED:
        _STATE.get().trace.event(name, **attrs)


# ----------------------------------------------------------------- inspection
def snapshot() -> dict:
    """The current scope's metrics as JSON-able primitives."""
    return _STATE.get().registry.snapshot()


def events() -> list[dict]:
    return _STATE.get().trace.events()


def drain_events() -> list[dict]:
    return _STATE.get().trace.drain()


def merge_snapshot(other: dict) -> None:
    """Fold another scope's snapshot into the current registry (exact)."""
    _STATE.get().registry.merge_snapshot(other)


def extend_events(more: list[dict]) -> None:
    _STATE.get().trace.extend(more)


def render_prometheus() -> str:
    """The current scope's metrics in Prometheus text exposition format."""
    return _render_prometheus(snapshot())


def reset() -> None:
    """Drop the current scope's metrics and events (tests, repeated benches)."""
    current = _STATE.get()
    current.registry.clear()
    current.trace.clear()


@contextlib.contextmanager
def scoped(active: bool = True):
    """Run a block against a fresh isolated :class:`ObsState`.

    Yields the new state (or ``None`` when ``active`` is false, in which case
    nothing changes).  Collection is force-enabled inside the scope and the
    previous flag restored on exit — this is how an executor worker honours
    ``PieceSpec.obs`` without inheriting the parent's environment.
    """
    global _ENABLED
    if not active:
        yield None
        return
    fresh = ObsState()
    token = _STATE.set(fresh)
    previous = _ENABLED
    _ENABLED = True
    try:
        yield fresh
    finally:
        _STATE.reset(token)
        _ENABLED = previous


# -------------------------------------------------------------------- export
def export_artifacts(directory: str | os.PathLike) -> dict[str, str]:
    """Write the current scope's artifacts into ``directory``.

    Produces ``metrics.jsonl`` (one JSON object per instrument),
    ``metrics.prom`` (Prometheus text exposition) and ``trace.jsonl`` (one
    event per line).  Returns the written paths keyed by artifact name.
    """
    import json

    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    snap = snapshot()
    paths = {
        "metrics.jsonl": os.path.join(directory, "metrics.jsonl"),
        "metrics.prom": os.path.join(directory, "metrics.prom"),
        "trace.jsonl": os.path.join(directory, "trace.jsonl"),
    }
    with open(paths["metrics.jsonl"], "w", encoding="utf-8") as handle:
        handle.write(metrics_jsonl(snap))
    with open(paths["metrics.prom"], "w", encoding="utf-8") as handle:
        handle.write(_render_prometheus(snap))
    with open(paths["trace.jsonl"], "w", encoding="utf-8") as handle:
        for item in events():
            handle.write(json.dumps(item, sort_keys=True) + "\n")
    return paths


def _atexit_export() -> None:  # pragma: no cover - exercised in subprocesses
    try:
        export_artifacts(os.path.join(_OBS_DIR, f"obs-{os.getpid()}"))
    except Exception:
        pass


if _OBS_DIR is not None:  # pragma: no cover - env-dependent
    atexit.register(_atexit_export)
