"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately stdlib-only (``threading`` + ``bisect``) so it
can be imported from any layer — including the embedding hot paths and the
executor's worker processes — without touching numpy or creating an import
cycle with the rest of :mod:`repro`.

Design contract:

* **Fixed explicit buckets.**  A histogram's bucket upper bounds are frozen
  at creation (an implicit ``+Inf`` bucket is always appended), so two
  snapshots of the *same* metric can be merged **exactly** by summing bucket
  counts — the property the partitioned campaign relies on when it folds
  per-piece snapshots produced in worker processes back into the parent's
  registry.  Requesting an existing histogram with different buckets is an
  error, never a silent re-bucketing.
* **Per-instrument locks.**  Updates take the instrument's own lock (not a
  registry-wide one), so concurrent counter increments from many threads are
  exact and uncontended across instruments.
* **Snapshots are plain JSON.**  :meth:`MetricsRegistry.snapshot` returns a
  dict of primitives only — it pickles with a campaign piece's outcome
  across the process boundary, and merges back through
  :meth:`MetricsRegistry.merge_snapshot`.
* **Prometheus exposition.**  :func:`render_prometheus` renders any snapshot
  as valid text exposition format (metric names sanitised, label values
  escaped, cumulative ``_bucket``/``_sum``/``_count`` series).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left

#: Coarse wall-time buckets (seconds) for training / piece-level durations.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Fine latency buckets (seconds) for served queries (sub-ms resolution).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Power-of-two size buckets for dispatch batch accounting (requests/batch).
DEFAULT_BATCH_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
)


def instrument_key(name: str, labels: dict[str, str]) -> str:
    """Canonical ``name{k="v",...}`` key (labels sorted; bare name when none)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing float counter."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-write-wins value (queue depths, batch sizes)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram; merges across snapshots are exact by design."""

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self, name: str, labels: dict[str, str], buckets: tuple[float, ...]
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        slot = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Approximate quantile by linear interpolation inside the bucket."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        return quantile_from_buckets(self.buckets, counts, total, q)


def quantile_from_buckets(
    buckets: tuple[float, ...], counts: list[int], total: int, q: float
) -> float:
    """Interpolated quantile of a fixed-bucket histogram (0.0 when empty)."""
    if total <= 0:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    target = q * total
    cumulative = 0
    for slot, bucket_count in enumerate(counts):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target and bucket_count > 0:
            lower = buckets[slot - 1] if slot > 0 else 0.0
            upper = buckets[slot] if slot < len(buckets) else buckets[-1]
            fraction = (target - previous) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return buckets[-1]


class MetricsRegistry:
    """Owns every instrument of one observability scope.

    Instrument creation takes the registry lock once per *new* instrument
    (lookups are lock-free dict reads on the happy path guarded by the GIL,
    then re-checked under the lock); updates take only the instrument's own
    lock.  ``snapshot()`` / ``merge_snapshot()`` are the exact round-trip the
    campaign uses to carry worker-process metrics across the fold.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, key: str, factory):
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory()
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {key!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        labels = {k: str(v) for k, v in labels.items()}
        key = instrument_key(name, labels)
        return self._get(Counter, key, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        labels = {k: str(v) for k, v in labels.items()}
        key = instrument_key(name, labels)
        return self._get(Gauge, key, lambda: Gauge(name, labels))

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        labels = {k: str(v) for k, v in labels.items()}
        key = instrument_key(name, labels)
        wanted = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        histogram = self._get(Histogram, key, lambda: Histogram(name, labels, wanted))
        if buckets is not None and histogram.buckets != wanted:
            raise ValueError(
                f"histogram {key!r} already exists with buckets "
                f"{histogram.buckets} (exact merge requires fixed buckets)"
            )
        return histogram

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> dict:
        """Everything, as JSON-able primitives (deterministically ordered)."""
        counters: dict[str, dict] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        with self._lock:
            items = sorted(self._instruments.items())
        for key, instrument in items:
            if isinstance(instrument, Counter):
                counters[key] = {
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "value": instrument.value,
                }
            elif isinstance(instrument, Gauge):
                gauges[key] = {
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "value": instrument.value,
                }
            else:
                with instrument._lock:
                    counts = list(instrument._counts)
                    total = instrument._count
                    acc = instrument._sum
                histograms[key] = {
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "buckets": list(instrument.buckets),
                    "counts": counts,
                    "sum": acc,
                    "count": total,
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another scope's snapshot in: counters/histograms sum exactly.

        Gauges are last-write-wins (the merged value is the incoming one) —
        point-in-time readings have no meaningful sum.  Histograms require
        identical buckets; anything else would make the merge lossy.
        """
        for entry in snapshot.get("counters", {}).values():
            self.counter(entry["name"], **entry["labels"]).inc(float(entry["value"]))
        for entry in snapshot.get("gauges", {}).values():
            self.gauge(entry["name"], **entry["labels"]).set(float(entry["value"]))
        for entry in snapshot.get("histograms", {}).values():
            histogram = self.histogram(
                entry["name"], buckets=tuple(entry["buckets"]), **entry["labels"]
            )
            counts = entry["counts"]
            if len(counts) != len(histogram._counts):
                raise ValueError(
                    f"histogram {entry['name']!r} bucket count mismatch on merge"
                )
            with histogram._lock:
                for slot, bucket_count in enumerate(counts):
                    histogram._counts[slot] += int(bucket_count)
                histogram._sum += float(entry["sum"])
                histogram._count += int(entry["count"])


# ------------------------------------------------------------- exposition
def _prom_name(name: str) -> str:
    out = "".join(c if c.isalnum() or c in "_:" else "_" for c in name)
    return out if not out[:1].isdigit() else "_" + out


def _prom_labels(labels: dict[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(k, labels[k]) for k in sorted(labels)] + list(extra)
    if not pairs:
        return ""
    escaped = (
        (k, v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"))
        for k, v in pairs
    )
    return "{" + ",".join(f'{k}="{v}"' for k, v in escaped) + "}"


def _format_value(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot as Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", {}).values():
        name = _prom_name(entry["name"])
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(entry['labels'])} {_format_value(entry['value'])}")
    for entry in snapshot.get("gauges", {}).values():
        name = _prom_name(entry["name"])
        type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(entry['labels'])} {_format_value(entry['value'])}")
    for entry in snapshot.get("histograms", {}).values():
        name = _prom_name(entry["name"])
        type_line(name, "histogram")
        labels = entry["labels"]
        cumulative = 0
        for bound, count in zip(entry["buckets"], entry["counts"]):
            cumulative += count
            le = _prom_labels(labels, (("le", _format_value(bound)),))
            lines.append(f"{name}_bucket{le} {cumulative}")
        le = _prom_labels(labels, (("le", "+Inf"),))
        lines.append(f"{name}_bucket{le} {entry['count']}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {_format_value(entry['sum'])}")
        lines.append(f"{name}_count{_prom_labels(labels)} {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_jsonl(snapshot: dict) -> str:
    """One JSON object per instrument — the ``metrics.jsonl`` artifact body."""
    lines = []
    for kind in ("counters", "gauges", "histograms"):
        for entry in snapshot.get(kind, {}).values():
            payload = {"kind": kind[:-1]}
            payload.update(entry)
            lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
