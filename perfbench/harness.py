"""Measurement primitives shared by every workload.

Nothing here imports the program under test, so the tests of the harness
run without it.  What lives here:

* the percentile rule: a percentile is reported only when at least ten
  samples lie beyond it;
* the open-loop generator: one thread submits a fixed schedule, every
  request is timed from the moment it was *due*, and the generator's own
  lateness is recorded so a stall shows up in the latencies it causes;
* the environment guard: ``REPRO_*`` overrides are refused and the BLAS
  thread counts must be pinned before NumPy is imported;
* the host-speed probe that puts CPU-bound times on one scale;
* the result line the one command prints last.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Every thread-count variable a NumPy BLAS build may read.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_BEYOND = 10
#: Seconds one burst median of the reference probe takes on the 2-vCPU host
#: the benchmark was defined on (Xeon at 2.1 GHz) when that host runs fast.
REFERENCE_PROBE_S = 0.015
PROBE_BURST = 5


class BenchError(RuntimeError):
    """A run that must stop without printing a result."""


# ------------------------------------------------------------------ environment
def pin_environment(environ=os.environ) -> None:
    """Refuse ``REPRO_*`` overrides and pin BLAS to one thread.

    Must run before NumPy is imported: OpenBLAS reads its thread count once,
    at load time.  Default threading changes results as well as timings
    (reduction order), so a run with any other setting is not comparable.
    """
    overrides = sorted(name for name in environ if name.startswith("REPRO_"))
    if overrides:
        raise BenchError(
            "refusing to run with REPRO_* overrides set: " + ", ".join(overrides)
        )
    for name in THREAD_ENV:
        environ[name] = "1"


def environment_record() -> dict:
    """Interpreter, NumPy, BLAS and core count of the measuring process."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name', '?')} {blas_info.get('version', '')}".strip()
    except (TypeError, AttributeError):  # older NumPy has no mode="dicts"
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": os.cpu_count(),
    }


# ------------------------------------------------------------------ statistics
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values``, only when ten samples lie beyond it.

    With ``n`` samples, ``n * (1 - q)`` of them lie above the q-quantile;
    fewer than ten there and the estimate is one or two outliers, so the
    call raises instead of returning a number that will not repeat.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    n = len(values)
    if n * (1.0 - q) < MIN_BEYOND - 1e-9:
        raise BenchError(
            f"p{q * 100:g} needs {math.ceil(MIN_BEYOND / (1.0 - q))} samples, got {n}"
        )
    ordered = sorted(values)
    position = q * (n - 1)
    low = math.floor(position)
    below, above = ordered[low], ordered[min(low + 1, n - 1)]
    if below == above:  # also keeps inf (unanswered requests) from turning into nan
        return below
    return below + (above - below) * (position - low)


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


# ------------------------------------------------------------------ host speed
def reference_probe() -> float:
    """Seconds one fixed reference computation takes now.

    Small NumPy kernels plus dict and tuple churn in the interpreter, the mix
    the measured program spends its time on, but none of the program's code:
    a change to the program never moves the probe.  The collector is off
    while it runs: a collection would traverse the program's heap, whose
    size is not the host's speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    left, right = rng.random((128, 64)), rng.random((64, 128))
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(40):
            product = left @ right
            np.argsort(product, axis=1)
            np.tanh(product).sum()
        table = {}
        for i in range(40_000):
            table[(i, i & 63)] = float(i)
        sum(table.values())
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """The host's speed around each timed interval, from reference probes.

    The shared host this benchmark runs on changes speed by tens of percent
    for seconds to minutes at a time, and CPU time swings with it, so a raw
    CPU-bound time mostly measures the neighbours.  A burst of probes runs
    before the first timed interval and after each one, outside them; an
    interval's time is multiplied by ``REFERENCE_PROBE_S`` over the mean of
    the bursts on either side, and a rate is divided by it.  The result
    reads as seconds on the reference host at its fast speed: a program
    change moves it, a host slowdown that slows the probe as much does not.
    """

    def __init__(self, probe: Callable[[], float] = reference_probe,
                 burst: int = PROBE_BURST) -> None:
        self.probe, self.burst = probe, burst
        self.bursts: list[float] = []

    def measure(self) -> None:
        """Run one burst of probes and keep its median."""
        self.bursts.append(statistics.median(self.probe() for _ in range(self.burst)))

    def factors(self, intervals: int) -> list[float]:
        """The scale of each interval; interval ``i`` lies between bursts ``i`` and ``i + 1``."""
        if len(self.bursts) != intervals + 1:
            raise BenchError(
                f"{intervals} intervals need {intervals + 1} probe bursts, "
                f"got {len(self.bursts)}"
            )
        return [
            REFERENCE_PROBE_S * 2.0 / (self.bursts[i] + self.bursts[i + 1])
            for i in range(intervals)
        ]

    def factor(self) -> float:
        """One scale for a stretch of long intervals: the median over all its bursts.

        Two bursts of a tenth of a second say little about the speed during
        an interval of several seconds; the median of every burst around a
        stretch of them says more.
        """
        return REFERENCE_PROBE_S / median(self.bursts)

    def probe_ms(self) -> float:
        return median(self.bursts) * 1e3


# ------------------------------------------------------------------- open loop
@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset from the phase start, op and args."""

    offset: float
    op: str
    args: tuple


def poisson_schedule(
    rng, rate: float, seconds: float, make_request: Callable[[], tuple[str, tuple]]
) -> list[Request]:
    """Arrivals of a Poisson process at ``rate``/s over ``seconds``.

    ``rng`` is a NumPy generator seeded from the command line, so the same
    seed gives the same schedule, request for request.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 64)
    offsets = gaps.cumsum()
    offsets = offsets[offsets < seconds]
    return [Request(float(offset), *make_request()) for offset in offsets]


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    request: Request
    due: float = 0.0
    sent: float = 0.0
    ticket: object = None
    shed: bool = False
    error: str | None = None

    @property
    def answered(self) -> bool:
        ticket = self.ticket
        return ticket is not None and ticket.ready and ticket.error is None

    @property
    def failed(self) -> bool:
        """Submission raised, or the ticket resolved with an error."""
        ticket = self.ticket
        return self.error is not None or (
            ticket is not None and ticket.ready and ticket.error is not None
        )

    @property
    def latency(self) -> float:
        """Seconds from due time to answer; infinite when never answered."""
        if not self.answered:
            return math.inf
        return self.ticket.completed_at - self.due


@dataclass
class OpenLoop:
    """One generator thread that submits ``schedule`` regardless of progress.

    ``submit(op, args)`` returns a ticket with ``ready``, ``error`` and
    ``completed_at`` (``time.perf_counter`` seconds); ``shed_errors`` are the
    exception types that mean the request was refused at admission.
    """

    submit: Callable[[str, tuple], object]
    schedule: list[Request]
    shed_errors: tuple = ()
    clock: Callable[[], float] = time.perf_counter
    sleep: Callable[[float], None] = time.sleep
    outcomes: list[Outcome] = field(default_factory=list)
    _thread: threading.Thread | None = None

    def start(self, t0: float | None = None) -> "OpenLoop":
        start = self.clock() if t0 is None else t0
        self.outcomes = [Outcome(request, due=start + request.offset) for request in self.schedule]
        self._thread = threading.Thread(target=self._run, name="open-loop", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        clock, sleep = self.clock, self.sleep
        for outcome in self.outcomes:
            wait = outcome.due - clock()
            if wait > 0:
                sleep(wait)
            outcome.sent = clock()
            try:
                outcome.ticket = self.submit(outcome.request.op, outcome.request.args)
            except self.shed_errors:
                outcome.shed = True
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                outcome.error = f"{type(exc).__name__}: {exc}"

    def join(self, timeout: float) -> None:
        if self._thread is None:
            return
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise BenchError("open-loop generator did not finish")

    def lateness(self) -> list[float]:
        """Seconds each request was sent after its due time."""
        return [max(o.sent - o.due, 0.0) for o in self.outcomes]


def summarise_stream(outcomes: Sequence[Outcome], deadline_s: float, wrong: set[int]) -> dict:
    """Latency percentiles and success counts of one open-loop phase.

    ``wrong`` holds the indexes of answers a check proved incorrect.  A shed,
    failed, wrong or late request counts against ``ok``; latencies of
    unanswered requests are infinite, so they sit in the tail.
    """
    latencies = [o.latency for o in outcomes]
    ok = sum(
        1
        for i, o in enumerate(outcomes)
        if o.answered and i not in wrong and o.latency <= deadline_s
    )
    return {
        "sent": len(outcomes),
        "shed": sum(1 for o in outcomes if o.shed),
        "errors": sum(1 for o in outcomes if o.failed),
        "wrong": len(wrong),
        "ok": ok,
        "p50_ms": median(latencies) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
    }


# --------------------------------------------------------------------- output
def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The JSON object the command prints as its last line."""
    if attempted < 1:
        raise BenchError("a run must attempt at least one operation")
    for name, entry in metrics.items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value!r}")
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics}
    )
