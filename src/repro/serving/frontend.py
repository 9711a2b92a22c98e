"""Concurrent serving front end: admission control + deadline-aware batching.

:class:`AlignmentService` answers a *list* of queries with one vectorised
gather, so batching pays — but concurrent callers each hold one query.
:class:`ServingFrontend` is the one batcher in :mod:`repro.serving`: a
thread-pool dispatcher in front of the service that gathers single queries
from many callers into those list calls, so they share the batching win
without coordinating:

* **Bounded admission queue with explicit backpressure** — ``submit_*``
  appends to a deque whose depth is capped at
  :attr:`FrontendConfig.max_queue_depth`; once full, requests are *shed* with
  a typed :class:`BackpressureError` instead of growing the queue (and the
  latency of everything behind it) without bound.  Load-shedding is a
  first-class outcome: the caller sees a structured error carrying the
  observed depth and limit, and every shed increments
  ``frontend.shed.total``.
* **Deadline-aware batching** — every request carries a latency deadline
  (per-call override of :attr:`FrontendConfig.default_deadline_ms`).  Worker
  threads flush a batch when it reaches ``max_batch`` *or* when the oldest
  queued request has spent half its deadline budget waiting, whichever comes
  first — under heavy load batches fill instantly (throughput mode), under
  light load a lone request waits at most deadline/2 (latency mode), leaving
  the other half of the budget for the gather itself.
* **Lock-free snapshot fan-out** — workers call the service's query methods
  directly; each call reads the frozen-snapshot reference once and runs on
  immutable arrays, so concurrent batches never contend on serving state
  (only the service's fine-grained cache/counter locks are ever taken).  This
  is what makes hot-swap under load safe: an in-flight batch finishes against
  the snapshot it started with while the next batch sees the new one.
* **Telemetry through the existing registry** — all series publish into
  ``service.obs`` (so ``service.metrics()["snapshot"]`` and the Prometheus
  exposition pick them up with no new plumbing): ``frontend.requests.total``
  per op, ``frontend.shed.total``, ``frontend.queue.depth`` /
  ``frontend.queue.peak_depth`` gauges, ``frontend.batch.size`` and
  end-to-end ``frontend.request.seconds`` histograms, and per-reason
  ``frontend.flushes.total`` (``full`` / ``deadline`` / ``drain``).

The event-loop flavour of the same design is deliberately *not* asyncio:
the query kernels are synchronous numpy and the callers in this repo (tests,
benches, examples) are thread-based; a thread-pool dispatcher serves both
without forcing an event loop onto every caller.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs.registry import DEFAULT_BATCH_BUCKETS, DEFAULT_LATENCY_BUCKETS
from repro.serving.service import AlignmentService, ServingError
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class Ticket:
    """One admitted query; ``result()`` waits for a worker to resolve it.

    Carries the dispatcher that owns it, its deadline and its submit /
    complete timestamps.  Waiting never resolves anything on the caller's
    thread, so one slow caller can never steal the batch.
    """

    op: str
    args: tuple
    dispatcher: "ServingFrontend"
    ready: bool = False
    value: object = None
    error: Exception | None = None
    deadline_s: float = 0.0
    submitted_at: float = 0.0
    completed_at: float = 0.0

    def result(self, timeout: float | None = None):
        if not self.ready:
            self.dispatcher.wait(self, timeout)
        if self.error is not None:
            raise self.error
        return self.value


def _resolve_group(tickets: list[Ticket], answer_batch) -> None:
    """Answer ``tickets`` with one batch call; a bad query fails only its own.

    On a :class:`ServingError` (e.g. an unknown URI) the group falls back to
    per-ticket resolution, so the offender's ticket carries the error and the
    rest still get their answers.
    """
    try:
        answers = answer_batch(tickets)
    except ServingError:
        for ticket in tickets:
            try:
                ticket.value = answer_batch([ticket])[0]
            except ServingError as exc:
                ticket.error = exc
            ticket.ready = True
        return
    for ticket, answer in zip(tickets, answers):
        ticket.value = answer
        ticket.ready = True


class BackpressureError(ServingError):
    """Typed admission rejection: the queue is at its depth limit.

    Raised by ``submit_*`` the moment the request would exceed
    ``max_queue_depth`` — the request is *shed*, never enqueued.  Carries the
    observed ``depth`` and configured ``limit`` so callers can implement
    retry-after or report saturation upstream.
    """

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(f"admission queue full ({depth}/{limit}); request shed")
        self.depth = depth
        self.limit = limit


@dataclass(frozen=True)
class FrontendConfig:
    """Dispatcher knobs."""

    num_workers: int = 2
    max_queue_depth: int = 1024
    max_batch: int = 64
    default_deadline_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0")


class ServingFrontend:
    """A thread-pool dispatcher in front of one :class:`AlignmentService`.

    Usage::

        frontend = ServingFrontend(service, FrontendConfig(num_workers=4))
        with frontend:                       # start() .. stop(drain=True)
            ticket = frontend.submit_top_k("dbp:Berlin", k=5, deadline_ms=20)
            ...
            ticket.result()                  # waits on the flush loop

    ``resolve_env`` is accepted and ignored (``perfbench/`` passes it); the
    configuration is ``config`` alone.
    """

    def __init__(
        self,
        service: AlignmentService,
        config: FrontendConfig | None = None,
        resolve_env: bool = True,
    ) -> None:
        self.service = service
        self.config = config or FrontendConfig()
        self._queue: deque[Ticket] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._done = threading.Condition(threading.Lock())
        self._workers: list[threading.Thread] = []
        self._stop = False
        self._draining = False
        self._in_flight = 0
        self._peak_depth = 0
        obs = service.obs
        self._submit_counters = {
            op: obs.counter("frontend.requests.total", op=op)
            for op in ("topk", "score")
        }
        self._shed_counter = obs.counter("frontend.shed.total")
        self._depth_gauge = obs.gauge("frontend.queue.depth")
        self._peak_depth_gauge = obs.gauge("frontend.queue.peak_depth")
        self._batch_hist = obs.histogram("frontend.batch.size", buckets=DEFAULT_BATCH_BUCKETS)
        self._lat_hist = obs.histogram(
            "frontend.request.seconds", buckets=DEFAULT_LATENCY_BUCKETS
        )
        self._flush_reasons = {
            reason: obs.counter("frontend.flushes.total", reason=reason)
            for reason in ("full", "deadline", "drain")
        }

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "ServingFrontend":
        """Launch the worker pool (idempotent)."""
        if self._workers:
            return self
        self._stop = False
        for index in range(self.config.num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serving-frontend-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        logger.info(
            "serving frontend started: %d workers, queue depth %d, batch %d",
            self.config.num_workers, self.config.max_queue_depth, self.config.max_batch,
        )
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the workers; ``drain`` answers queued work first.

        With ``drain=False`` every still-queued ticket fails with a
        :class:`ServingError` — a stopped frontend never strands a waiter.
        """
        if drain and self._workers:
            self.drain(timeout=timeout)
        with self._not_empty:
            self._stop = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._not_empty.notify_all()
        for worker in self._workers:
            worker.join(timeout=timeout)
        self._workers = []
        if leftovers:
            error = ServingError("serving frontend stopped before resolving this ticket")
            for ticket in leftovers:
                ticket.error = error
                ticket.ready = True
            with self._done:
                self._done.notify_all()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until queue and in-flight batches are empty; True on success.

        Draining flushes partial batches immediately (reason ``drain``)
        instead of waiting out their deadline budgets.
        """
        with self._not_empty:
            self._draining = True
            self._not_empty.notify_all()
        try:
            with self._done:
                return self._done.wait_for(
                    lambda: not self._queue and self._in_flight == 0, timeout
                )
        finally:
            self._draining = False

    # ------------------------------------------------------------------ submit
    def submit_top_k(self, uri: str, k: int = 10, deadline_ms: float | None = None) -> Ticket:
        """Admit one top-k query; sheds with :class:`BackpressureError` when full.

        ``k < 1`` raises :class:`ValueError` here, so a bad request never
        joins (and fails) a batch.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._submit("topk", (uri, k), deadline_ms)

    def submit_score(
        self, left: str, right: str, deadline_ms: float | None = None
    ) -> Ticket:
        """Admit one pair-score query; sheds with :class:`BackpressureError` when full."""
        return self._submit("score", (left, right), deadline_ms)

    def _submit(self, op: str, args: tuple, deadline_ms: float | None) -> Ticket:
        deadline_s = (
            deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        ) / 1e3
        if deadline_s <= 0:
            raise ValueError("deadline_ms must be > 0")
        ticket = Ticket(op, args, self, deadline_s=deadline_s, submitted_at=time.perf_counter())
        with self._not_empty:
            depth = len(self._queue)
            if depth >= self.config.max_queue_depth:
                self._shed_counter.inc()
                raise BackpressureError(depth, self.config.max_queue_depth)
            self._queue.append(ticket)
            if depth + 1 > self._peak_depth:
                self._peak_depth = depth + 1
            self._not_empty.notify()
        self._submit_counters[op].inc()
        return ticket

    @property
    def depth(self) -> int:
        """Current admission-queue depth (in-flight batches not included)."""
        return len(self._queue)

    def wait(self, ticket: Ticket, timeout: float | None = None) -> None:
        """Block until a worker resolves ``ticket`` (used by ``Ticket.result``)."""
        with self._done:
            if not self._done.wait_for(lambda: ticket.ready, timeout):
                raise TimeoutError("ticket not resolved within timeout")

    # ------------------------------------------------------------- flush loop
    def _worker_loop(self) -> None:
        while True:
            with self._not_empty:
                while True:
                    if self._stop:
                        return
                    batch, reason = self._take_batch_locked()
                    if batch is not None:
                        break
                    self._not_empty.wait(self._wait_timeout_locked())
                self._in_flight += 1
                self._depth_gauge.set(len(self._queue))
            try:
                self._resolve_batch(batch, reason)
            finally:
                with self._lock:
                    self._in_flight -= 1
                with self._done:
                    self._done.notify_all()

    def _take_batch_locked(self) -> tuple[list[Ticket] | None, str | None]:
        """Pop a batch if a flush condition holds (called with the lock held)."""
        queue = self._queue
        if not queue:
            return None, None
        max_batch = self.config.max_batch
        if len(queue) >= max_batch:
            reason = "full"
        elif self._draining:
            reason = "drain"
        elif (
            time.perf_counter() - queue[0].submitted_at
            >= 0.5 * queue[0].deadline_s
        ):
            reason = "deadline"
        else:
            return None, None
        size = min(len(queue), max_batch)
        return [queue.popleft() for _ in range(size)], reason

    def _wait_timeout_locked(self) -> float | None:
        """Sleep until the oldest request's half-deadline (None when idle)."""
        if not self._queue:
            return None
        oldest = self._queue[0]
        remaining = oldest.submitted_at + 0.5 * oldest.deadline_s - time.perf_counter()
        # clamp below: a just-expired deadline re-checks immediately via
        # _take_batch_locked, so a tiny positive floor only avoids busy-spin
        return max(remaining, 0.0005)

    def _resolve_batch(self, batch: list[Ticket], reason: str) -> None:
        self._flush_reasons[reason].inc()
        self._batch_hist.observe(len(batch))
        service = self.service
        by_k: dict[int, list[Ticket]] = {}
        score_tickets: list[Ticket] = []
        for ticket in batch:
            if ticket.op == "topk":
                by_k.setdefault(ticket.args[1], []).append(ticket)
            else:
                score_tickets.append(ticket)
        try:
            for k, tickets in by_k.items():
                _resolve_group(
                    tickets,
                    lambda ts, k=k: service.top_k_alignments([t.args[0] for t in ts], k),
                )
            if score_tickets:
                _resolve_group(
                    score_tickets,
                    lambda ts: [float(v) for v in service.score_pairs([t.args for t in ts])],
                )
        except Exception as exc:  # defensive: never strand a waiting caller
            for ticket in batch:
                if not ticket.ready:
                    ticket.error = exc
                    ticket.ready = True
        completed = time.perf_counter()
        observe = self._lat_hist.observe
        for ticket in batch:
            ticket.completed_at = completed
            observe(completed - ticket.submitted_at)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Dispatcher health: depth, sheds, batch counts, latency quantiles.

        Latencies are end-to-end (admission to resolution) from the
        ``frontend.request.seconds`` histogram — queue wait included, which
        is what an external caller actually experiences.
        """
        self._depth_gauge.set(len(self._queue))
        self._peak_depth_gauge.set(self._peak_depth)
        submitted = sum(int(c.value) for c in self._submit_counters.values())
        flushes = {name: int(c.value) for name, c in self._flush_reasons.items()}
        return {
            "workers": len(self._workers),
            "queue_depth": len(self._queue),
            "peak_queue_depth": self._peak_depth,
            "max_queue_depth": self.config.max_queue_depth,
            "submitted_total": submitted,
            "shed_total": int(self._shed_counter.value),
            "resolved_total": self._lat_hist.count,
            "dispatched_batches": sum(flushes.values()),
            "flush_reasons": flushes,
            "p50_latency_ms": self._lat_hist.quantile(0.5) * 1e3,
            "p99_latency_ms": self._lat_hist.quantile(0.99) * 1e3,
        }
