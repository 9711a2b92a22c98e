"""Online serving of alignment queries from frozen pipeline snapshots.

:class:`AlignmentService` answers ``top_k_alignments`` / ``score_pairs``
queries from a frozen :class:`ServingSnapshot` of the similarity matrices,
with request micro-batching, a state-token-keyed LRU result cache, atomic
hot-swap to newer checkpoints, and all-or-nothing fold-in of new entities
(:meth:`AlignmentService.apply_delta`) without recomputing the full
similarity state.  Every snapshot carries one fold context per trained
embedding space: a pipeline is a one-piece campaign.

:class:`ServingFrontend` puts a concurrent dispatcher in front of a service:
a bounded admission queue with typed load-shedding
(:class:`BackpressureError`), deadline-aware batch flushing, and a worker
pool fanning read-only snapshot queries out without a global lock — the
layer that turns single-caller micro-batching into a measured saturation
curve under open-loop load (``benchmarks/bench_serving_throughput.py``).

:func:`serve` is the unified entry point: hand it a pipeline, a campaign, a
snapshot or a checkpoint path and get back a service (or a started frontend).
"""

from repro.serving.entry import serve
from repro.serving.frontend import (
    BackpressureError,
    FrontendConfig,
    ServingFrontend,
    resolve_frontend_config,
)
from repro.serving.service import (
    AlignmentService,
    FoldInReport,
    ServiceStats,
    ServingError,
    ServingSnapshot,
    Ticket,
)

__all__ = [
    "AlignmentService",
    "BackpressureError",
    "FoldInReport",
    "FrontendConfig",
    "ServiceStats",
    "ServingError",
    "ServingFrontend",
    "ServingSnapshot",
    "Ticket",
    "resolve_frontend_config",
    "serve",
]
