"""The traced run: spans around the public calls of each layer.

Only ``--trace 1`` installs these wrappers; the end-to-end numbers come from
runs without them.  Spans are kept in memory (name, start, end, parent, run
id, thread) and written out when the command ends.  A layer's *self* time is
its span durations minus the part of each interval covered by its child
spans, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered(children[span.id], span.start, span.end)
        for span in spans
    }


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, parent, time.perf_counter())

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, name, parent, start = token
        self._stack().pop()
        span = Span(span_id, name, start, end, parent, self.run, threading.get_ident())
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[f"{self.run}:{name}"] += amount

    # ----------------------------------------------------------- reporting
    def layer_seconds(self, run: str) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name within one run id."""
        spans = [s for s in self.spans if s.run == run]
        own = self_times(spans)
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in spans:
            seconds[span.name] += own[span.id]
            calls[span.name] += 1
        return seconds, calls

    def counted(self, run: str, name: str) -> float:
        return self.counts.get(f"{run}:{name}", 0.0)

    def top_level_cover(self, run: str, busy: list[tuple[float, float]], thread: int) -> float:
        """Share of the ``busy`` intervals covered by root spans on ``thread``."""
        roots = [
            (s.start, s.end)
            for s in self.spans
            if s.run == run and s.parent is None and s.thread == thread
        ]
        total = sum(hi - lo for lo, hi in busy)
        return sum(covered(roots, lo, hi) for lo, hi in busy) / total if total else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    # ------------------------------------------------------------- wrappers
    def traced(self, fn, name: str, after=None):
        """``fn`` inside a span ``name``; ``after(args, result)`` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_function(self, module: str, attr: str, name: str, after=None) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.traced(original, name, after)
        for module_name, loaded in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and getattr(loaded, attr, None) is original:
                self.patch(loaded, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        method = cls.__dict__[attr]
        if isinstance(method, classmethod):
            wrapped = classmethod(self.traced(method.__func__, name, after))
        else:
            wrapped = self.traced(method, name, after)
        self.patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def span_cost(repeats: int = 20000) -> float:
    """Seconds one begin/end pair costs, measured on a scratch tracer."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(repeats):
        probe.end(probe.begin("probe"))
    return (time.perf_counter() - start) / repeats


def counting_memo_hits(method, memo: str, count, name: str):
    """``method`` counting ``<name>_calls``, and ``<name>_hits``: the calls
    that did not grow the instance's memo dict ``memo``."""

    @functools.wraps(method)
    def counted(self, *args, **kwargs):
        before = len(getattr(self, memo))
        value = method(self, *args, **kwargs)
        count(f"{name}_calls")
        if len(getattr(self, memo)) == before:
            count(f"{name}_hits")
        return value

    return counted


def _import_all_repro() -> None:
    """Import every ``repro`` module so later name bindings can be found."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install(tracer: Tracer) -> None:
    """Wrap the public call of every layer in the per-layer table."""
    _import_all_repro()
    from repro.active.campaign import PartitionedCampaign
    from repro.active.oracle import Oracle
    from repro.alignment.calibration import AlignmentCalibrator
    from repro.alignment.trainer import JointAlignmentTrainer
    from repro.autograd.tensor import Tensor
    from repro.embedding.trainer import KGEmbeddingTrainer
    from repro.inference.power import InferencePowerEstimator
    from repro.kg.pair import AlignedKGPair
    from repro.nn.optim import SGD, Adam
    from repro.runtime.views import AnnView, SimilarityView
    from repro.serving.service import AlignmentService, ServingSnapshot

    count = tracer.count

    tracer.patch_method(KGEmbeddingTrainer, "train", "embedding.pretrain")
    tracer.patch_method(JointAlignmentTrainer, "train", "alignment.train")
    tracer.patch_method(JointAlignmentTrainer, "fine_tune", "alignment.fine_tune")
    tracer.patch_method(Tensor, "backward", "autograd.backward")
    tracer.patch_method(Adam, "step", "nn.step")
    tracer.patch_method(SGD, "step", "nn.step")
    tracer.patch_function(
        "repro.alignment.evaluation", "evaluate_alignment_from_engine", "alignment.evaluate"
    )
    tracer.patch_method(
        AlignmentCalibrator, "pair_probabilities_from_engine", "alignment.calibrate"
    )
    tracer.patch_function("repro.active.pool", "build_pool", "active.pool")
    tracer.patch_function(
        "repro.inference.alignment_graph", "build_alignment_graph", "inference.graph",
        after=lambda args, graph: count("inference.graph_edges", len(graph.edges)),
    )
    tracer.patch_method(InferencePowerEstimator, "reachable_power", "inference.reach")
    tracer.patch_function("repro.active.selection", "greedy_select", "active.greedy")
    tracer.patch_function(
        "repro.active.partition", "partition_pool", "active.partition",
        after=lambda args, groups: count("active.partition_groups", len(set(groups.values()))),
    )

    # edge_power runs per alignment-graph edge: count only, no span
    tracer.patch(InferencePowerEstimator, "edge_power", counting_memo_hits(
        InferencePowerEstimator.__dict__["edge_power"], "_edge_power_cache", count,
        "inference.edge_power",
    ))

    def count_answers(args, answers):
        count("active.labels", len(answers))
        count("active.matches", sum(1 for _, is_match in answers if is_match))

    tracer.patch_method(Oracle, "label_batch", "active.oracle", after=count_answers)

    def count_rows(args, result):
        count("serving.top_k_rows", len(args[1]))

    tracer.patch_method(AlignmentService, "top_k_alignments", "serving.top_k", after=count_rows)
    tracer.patch_method(AlignmentService, "score_pairs", "serving.score")
    tracer.patch_method(ServingSnapshot, "from_campaign", "serving.snapshot")
    tracer.patch_method(AlignmentService, "hot_swap", "serving.hot_swap")
    tracer.patch_method(AlignmentService, "apply_delta", "serving.fold")
    tracer.patch_method(SimilarityView, "top_k_for_rows", "runtime.view_top_k")
    tracer.patch_method(AnnView, "top_k_for_rows", "runtime.view_top_k")

    tracer.patch_function("repro.updates.routing", "route_delta", "updates.route")
    tracer.patch_method(AlignedKGPair, "apply_delta", "kg.apply_delta")
    tracer.patch_function("repro.runtime.executor", "run_piece_spec", "runtime.piece")
    tracer.patch_function("repro.updates.warm_start", "warm_start_pipeline", "updates.warm_start")
    tracer.patch_function("repro.persistence.checkpoint", "save_checkpoint", "persistence.save")
    tracer.patch_function("repro.persistence.checkpoint", "load_checkpoint", "persistence.load")
    tracer.patch_method(PartitionedCampaign, "merged_state", "runtime.merge")
    tracer.patch_function("repro.kg.partition", "partition_pair", "kg.partition")
