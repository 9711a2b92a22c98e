"""Greedy element pair selection (Algorithm 1).

The objective is the expected overall inference power of the selected batch
(Eq. 28).  The expectation over which selected pairs turn out to be matches is
approximated with Monte-Carlo samples of the match indicator vector drawn from
the calibrated alignment probabilities; because the objective is increasing
and sub-modular (Theorem 6.1), greedy selection keeps the
``(1 − 1/e)``-approximation guarantee up to the sampling error.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro.inference.alignment_graph import PairValues
from repro.inference.pairs import ElementPair
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, ensure_rng

logger = get_logger(__name__)

# A "reach function" maps a candidate pair to {inferable pair: inference power}.
ReachFunction = Callable[[ElementPair], Mapping[ElementPair, float]]

#: Added to every candidate's expected gain, so the objective stays strictly
#: increasing and ties are broken by probability, as in the uncertainty
#: fallback.
BASE_GAIN = 1e-3


@dataclass(frozen=True)
class GreedySelectionConfig:
    """Parameters of the greedy batch selection."""

    batch_size: int = 100
    power_threshold: float = 0.8
    num_samples: int = 8
    candidate_limit: int | None = 2000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not 0.0 <= self.power_threshold <= 1.0:
            raise ValueError("power_threshold must be in [0, 1]")


def greedy_select(
    candidates: list[ElementPair],
    probabilities: dict[ElementPair, float],
    reach: ReachFunction,
    config: GreedySelectionConfig | None = None,
    rng: RandomState = None,
) -> list[ElementPair]:
    """Select a batch maximising expected overall inference power (Algorithm 1).

    Parameters
    ----------
    candidates:
        Unlabelled pool pairs eligible for selection.
    probabilities:
        Calibrated match probabilities ``Pr[y*(q) = 1]`` per pair (Eq. 12).
    reach:
        Function returning ``I(q' | q)`` for the pairs each candidate can infer
        (typically ``InferencePowerEstimator.reachable_power``).

    Candidates are ranked by probability (descending, input order among
    equals); among equal gains the lower rank wins.  Each candidate's reach is
    evaluated once, in rank order.
    """
    config = config or GreedySelectionConfig()
    rng = ensure_rng(rng)
    if not candidates:
        return []

    ranked = sorted(candidates, key=lambda q: -probabilities.get(q, 0.0))
    if config.candidate_limit is not None and len(ranked) > config.candidate_limit:
        ranked = ranked[: config.candidate_limit]

    with obs.span("active.greedy.reach", candidates=len(ranked)):
        reachable, width = _thresholded_reach(ranked, reach, config.power_threshold)
    with obs.span("active.greedy.loop"):
        picks = _lazy_greedy(
            [probabilities.get(q, 0.0) for q in ranked], reachable, width, config, rng
        )
    logger.debug("greedy selection picked %d pairs", len(picks))
    return [ranked[i] for i in picks]


def _thresholded_reach(
    ranked: list[ElementPair], reach: ReachFunction, threshold: float
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """Each candidate's reach above ``threshold`` as ``(target ids, powers)``.

    Targets keep the reach mapping's order.  Reaches that share one
    alignment graph keep its pair ids; any other mapping has its targets
    numbered on first sight.  Returns the arrays and the id-space width.
    """
    results = [reach(candidate) for candidate in ranked]
    graph = getattr(results[0], "graph", None)
    if all(isinstance(r, PairValues) and r.graph is graph for r in results):
        reachable = []
        for result in results:
            keep = result.data > threshold
            reachable.append((result.ids[keep], result.data[keep]))
        return reachable, len(graph.all_pairs)
    index: dict[ElementPair, int] = {}
    reachable = []
    for result in results:
        kept = [(target, value) for target, value in result.items() if value > threshold]
        ids = [index.setdefault(target, len(index)) for target, _ in kept]
        reachable.append(
            (np.array(ids, dtype=np.int64), np.array([v for _, v in kept], dtype=np.float64))
        )
    return reachable, len(index)


def _lazy_greedy(
    probabilities: list[float],
    reachable: list[tuple[np.ndarray, np.ndarray]],
    width: int,
    config: GreedySelectionConfig,
    rng: np.random.Generator,
) -> list[int]:
    """Greedy picks (as ranks) by lazy evaluation (CELF, Leskovec et al. 2007).

    The Monte-Carlo state is an ``(S, width)`` array of the best power each
    sample has reached per target.  A gain only falls as picks raise that
    state, so a gain computed in an earlier round bounds the current one: the
    heap, keyed by ``(-gain, rank)``, re-evaluates only candidates that reach
    its top with a stale gain, and pops the same argmax as a full rescan.
    Gains add their terms in sample-then-target order, one at a time.
    """
    num_samples = config.num_samples
    best = np.zeros((num_samples, width))

    def gain(rank: int) -> float:
        probability = probabilities[rank]
        ids, values = reachable[rank]
        if not ids.size:
            return probability * BASE_GAIN
        current = best[:, ids]
        terms = np.where(values > current, values - current, 0.0)
        total = float(np.cumsum(terms)[-1])
        return probability * (total / num_samples + BASE_GAIN)

    heap = [(-gain(rank), rank, 0) for rank in range(len(probabilities))]
    heapq.heapify(heap)
    picks: list[int] = []
    for round_index in range(min(config.batch_size, len(probabilities))):
        while heap[0][2] != round_index:
            rank = heap[0][1]
            heapq.heapreplace(heap, (-gain(rank), rank, round_index))
        rank = heapq.heappop(heap)[1]
        picks.append(rank)
        ids, values = reachable[rank]
        for sample in range(num_samples):
            if rng.random() < probabilities[rank] and ids.size:
                best[sample, ids] = np.maximum(best[sample, ids], values)
    return picks


def expected_overall_power(
    selected: list[ElementPair],
    probabilities: dict[ElementPair, float],
    reach: ReachFunction,
    power_threshold: float = 0.8,
    num_samples: int = 16,
    rng: RandomState = None,
) -> float:
    """Monte-Carlo estimate of ``E[I(P | Q+)]`` for a selected batch (Eq. 27).

    Used by the Figure 7 benchmark to compare the quality of Algorithm 1 and
    Algorithm 2 solutions.
    """
    rng = ensure_rng(rng)
    reachable = {q: reach(q) for q in selected}
    total = 0.0
    for _ in range(num_samples):
        best: dict[ElementPair, float] = {}
        for q in selected:
            if rng.random() >= probabilities.get(q, 0.0):
                continue
            for target, value in reachable[q].items():
                if value > best.get(target, 0.0):
                    best[target] = value
        total += sum(value for value in best.values() if value > power_threshold)
    return total / num_samples
