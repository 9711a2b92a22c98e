"""Greedy element pair selection (Algorithm 1).

The objective is the expected overall inference power of the selected batch
(Eq. 28).  The expectation over which selected pairs turn out to be matches is
approximated with Monte-Carlo samples of the match indicator vector drawn from
the calibrated alignment probabilities; because the objective is increasing
and sub-modular (Theorem 6.1), greedy selection keeps the
``(1 − 1/e)``-approximation guarantee up to the sampling error.

Pairs are pool ids (positions in the pool, entity pairs first); probabilities
are one array indexed by pool id.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.inference.alignment_graph import PairValues
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, ensure_rng

logger = get_logger(__name__)

#: Added to every candidate's expected gain, so the objective stays strictly
#: increasing and ties are broken by probability, as in the uncertainty
#: fallback.
BASE_GAIN = 1e-3


#: Monte-Carlo samples of the match indicator vector behind each greedy gain.
NUM_SAMPLES = 8


@dataclass(frozen=True)
class GreedySelectionConfig:
    """Parameters of the greedy batch selection; the batch size is the
    caller's (the active loop's ``batch_size``)."""

    power_threshold: float = 0.8
    candidate_limit: int | None = 2000

    def __post_init__(self) -> None:
        if not 0.0 <= self.power_threshold <= 1.0:
            raise ValueError("power_threshold must be in [0, 1]")
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise ValueError("candidate_limit must be None or >= 1")


def greedy_select(
    candidates: np.ndarray,
    probabilities: np.ndarray,
    reach: Callable[[np.ndarray], PairValues],
    batch_size: int,
    config: GreedySelectionConfig | None = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Select a batch of at most ``batch_size`` ids maximising expected overall
    inference power (Algorithm 1).

    Parameters
    ----------
    candidates:
        Ids of the unlabelled pool pairs eligible for selection.
    probabilities:
        Calibrated match probability ``Pr[y*(q) = 1]`` of every pool pair,
        indexed by id (Eq. 12).
    reach:
        Function returning the reach table ``I(q' | q)`` of an array of
        candidates, one row per candidate (typically
        ``InferencePowerEstimator.reachable_power``).  A row may omit
        entries at or below ``config.power_threshold``: the gains read none.

    Candidates are ranked by probability (descending, input order among
    equals); among equal gains the lower rank wins.  ``reach`` is called once,
    on the ranked candidates.  Returns the picked ids in pick order, and
    records each pick as an ``active.select.pick`` event.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    config = config or GreedySelectionConfig()
    rng = ensure_rng(rng)
    candidates = np.asarray(candidates, dtype=np.int64)
    if not candidates.size:
        return candidates

    ranked = candidates[np.argsort(-probabilities[candidates], kind="stable")]
    if config.candidate_limit is not None:
        ranked = ranked[: config.candidate_limit]

    with obs.span("active.greedy.reach", candidates=len(ranked)):
        table = reach(ranked)
        kept = np.flatnonzero(table.data > config.power_threshold)
        ids, values = table.ids[kept], table.data[kept]
        ends = np.searchsorted(kept, table.ptr).tolist()
        reachable = [(ids[lo:hi], values[lo:hi]) for lo, hi in zip(ends, ends[1:])]
    with obs.span("active.greedy.loop"):
        picks, gains = _lazy_greedy(
            probabilities[ranked].tolist(), reachable, len(probabilities), batch_size, rng
        )
    logger.debug("greedy selection picked %d pairs", len(picks))
    batch = ranked[picks]
    if obs.enabled():
        # why each pair was picked; the object behind ``reach`` knows the kinds
        owner = getattr(reach, "__self__", reach)
        graph = getattr(owner, "graph", None)
        for pair, gain in zip(batch.tolist(), gains):
            obs.event(
                "active.select.pick", pair=pair, probability=float(probabilities[pair]),
                gain=gain, algorithm=getattr(owner, "algorithm", "greedy"),
                kind=None if graph is None else graph.kind_of(pair).value,
            )
    return batch


def _lazy_greedy(
    probabilities: list[float],
    reachable: list[tuple[np.ndarray, np.ndarray]],
    width: int,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[list[int], list[float]]:
    """Greedy picks (as ranks) and their gains by lazy evaluation (CELF, Leskovec et al. 2007).

    The Monte-Carlo state is an ``(S, width)`` array of the best power each
    sample has reached per target.  A gain only falls as picks raise that
    state, so a gain computed in an earlier round bounds the current one: the
    heap, keyed by ``(-gain, rank)``, re-evaluates only candidates that reach
    its top with a stale gain, and pops the same argmax as a full rescan.
    Gains add their terms in sample-then-target order, one at a time.
    """
    best = np.zeros((NUM_SAMPLES, width))

    def gain(rank: int) -> float:
        probability = probabilities[rank]
        ids, values = reachable[rank]
        if not ids.size:
            return probability * BASE_GAIN
        current = best[:, ids]
        terms = np.where(values > current, values - current, 0.0)
        total = float(np.cumsum(terms)[-1])
        return probability * (total / NUM_SAMPLES + BASE_GAIN)

    heap = [(-gain(rank), rank, 0) for rank in range(len(probabilities))]
    heapq.heapify(heap)
    picks: list[int] = []
    gains: list[float] = []
    for round_index in range(min(batch_size, len(probabilities))):
        while heap[0][2] != round_index:
            rank = heap[0][1]
            heapq.heapreplace(heap, (-gain(rank), rank, round_index))
        negative_gain, rank, _ = heapq.heappop(heap)
        picks.append(rank)
        gains.append(-negative_gain)
        ids, values = reachable[rank]
        for sample in range(NUM_SAMPLES):
            if rng.random() < probabilities[rank] and ids.size:
                best[sample, ids] = np.maximum(best[sample, ids], values)
    return picks, gains


def expected_overall_power(
    selected: np.ndarray,
    probabilities: np.ndarray,
    reach: Callable[[np.ndarray], PairValues],
    power_threshold: float,
    num_samples: int = 16,
    rng: RandomState = None,
) -> float:
    """Monte-Carlo estimate of ``E[I(P | Q+)]`` for a selected batch of ids (Eq. 27).

    Used by the Figure 7 benchmark to compare the quality of Algorithm 1 and
    Algorithm 2 solutions.
    """
    rng = ensure_rng(rng)
    selected = np.asarray(selected, dtype=np.int64)
    table = reach(selected)
    row = np.repeat(np.arange(selected.size), np.diff(table.ptr))
    total = 0.0
    for _ in range(num_samples):
        # one draw per selected pair, in order, as separate scalar draws would be
        matched = rng.random(selected.size) < probabilities[selected]
        best = table.best(matched[row])
        total += sum(value for value in best.values() if value > power_threshold)
    return total / num_samples
