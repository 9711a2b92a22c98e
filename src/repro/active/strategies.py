"""Element pair selection strategies.

``DAAKGStrategy`` is the paper's proposal (expected inference power, greedy or
partition-based).  The others are the competitors of Figure 5: Random, Degree,
PageRank, Uncertainty and an ActiveEA-style structural uncertainty strategy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.active.pool import ElementPairPool
from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.active.partition import PartitionSelectionConfig, partition_select
from repro.alignment.model import JointAlignmentModel
from repro.inference.alignment_graph import AlignmentGraph
from repro.inference.power import InferencePowerEstimator
from repro.kg.elements import ElementKind
from repro.kg.statistics import entity_pagerank

_KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)


@dataclass
class SelectionState:
    """Everything a strategy may need to rank the unlabelled pool.

    Pairs are pool ids: ``candidates`` lists the unlabelled ones in ascending
    order, and ``probabilities`` holds the calibrated match probability of
    every pool pair, indexed by id.
    """

    pool: ElementPairPool
    candidates: np.ndarray
    probabilities: np.ndarray
    model: JointAlignmentModel
    graph: AlignmentGraph | None = None
    estimator: InferencePowerEstimator | None = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def candidate_sides(self):
        """``(kind, lefts, rights)`` of the candidates, kind by kind in id order."""
        pool = self.pool
        bounds = np.searchsorted(
            self.candidates, [pool.offset(ElementKind.RELATION), pool.offset(ElementKind.CLASS)]
        )
        for kind, ids in zip(_KINDS, np.split(self.candidates, bounds)):
            sides = pool.sides(kind)[ids - pool.offset(kind)]
            yield kind, sides[:, 0], sides[:, 1]


class SelectionStrategy:
    """Base class: rank the unlabelled pool and return the ids of the best batch."""

    name = "base"
    requires_inference = False

    def select(self, state: SelectionState, batch_size: int) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _top_by_score(ids: np.ndarray, scores: np.ndarray, batch_size: int) -> np.ndarray:
        order = np.argsort(-np.asarray(scores, dtype=float))
        return ids[order[:batch_size]]


class RandomStrategy(SelectionStrategy):
    """Uniformly random unlabelled pairs (the training-set construction default)."""

    name = "random"

    def select(self, state: SelectionState, batch_size: int) -> np.ndarray:
        if not state.candidates.size:
            return state.candidates
        count = min(batch_size, state.candidates.size)
        chosen = state.rng.choice(state.candidates.size, size=count, replace=False)
        return state.candidates[chosen]


class DegreeStrategy(SelectionStrategy):
    """Pairs whose elements have the largest combined degree."""

    name = "degree"

    def select(self, state: SelectionState, batch_size: int) -> np.ndarray:
        kg1, kg2 = state.model.kg1, state.model.kg2
        scores = []
        for kind, lefts, rights in state.candidate_sides():
            if kind is ElementKind.ENTITY:
                degree_1 = np.diff(kg1.out_ptr) + np.diff(kg1.in_ptr)
                degree_2 = np.diff(kg2.out_ptr) + np.diff(kg2.in_ptr)
                score = degree_1[lefts] + degree_2[rights]
            elif kind is ElementKind.RELATION:
                score = np.diff(kg1.relation_ptr)[lefts] + np.diff(kg2.relation_ptr)[rights]
            else:
                score = np.diff(kg1.member_ptr)[lefts] + np.diff(kg2.member_ptr)[rights]
            scores.append(score.astype(float))
        return self._top_by_score(state.candidates, np.concatenate(scores), batch_size)


class PageRankStrategy(SelectionStrategy):
    """Pairs whose entities have the highest PageRank (schema pairs by usage)."""

    name = "pagerank"

    def __init__(self) -> None:
        # held by weak reference: a model's entry dies with it, so a later
        # model that reuses its id() never reads its scores
        self._cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _scores(self, state: SelectionState) -> tuple[np.ndarray, np.ndarray]:
        model = state.model
        if model not in self._cache:
            self._cache[model] = (entity_pagerank(model.kg1), entity_pagerank(model.kg2))
        return self._cache[model]

    def select(self, state: SelectionState, batch_size: int) -> np.ndarray:
        pr1, pr2 = self._scores(state)
        kg1, kg2 = state.model.kg1, state.model.kg2
        scores = []
        for kind, lefts, rights in state.candidate_sides():
            if kind is ElementKind.ENTITY:
                score = pr1[lefts] + pr2[rights]
            elif kind is ElementKind.RELATION:
                uses = np.diff(kg1.relation_ptr)[lefts] + np.diff(kg2.relation_ptr)[rights]
                score = uses / max(kg1.num_triples + kg2.num_triples, 1)
            else:
                members = np.diff(kg1.member_ptr)[lefts] + np.diff(kg2.member_ptr)[rights]
                score = members / max(kg1.num_entities + kg2.num_entities, 1)
            scores.append(score.astype(float))
        return self._top_by_score(state.candidates, np.concatenate(scores), batch_size)


def _entropies(state: SelectionState) -> np.ndarray:
    """Binary entropy of each candidate's match probability, in order."""
    p = np.clip(state.probabilities[state.candidates], 1e-9, 1.0 - 1e-9)
    return -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)


class UncertaintyStrategy(SelectionStrategy):
    """Pairs with the most uncertain calibrated match probability."""

    name = "uncertainty"

    def select(self, state: SelectionState, batch_size: int) -> np.ndarray:
        return self._top_by_score(state.candidates, _entropies(state), batch_size)


class ActiveEAStrategy(SelectionStrategy):
    """ActiveEA-style structural uncertainty: own entropy plus neighbours' entropy.

    The original method scores *entities* by their uncertainty and the expected
    uncertainty reduction over their KG neighbours; here the same idea is
    applied to entity pairs through the KG1 neighbourhood.
    """

    name = "activeea"
    neighbour_weight = 0.5

    def select(self, state: SelectionState, batch_size: int) -> np.ndarray:
        kg1 = state.model.kg1
        entropy = _entropies(state)
        scores = entropy.tolist()
        # entity candidates hold the lowest ids, so they come first
        lefts = next(state.candidate_sides())[1].tolist()
        by_left: dict[int, list[float]] = {}
        for left, value in zip(lefts, scores):
            by_left.setdefault(left, []).append(value)
        for position, left in enumerate(lefts):
            neighbours = [value for n in kg1.neighbors(left) for value in by_left.get(n, [])]
            if neighbours:
                scores[position] += self.neighbour_weight * float(np.mean(neighbours))
        return self._top_by_score(state.candidates, scores, batch_size)


class DAAKGStrategy(SelectionStrategy):
    """The paper's batch selection: maximise expected overall inference power."""

    name = "daakg"
    requires_inference = True

    def __init__(
        self,
        algorithm: str = "greedy",
        selection_config: GreedySelectionConfig | None = None,
        partition_config: PartitionSelectionConfig | None = None,
    ) -> None:
        if algorithm not in ("greedy", "partition"):
            raise ValueError("algorithm must be 'greedy' or 'partition'")
        self.algorithm = algorithm
        self.selection_config = selection_config or GreedySelectionConfig()
        self.partition_config = partition_config or PartitionSelectionConfig()

    def select(self, state: SelectionState, batch_size: int) -> np.ndarray:
        if state.estimator is None or state.graph is None:
            raise RuntimeError("DAAKGStrategy needs the alignment graph and power estimator")
        if self.algorithm == "partition":
            return partition_select(
                state.candidates,
                state.probabilities,
                state.graph,
                state.estimator,
                batch_size,
                selection_config=self.selection_config,
                partition_config=self.partition_config,
                rng=state.rng,
            )
        return greedy_select(
            state.candidates,
            state.probabilities,
            state.estimator.reachable_power,
            batch_size,
            self.selection_config,
            rng=state.rng,
        )


STRATEGY_REGISTRY = {
    "random": RandomStrategy,
    "degree": DegreeStrategy,
    "pagerank": PageRankStrategy,
    "uncertainty": UncertaintyStrategy,
    "activeea": ActiveEAStrategy,
    "daakg": DAAKGStrategy,
}


def create_strategy(name: str, **kwargs) -> SelectionStrategy:
    """Instantiate a registered strategy by name (case-insensitive)."""
    key = name.lower()
    if key not in STRATEGY_REGISTRY:
        raise KeyError(f"unknown strategy {name!r}; available: {sorted(STRATEGY_REGISTRY)}")
    return STRATEGY_REGISTRY[key](**kwargs)
