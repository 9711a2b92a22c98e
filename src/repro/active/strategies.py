"""Element pair selection strategies.

``DAAKGStrategy`` is the paper's proposal (expected inference power, greedy or
partition-based).  The others are the competitors of Figure 5: Random, Degree,
PageRank, Uncertainty and an ActiveEA-style structural uncertainty strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.active.pool import ElementPairPool
from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.active.partition import PartitionSelectionConfig, partition_select
from repro.alignment.model import JointAlignmentModel
from repro.inference.alignment_graph import AlignmentGraph
from repro.inference.pairs import ElementPair
from repro.inference.power import InferencePowerEstimator
from repro.kg.elements import ElementKind
from repro.kg.statistics import entity_pagerank


@dataclass
class SelectionState:
    """Everything a strategy may need to rank the unlabelled pool."""

    pool: ElementPairPool
    unlabelled: list[ElementPair]
    probabilities: dict[ElementPair, float]
    model: JointAlignmentModel
    graph: AlignmentGraph | None = None
    estimator: InferencePowerEstimator | None = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


class SelectionStrategy:
    """Base class: rank the unlabelled pool and return the best batch."""

    name = "base"
    requires_inference = False

    def select(self, state: SelectionState, batch_size: int) -> list[ElementPair]:
        raise NotImplementedError

    @staticmethod
    def _top_by_score(
        pairs: Sequence[ElementPair], scores: Sequence[float], batch_size: int
    ) -> list[ElementPair]:
        order = np.argsort(-np.asarray(scores, dtype=float))
        return [pairs[int(i)] for i in order[:batch_size]]


class RandomStrategy(SelectionStrategy):
    """Uniformly random unlabelled pairs (the training-set construction default)."""

    name = "random"

    def select(self, state: SelectionState, batch_size: int) -> list[ElementPair]:
        if not state.unlabelled:
            return []
        count = min(batch_size, len(state.unlabelled))
        chosen = state.rng.choice(len(state.unlabelled), size=count, replace=False)
        return [state.unlabelled[int(i)] for i in chosen]


class DegreeStrategy(SelectionStrategy):
    """Pairs whose elements have the largest combined degree."""

    name = "degree"

    def select(self, state: SelectionState, batch_size: int) -> list[ElementPair]:
        kg1, kg2 = state.model.kg1, state.model.kg2
        scores = []
        for pair in state.unlabelled:
            if pair.kind is ElementKind.ENTITY:
                score = kg1.entity_degree(pair.left) + kg2.entity_degree(pair.right)
            elif pair.kind is ElementKind.RELATION:
                score = len(kg1.triples_of_relation(pair.left)) + len(kg2.triples_of_relation(pair.right))
            else:
                score = len(kg1.entities_of_class(pair.left)) + len(kg2.entities_of_class(pair.right))
            scores.append(float(score))
        return self._top_by_score(state.unlabelled, scores, batch_size)


class PageRankStrategy(SelectionStrategy):
    """Pairs whose entities have the highest PageRank (schema pairs by usage)."""

    name = "pagerank"

    def __init__(self) -> None:
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _scores(self, state: SelectionState) -> tuple[np.ndarray, np.ndarray]:
        key = id(state.model)
        if key not in self._cache:
            self._cache[key] = (
                entity_pagerank(state.model.kg1),
                entity_pagerank(state.model.kg2),
            )
        return self._cache[key]

    def select(self, state: SelectionState, batch_size: int) -> list[ElementPair]:
        pr1, pr2 = self._scores(state)
        kg1, kg2 = state.model.kg1, state.model.kg2
        scores = []
        for pair in state.unlabelled:
            if pair.kind is ElementKind.ENTITY:
                score = pr1[pair.left] + pr2[pair.right]
            elif pair.kind is ElementKind.RELATION:
                score = (len(kg1.triples_of_relation(pair.left)) + len(kg2.triples_of_relation(pair.right))) / max(
                    kg1.num_triples + kg2.num_triples, 1
                )
            else:
                score = (len(kg1.entities_of_class(pair.left)) + len(kg2.entities_of_class(pair.right))) / max(
                    kg1.num_entities + kg2.num_entities, 1
                )
            scores.append(float(score))
        return self._top_by_score(state.unlabelled, scores, batch_size)


def _entropies(state: SelectionState) -> np.ndarray:
    """Binary entropy of each unlabelled pair's match probability, in order."""
    p = np.fromiter(
        (state.probabilities.get(pair, 0.0) for pair in state.unlabelled),
        dtype=float,
        count=len(state.unlabelled),
    )
    p = np.clip(p, 1e-9, 1.0 - 1e-9)
    return -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)


class UncertaintyStrategy(SelectionStrategy):
    """Pairs with the most uncertain calibrated match probability."""

    name = "uncertainty"

    def select(self, state: SelectionState, batch_size: int) -> list[ElementPair]:
        return self._top_by_score(state.unlabelled, _entropies(state), batch_size)


class ActiveEAStrategy(SelectionStrategy):
    """ActiveEA-style structural uncertainty: own entropy plus neighbours' entropy.

    The original method scores *entities* by their uncertainty and the expected
    uncertainty reduction over their KG neighbours; here the same idea is
    applied to entity pairs through the KG1 neighbourhood.
    """

    name = "activeea"
    neighbour_weight = 0.5

    def select(self, state: SelectionState, batch_size: int) -> list[ElementPair]:
        kg1 = state.model.kg1
        entropy = dict(zip(state.unlabelled, _entropies(state).tolist()))
        by_left: dict[int, list[ElementPair]] = {}
        for pair in state.unlabelled:
            if pair.kind is ElementKind.ENTITY:
                by_left.setdefault(pair.left, []).append(pair)
        scores = []
        for pair in state.unlabelled:
            score = entropy[pair]
            if pair.kind is ElementKind.ENTITY:
                neighbour_pairs = [
                    q for n in kg1.neighbors(pair.left) for q in by_left.get(n, [])
                ]
                if neighbour_pairs:
                    score += self.neighbour_weight * float(
                        np.mean([entropy[q] for q in neighbour_pairs])
                    )
            scores.append(score)
        return self._top_by_score(state.unlabelled, scores, batch_size)


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

    def select(self, state: SelectionState, batch_size: int) -> list[ElementPair]:
        if state.estimator is None or state.graph is None:
            raise RuntimeError("DAAKGStrategy needs the alignment graph and power estimator")
        from dataclasses import replace

        config = replace(self.selection_config, batch_size=batch_size)
        if self.algorithm == "partition":
            return partition_select(
                state.unlabelled,
                state.probabilities,
                state.graph,
                state.estimator,
                selection_config=config,
                partition_config=self.partition_config,
                rng=state.rng,
            )
        return greedy_select(
            state.unlabelled,
            state.probabilities,
            state.estimator.reachable_power,
            config,
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
