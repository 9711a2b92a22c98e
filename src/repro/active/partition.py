"""Graph partitioning-based selection (Algorithm 2).

Computing the reachable set of every candidate with bounded-depth path search
(the brute-force step of Algorithm 1) dominates the selection cost.  The
partitioning algorithm first groups element pairs so that, for every pair, at
most a ``1 − ρ`` fraction of its outgoing edge power stays inside its own
group; the estimated inference power is then computed on the much smaller
quotient graph (partitions as super-nodes), and the greedy selection of
Algorithm 1 runs with that estimate.  Theorem 6.2 gives the resulting
``ρ^μ (1 − 1/e)`` approximation guarantee.

Everything runs on the alignment graph's id arrays.  Per-pair inner and outer
power and per-relation split power are ``np.bincount`` sums over edges in CSR
order, which add in the same sequence as a loop over each group's members and
their out-edges would, so group labels do not depend on floating-point
reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.inference.alignment_graph import (
    AlignmentGraph,
    PairValues,
    expand_ranges,
    first_per_key,
    ranges,
    relax,
)
from repro.inference.power import MIN_POWER, InferencePowerEstimator
from repro.kg.graph import csr_index
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

logger = get_logger(__name__)


@dataclass(frozen=True)
class PartitionSelectionConfig:
    """Parameters of Algorithm 2."""

    rho: float = 0.9
    max_partitions: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.max_partitions < 1:
            raise ValueError("max_partitions must be >= 1")


def partition_pool(
    graph: AlignmentGraph,
    estimator: InferencePowerEstimator,
    config: PartitionSelectionConfig | None = None,
) -> PairValues:
    """Split entity pairs into groups following Algorithm 2's refinement loop.

    Returns the partition label (``data``) of every entity pair id (``ids``).
    Pairs with no edges keep partition 0.
    """
    config = config or PartitionSelectionConfig()
    with obs.span("active.partition.refine", pairs=graph.relation_offset):
        labels = _refine(graph, estimator.edge_powers(), config)
    num_groups = int(labels.max()) + 1 if labels.size else 1
    logger.debug("partitioned %d entity pairs into %d groups", labels.size, num_groups)
    return PairValues(np.arange(labels.size), labels)


def _refine(
    graph: AlignmentGraph, power: np.ndarray, config: PartitionSelectionConfig
) -> np.ndarray:
    """Partition labels per entity id.

    Each round examines the groups created or shrunk by the previous round,
    in the order of their first member; a group that was examined and left
    whole gives the same answer every later round, so it is not revisited.
    """
    num_pairs = graph.relation_offset  # entity pairs hold the ids below it
    labels = np.zeros(num_pairs, dtype=np.int64)
    if num_pairs == 0:
        return labels
    source, relation, target = graph.edges.T
    # parallel edges between one source and target all count with the
    # strongest power among them
    links, parallel = np.unique(source * num_pairs + target, return_inverse=True)
    strongest = np.zeros(links.size)
    np.maximum.at(strongest, parallel, power)
    power = strongest[parallel]

    num_groups = 1
    pending = [0]
    while pending and num_groups < config.max_partitions:
        first_member = np.full(num_groups, num_pairs)
        np.minimum.at(first_member, labels, np.arange(num_pairs))
        pending.sort(key=lambda group: first_member[group])
        examined = np.zeros(num_groups, dtype=bool)
        examined[pending] = True
        edges = np.flatnonzero(examined[labels[source]])
        group = labels[source[edges]]
        inner = group == labels[target[edges]]
        weights = power[edges]
        inner_power = np.bincount(source[edges], np.where(inner, weights, 0.0), num_pairs)
        outer_power = np.bincount(source[edges], np.where(inner, 0.0, weights), num_pairs)
        total = inner_power + outer_power
        ratio = np.ones(num_pairs)
        np.divide(outer_power, total, out=ratio, where=total > 0)
        worst = np.ones(num_groups)
        np.minimum.at(worst, labels, ratio)
        size = np.bincount(labels, minlength=num_groups)
        # intra-group edges, grouped by group with CSR order kept inside
        inner_edges = edges[inner]
        inner_edges = inner_edges[np.argsort(group[inner], kind="stable")]
        inner_group = labels[source[inner_edges]]

        split: list[int] = []
        for g in pending:
            if size[g] <= 1 or worst[g] >= config.rho:
                continue
            lo, hi = np.searchsorted(inner_group, [g, g + 1])
            if lo == hi:
                continue
            chosen = inner_edges[lo:hi]
            # split on the relation pair carrying the most intra-group power;
            # ties go to the relation met first
            _, slot = np.unique(relation[chosen], return_inverse=True)
            relation_power = np.bincount(slot, power[chosen])
            first_best = np.argmax(relation_power[slot] == relation_power.max())
            moved = np.unique(source[chosen[slot == slot[first_best]]])
            if moved.size == size[g]:
                continue
            labels[moved] = num_groups
            split += [g, num_groups]
            num_groups += 1
            if num_groups >= config.max_partitions:
                break
        pending = split
    return labels


class _QuotientReach:
    """Algorithm 2's estimated reach over the quotient graph of a partition.

    A candidate's first hop follows its actual edges; further hops move
    between groups along the strongest inter-group edge, attenuating
    multiplicatively.  Every member of a reached group inherits the group's
    power; schema pairs keep their exact (cheap) gradient-based reach.
    Groups are listed in the order they are first reached, visiting a
    group's neighbours in the order their first edge was built.

    Only groups whose power exceeds ``floor`` (the selection's
    ``power_threshold``) are expanded into their members: the greedy gain
    reads no entry at or below it, and the kept entries keep their order.
    """

    algorithm = "partition"

    def __init__(
        self, graph: AlignmentGraph, estimator: InferencePowerEstimator, labels: np.ndarray,
        floor: float,
    ) -> None:
        self.graph = graph
        self.estimator = estimator
        self.power = estimator.edge_powers()
        num_groups = int(labels.max()) + 1 if labels.size else 1
        source, _, target = graph.edges.T
        left, right = labels[source], labels[target]
        cross = np.flatnonzero(left != right)
        # quotient edges: strongest power per (group, group), ordered by
        # source group and then by the first edge between the two
        link_source, link_target, strongest = first_per_key(
            left[cross], right[cross], self.power[cross], num_groups
        )
        self.quotient_ptr, order = csr_index(link_source, num_groups)
        self.quotient_target, self.quotient_power = link_target[order], strongest[order]
        self.member_ptr, self.members = csr_index(labels, num_groups)
        self.num_groups = num_groups
        self.labels = labels
        self.floor = floor

    def group_reach(self, sources: np.ndarray) -> PairValues:
        """Each entity id's reach: the members of its reached groups above
        the floor, groups in first-reached order."""
        with obs.span("active.partition.reach", sources=sources.size) as span:
            ptr = self.graph.out_ptr
            row, edge = expand_ranges(ptr[sources], ptr[sources + 1] - ptr[sources])
            # first hop: the strongest edge into each group, groups by first edge
            groups = self.labels[self.graph.edges[edge, 2]]
            first_hop = first_per_key(row, groups, self.power[edge], self.num_groups)
            rows, groups, values = relax(
                self.quotient_ptr, self.quotient_target, self.quotient_power, *first_hop,
                self.estimator.config.max_hops - 1, np.multiply, lambda power: power > MIN_POWER,
            )
            reached = rows.size
            # filtered after the relaxation, which may raise a group above the
            # floor in a later round than the one that first reached it
            kept = np.flatnonzero(values > self.floor)
            kept = kept[np.argsort(rows[kept], kind="stable")]
            rows, groups, values = rows[kept], groups[kept], values[kept]
            # every member of a kept group but the source itself
            ptr = self.member_ptr
            counts = ptr[groups + 1] - ptr[groups]
            ids = self.members[ranges(ptr[groups], counts)]
            ids = ids[ids != np.repeat(sources[rows], counts)]
            counts -= groups == self.labels[sources[rows]]
            ends = np.concatenate([[0], np.cumsum(counts)])
            span.set(groups_reached=reached, groups_kept=rows.size, entries=ids.size)
            return PairValues(
                ids,
                np.repeat(values, counts),
                ends[np.searchsorted(rows, np.arange(sources.size + 1))],
            )

    def __call__(self, ids: np.ndarray) -> PairValues:
        return self.estimator.reach_table(ids, self.group_reach)


def partition_select(
    candidates: np.ndarray,
    probabilities: np.ndarray,
    graph: AlignmentGraph,
    estimator: InferencePowerEstimator,
    batch_size: int,
    selection_config: GreedySelectionConfig | None = None,
    partition_config: PartitionSelectionConfig | None = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Algorithm 2: partition the pool, then run the greedy selection on the
    quotient graph's estimated reach.  Takes and returns pool ids, as
    :func:`~repro.active.selection.greedy_select`."""
    selection_config = selection_config or GreedySelectionConfig()
    partition_config = partition_config or PartitionSelectionConfig()
    partition_of = partition_pool(graph, estimator, partition_config)
    with obs.span("active.partition.quotient"):
        reach = _QuotientReach(
            graph, estimator, partition_of.data, selection_config.power_threshold
        )
    return greedy_select(candidates, probabilities, reach, batch_size, selection_config, rng)
