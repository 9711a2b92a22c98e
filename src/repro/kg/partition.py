"""ρ-bounded partitioning of an aligned KG pair into cross-linked sub-pairs.

The paper's Algorithm 2 partitions the *candidate pool* so that batch
selection becomes cheap per-partition work (:mod:`repro.active.partition`).
This module applies the same idea one level up — to the **campaign** itself:
it cuts an :class:`~repro.kg.pair.AlignedKGPair` into ``num_partitions``
balanced sub-pairs so that embedding training, alignment training, similarity
refresh and active selection can all run per partition (and in parallel),
instead of single-process over the entire KG pair.

The unit of partitioning is a *cross-link*: a gold entity match ``(e, e′)``.
Keeping both sides of every cross-link in the same partition is what makes a
partition a self-contained alignment subproblem — the same reachability
structure Algorithm 2's refinement loop preserves, computed here over graph
edges instead of estimator powers (no model exists before the campaign runs).
Concretely:

1. **Anchor graph** — one node per gold entity match; the weight between two
   anchors counts the KG1 edges between their left sides plus the KG2 edges
   between their right sides (the structural analogue of Algorithm 2's
   edge-power adjacency).
2. **Seeded balanced growth** — ``num_partitions`` seeds spread across the
   anchor graph grow breadth-first, always extending the currently smallest
   partition along its strongest frontier edge.
3. **ρ-refinement** — bounded passes move anchors that keep less than ``rho``
   of their adjacent edge weight inside their partition to the partition
   holding most of it, subject to a balance cap.  This is the campaign-level
   reading of Algorithm 2's ρ threshold: a member whose inside fraction
   already meets ρ is never moved.
4. **Dangling attachment** — entities without a gold counterpart join the
   partition holding most of their graph neighbours (isolated ones are
   spread round-robin), so every entity of both KGs lands in exactly one
   sub-pair.

Everything is deterministic: ties break on the lower index, vocabularies of
the sub-KGs keep the original order, and ``num_partitions=1`` returns the
*original* pair object so a single-partition campaign is bit-exact with the
monolithic pipeline.

The partitioning itself is set by :class:`PartitionConfig` alone.  The one
environment override, ``REPRO_CAMPAIGN_EXECUTOR``, picks the executor backend
(:func:`repro.runtime.executor.resolve_campaign_executor`); it wins over the
configured value.  The executor never changes results.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair, GoldAlignment
from repro.runtime.executor import check_executor_name
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass(frozen=True)
class PartitionConfig:
    """Knobs of the campaign partitioner.

    ``num_partitions`` — how many sub-pairs to cut (1 disables partitioning);
    ``rho`` — minimum fraction of an anchor's adjacent edge weight that should
    stay inside its partition (refinement only moves anchors below it);
    ``max_refine_passes`` — bound on the ρ-refinement sweeps;
    ``balance_slack`` — a partition may exceed the ideal ``anchors/partitions``
    size by at most this fraction during refinement;
    ``workers`` — process-pool width of the campaign executor (results are
    deterministic for any value);
    ``executor`` — which campaign executor runs the pieces (``"serial"``,
    ``"process"``, or ``"auto"`` to pick the process backend whenever >1
    worker is requested and >1 core is available, serial otherwise).  The
    executor never changes results, only wall-clock.
    """

    num_partitions: int = 1
    rho: float = 0.9
    max_refine_passes: int = 4
    balance_slack: float = 0.25
    workers: int = 1
    executor: str = "auto"

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.max_refine_passes < 0:
            raise ValueError("max_refine_passes must be >= 0")
        if self.balance_slack < 0.0:
            raise ValueError("balance_slack must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        check_executor_name(self.executor, auto=True)


@dataclass
class PartitionPiece:
    """One sub-pair of the campaign; its pair is the whole description.

    Sub-KG vocabularies keep the original order.  The merge, serving and
    routing layers map a piece's elements into the campaign's spaces by name.
    """

    index: int
    pair: AlignedKGPair

    def summary(self) -> dict[str, int]:
        return {
            "entities_kg1": self.pair.kg1.num_entities,
            "entities_kg2": self.pair.kg2.num_entities,
            "entity_matches": len(self.pair.entity_alignment),
            "triples_kg1": self.pair.kg1.num_triples,
            "triples_kg2": self.pair.kg2.num_triples,
        }


@dataclass
class KGPairPartition:
    """The result of :func:`partition_pair`: pieces plus cut statistics.

    The pieces are the partition: a campaign restored from a checkpoint
    adopts its saved pieces as they are, and incremental updates replace
    piece pairs in place.
    """

    pieces: list[PartitionPiece]
    cut_weight_fraction: float = 0.0
    rho_satisfied_fraction: float = 1.0

    @property
    def num_partitions(self) -> int:
        return len(self.pieces)

    def summary(self) -> dict:
        return {
            "num_partitions": self.num_partitions,
            "cut_weight_fraction": round(self.cut_weight_fraction, 4),
            "rho_satisfied_fraction": round(self.rho_satisfied_fraction, 4),
            "pieces": [p.summary() for p in self.pieces],
        }

    # -------------------------------------------------------------- membership
    def membership(self) -> tuple[dict[str, int], dict[str, int]]:
        """``entity name → piece index`` maps for both sides.

        This is the routing surface for :func:`repro.updates.route_delta`:
        which piece owns an entity is exactly which piece's sub-KG contains
        it.  Pieces never share entities, so the maps are well defined.
        They are built from the current pieces on each call, so a piece
        whose pair an incremental update replaced is routed by its new
        entities.
        """
        side_1: dict[str, int] = {}
        side_2: dict[str, int] = {}
        for piece in self.pieces:
            for name in piece.pair.kg1.entities:
                side_1[name] = piece.index
            for name in piece.pair.kg2.entities:
                side_2[name] = piece.index
        return side_1, side_2

    def membership_digest(self) -> str:
        """Order-sensitive digest of every piece's entity membership.

        Persisted in campaign manifests and recomputed over the restored
        pieces on load, so a checkpoint whose pieces no longer describe the
        partition that was saved is refused instead of resumed.
        """
        digest = hashlib.sha256()
        for piece in self.pieces:
            digest.update(b"\x00piece\x00")
            for name in piece.pair.kg1.entities:
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"\x00side\x00")
            for name in piece.pair.kg2.entities:
                digest.update(name.encode("utf-8"))
                digest.update(b"\x00")
        return digest.hexdigest()


# ------------------------------------------------------------------ anchors
def _anchor_adjacency(
    kg: KnowledgeGraph, anchor_of_entity: np.ndarray
) -> dict[tuple[int, int], int]:
    """Undirected anchor–anchor edge counts contributed by one KG's triples."""
    edges: dict[tuple[int, int], int] = defaultdict(int)
    if kg.triple_array.size == 0:
        return edges
    heads = anchor_of_entity[kg.triple_array[:, 0]]
    tails = anchor_of_entity[kg.triple_array[:, 2]]
    mask = (heads >= 0) & (tails >= 0) & (heads != tails)
    lo = np.minimum(heads[mask], tails[mask])
    hi = np.maximum(heads[mask], tails[mask])
    if lo.size:
        stacked = np.stack([lo, hi], axis=1)
        unique, counts = np.unique(stacked, axis=0, return_counts=True)
        for (a, b), c in zip(unique, counts):
            edges[(int(a), int(b))] += int(c)
    return edges


def _pick_seeds(
    num_anchors: int,
    num_partitions: int,
    adjacency: list[list[tuple[int, int]]],
    degree_weight: np.ndarray,
) -> list[int]:
    """Spread seeds: heaviest anchor first, then heaviest non-neighbours."""
    order = np.lexsort((np.arange(num_anchors), -degree_weight))
    seeds: list[int] = [int(order[0])]
    blocked = {int(order[0])}
    blocked.update(n for n, _ in adjacency[seeds[0]])
    for candidate in order[1:]:
        if len(seeds) == num_partitions:
            break
        candidate = int(candidate)
        if candidate in blocked:
            continue
        seeds.append(candidate)
        blocked.add(candidate)
        blocked.update(n for n, _ in adjacency[candidate])
    # not enough mutually non-adjacent anchors: fall back to heaviest unchosen
    if len(seeds) < num_partitions:
        chosen = set(seeds)
        for candidate in order:
            if len(seeds) == num_partitions:
                break
            if int(candidate) not in chosen:
                seeds.append(int(candidate))
                chosen.add(int(candidate))
    return seeds


def _grow_partitions(
    num_anchors: int,
    num_partitions: int,
    adjacency: list[list[tuple[int, int]]],
    seeds: list[int],
) -> np.ndarray:
    """Balanced multi-source growth: smallest partition extends first."""
    partition = np.full(num_anchors, -1, dtype=np.int64)
    sizes = np.zeros(num_partitions, dtype=np.int64)
    frontiers: list[list[tuple[int, int, int]]] = [[] for _ in range(num_partitions)]
    counter = 0
    unassigned_cursor = 0

    def assign(node: int, pid: int) -> None:
        nonlocal counter
        partition[node] = pid
        sizes[pid] += 1
        for neighbor, weight in adjacency[node]:
            if partition[neighbor] < 0:
                heapq.heappush(frontiers[pid], (-weight, counter, neighbor))
                counter += 1

    for pid, seed in enumerate(seeds):
        if partition[seed] < 0:
            assign(seed, pid)
        else:  # duplicate fallback seed: replace with the next free anchor
            while unassigned_cursor < num_anchors and partition[unassigned_cursor] >= 0:
                unassigned_cursor += 1
            if unassigned_cursor < num_anchors:
                assign(unassigned_cursor, pid)

    assigned = int(sizes.sum())
    while assigned < num_anchors:
        # smallest partition with a non-empty frontier grows next
        candidates = [p for p in range(num_partitions) if frontiers[p]]
        if not candidates:
            # disconnected remainder: restart from the next free anchor
            while partition[unassigned_cursor] >= 0:
                unassigned_cursor += 1
            pid = int(np.argmin(sizes))
            assign(unassigned_cursor, pid)
            assigned += 1
            continue
        pid = min(candidates, key=lambda p: (sizes[p], p))
        node = None
        while frontiers[pid]:
            _, _, node = heapq.heappop(frontiers[pid])
            if partition[node] < 0:
                break
            node = None
        if node is None:
            continue
        assign(node, pid)
        assigned += 1
    return partition


def _refine_partitions(
    partition: np.ndarray,
    adjacency: list[list[tuple[int, int]]],
    config: PartitionConfig,
) -> np.ndarray:
    """Move anchors below the ρ inside-fraction to their majority partition."""
    num_partitions = int(partition.max()) + 1
    if num_partitions < 2:
        return partition
    sizes = np.bincount(partition, minlength=num_partitions)
    cap = math.ceil(len(partition) / num_partitions * (1.0 + config.balance_slack))
    for _ in range(config.max_refine_passes):
        moved = 0
        for node in range(len(partition)):
            if not adjacency[node]:
                continue
            weight_to = np.zeros(num_partitions)
            for neighbor, weight in adjacency[node]:
                weight_to[partition[neighbor]] += weight
            total = float(weight_to.sum())
            current = int(partition[node])
            if total <= 0 or weight_to[current] / total >= config.rho:
                continue
            best = int(np.argmax(weight_to))  # ties: argmax picks the lower pid
            if (
                best != current
                and weight_to[best] > weight_to[current]
                and sizes[current] > 1
                and sizes[best] < cap
            ):
                partition[node] = best
                sizes[current] -= 1
                sizes[best] += 1
                moved += 1
        if moved == 0:
            break
    return partition


def _attach_danglings(
    kg: KnowledgeGraph,
    entity_partition: np.ndarray,
    num_partitions: int,
) -> np.ndarray:
    """Assign unanchored entities to the partition of most of their neighbours."""
    pending = [e for e in range(kg.num_entities) if entity_partition[e] < 0]
    # neighbour votes propagate (bounded passes cover dangling chains)
    for _ in range(3):
        if not pending:
            break
        still: list[int] = []
        for entity in pending:
            votes = np.zeros(num_partitions)
            for neighbor in sorted(kg.neighbors(entity)):
                pid = entity_partition[neighbor]
                if pid >= 0:
                    votes[pid] += 1.0
            if votes.sum() > 0:
                entity_partition[entity] = int(np.argmax(votes))
            else:
                still.append(entity)
        if len(still) == len(pending):
            break
        pending = still
    # isolated leftovers: deterministic round-robin keeps pieces balanced
    for position, entity in enumerate(pending):
        entity_partition[entity] = position % num_partitions
    return entity_partition


# -------------------------------------------------------------------- pieces
def _restrict_alignment(
    alignment: GoldAlignment,
    left_names: set[str],
    right_names: set[str],
) -> GoldAlignment:
    pairs = [
        (a, b) for a, b in alignment.pairs if a in left_names and b in right_names
    ]
    return GoldAlignment(alignment.kind, pairs)


def _build_piece(
    index: int,
    pair: AlignedKGPair,
    entities_1: list[str],
    entities_2: list[str],
) -> PartitionPiece:
    kg1 = pair.kg1.subgraph_of_entities(entities_1)
    kg2 = pair.kg2.subgraph_of_entities(entities_2)
    left_entities = set(kg1.entities)
    right_entities = set(kg2.entities)
    left_relations, right_relations = set(kg1.relations), set(kg2.relations)
    left_classes, right_classes = set(kg1.classes), set(kg2.classes)
    sub_pair = AlignedKGPair(
        name=f"{pair.name}[part{index}]",
        kg1=kg1,
        kg2=kg2,
        entity_alignment=_restrict_alignment(
            pair.entity_alignment, left_entities, right_entities
        ),
        relation_alignment=_restrict_alignment(
            pair.relation_alignment, left_relations, right_relations
        ),
        class_alignment=_restrict_alignment(pair.class_alignment, left_classes, right_classes),
        train_entity_pairs=[
            (a, b)
            for a, b in pair.train_entity_pairs
            if a in left_entities and b in right_entities
        ],
        valid_entity_pairs=[
            (a, b)
            for a, b in pair.valid_entity_pairs
            if a in left_entities and b in right_entities
        ],
        test_entity_pairs=[
            (a, b)
            for a, b in pair.test_entity_pairs
            if a in left_entities and b in right_entities
        ],
    )
    return PartitionPiece(index=index, pair=sub_pair)


# ---------------------------------------------------------------- entry point
def partition_pair(
    pair: AlignedKGPair, config: PartitionConfig | None = None
) -> KGPairPartition:
    """Cut ``pair`` into ``config.num_partitions`` cross-linked sub-pairs.

    Every gold entity match stays within one partition (a cut match would be
    unlearnable by construction), every entity of both KGs lands in exactly
    one piece, and sub-KG vocabularies keep the original order.  With
    ``num_partitions=1`` the returned piece *is* the original pair.
    """
    config = config or PartitionConfig()
    anchors = pair.entity_alignment.pairs
    if config.num_partitions == 1 or len(anchors) < 2 * config.num_partitions:
        if config.num_partitions > 1:
            logger.warning(
                "pair %s has %d gold matches — too few for %d partitions; "
                "falling back to a single partition",
                pair.name,
                len(anchors),
                config.num_partitions,
            )
        return KGPairPartition(pieces=[PartitionPiece(0, pair)])

    num_anchors = len(anchors)
    anchor_of_1 = np.full(pair.kg1.num_entities, -1, dtype=np.int64)
    anchor_of_2 = np.full(pair.kg2.num_entities, -1, dtype=np.int64)
    for i, (a, b) in enumerate(anchors):
        anchor_of_1[pair.kg1.entity_id(a)] = i
        anchor_of_2[pair.kg2.entity_id(b)] = i

    edges: dict[tuple[int, int], int] = defaultdict(int)
    for kg, anchor_of in ((pair.kg1, anchor_of_1), (pair.kg2, anchor_of_2)):
        for key, count in _anchor_adjacency(kg, anchor_of).items():
            edges[key] += count
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(num_anchors)]
    degree_weight = np.zeros(num_anchors)
    for (a, b), weight in sorted(edges.items()):
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
        degree_weight[a] += weight
        degree_weight[b] += weight

    seeds = _pick_seeds(num_anchors, config.num_partitions, adjacency, degree_weight)
    partition = _grow_partitions(num_anchors, config.num_partitions, adjacency, seeds)
    partition = _refine_partitions(partition, adjacency, config)

    # ---------------------------------------------------------------- stats
    total_weight = cut_weight = 0.0
    satisfied = 0
    with_edges = 0
    for (a, b), weight in edges.items():
        total_weight += weight
        if partition[a] != partition[b]:
            cut_weight += weight
    for node in range(num_anchors):
        if not adjacency[node]:
            continue
        with_edges += 1
        inside = sum(w for n, w in adjacency[node] if partition[n] == partition[node])
        total = sum(w for _, w in adjacency[node])
        if inside / total >= config.rho:
            satisfied += 1

    # ------------------------------------------------------------- entities
    entity_partition_1 = np.full(pair.kg1.num_entities, -1, dtype=np.int64)
    entity_partition_2 = np.full(pair.kg2.num_entities, -1, dtype=np.int64)
    for i, (a, b) in enumerate(anchors):
        entity_partition_1[pair.kg1.entity_id(a)] = partition[i]
        entity_partition_2[pair.kg2.entity_id(b)] = partition[i]
    entity_partition_1 = _attach_danglings(pair.kg1, entity_partition_1, config.num_partitions)
    entity_partition_2 = _attach_danglings(pair.kg2, entity_partition_2, config.num_partitions)

    pieces = []
    for pid in range(config.num_partitions):
        entities_1 = [e for i, e in enumerate(pair.kg1.entities) if entity_partition_1[i] == pid]
        entities_2 = [e for i, e in enumerate(pair.kg2.entities) if entity_partition_2[i] == pid]
        pieces.append(_build_piece(pid, pair, entities_1, entities_2))

    result = KGPairPartition(
        pieces=pieces,
        cut_weight_fraction=cut_weight / total_weight if total_weight else 0.0,
        rho_satisfied_fraction=satisfied / with_edges if with_edges else 1.0,
    )
    logger.info(
        "partitioned %s into %d pieces (cut fraction %.3f, rho-satisfied %.3f)",
        pair.name,
        len(pieces),
        result.cut_weight_fraction,
        result.rho_satisfied_fraction,
    )
    return result
