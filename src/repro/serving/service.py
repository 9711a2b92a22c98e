"""The online :class:`AlignmentService`.

The training stack answers similarity queries by holding live models, caches
and autograd graphs.  Serving needs none of that: a *frozen snapshot* of the
similarity matrices (and just enough model state for fold-in) answers
``top_k_alignments`` and ``score_pairs`` queries with plain array gathers.

Design points:

* **Immutable snapshots, atomic swap** — all serving state lives in one
  :class:`ServingSnapshot` object referenced by a single attribute.  Hot-swap
  to a newer checkpoint and incremental fold-in both *build a new snapshot*
  and replace that one reference, so a query sequence never observes a
  half-updated state.
* **State-token cache keys** — every snapshot carries a ``token`` (the
  checkpoint's content hash, extended per fold-in).  The LRU result cache
  keys on it, so stale results can never be served after a swap or fold-in
  without any explicit invalidation.
* **Batched queries** — ``top_k_alignments`` and ``score_pairs`` take a
  list and answer it with one vectorised gather instead of per-query matrix
  rows.  A single-threaded caller batches by passing the list itself;
  concurrent single queries are batched by the
  :class:`~repro.serving.frontend.ServingFrontend` dispatcher, the one
  batcher in this package.
* **Thread safety** — the query path is safe for concurrent callers: the
  snapshot reference is read once per call (readers fan out over the frozen
  state without any global lock), while the mutable extras — the LRU result
  cache and each counter of the service's metrics registry — take their own
  fine-grained lock.  ``hot_swap`` / ``apply_delta`` serialise their
  read-modify-write of the snapshot reference behind a swap lock.
* **Incremental fold-in** — a new entity arriving with its triples gets an
  output-space embedding optimised against the frozen model (a few gradient
  steps on only the new row, via ``score_np_grad_head`` /
  ``score_np_grad_tail``), and is *appended* to the cached similarity matrix
  as one new row/column — an ``O(n·d)`` update instead of the ``O(n₁·n₂·d)``
  full similarity recompute.  Folded-in columns carry the embedding channel
  only (no structural propagation), matching how a cold entity would score
  before the next full training round.  Every snapshot carries one
  :class:`_PieceFoldContext` per trained embedding space: a pipeline is a
  one-piece campaign whose context maps local to global ids by identity,
  and a merged campaign carries one context per piece.  The new entity is
  optimised against the single piece that owns all of its neighbours, and
  its similarity row/column is scattered into the global view (zero outside
  the owning piece — exactly the cut semantics of the partitioner).  The
  ingestion surface is :meth:`AlignmentService.apply_delta` on a
  pure-growth :class:`~repro.updates.delta.KGDelta`, applied all or nothing.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.alignment.calibration import AlignmentCalibrator
from repro.kg.elements import ElementKind
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.runtime.views import SimilarityView
from repro.utils.logging import get_logger
from repro.utils.math import l2_normalize

if TYPE_CHECKING:  # pragma: no cover - import cycle with core
    from repro.active.campaign import PartitionedCampaign
    from repro.alignment.model import JointAlignmentModel
    from repro.core.config import DAAKGConfig
    from repro.core.daakg import DAAKG
    from repro.embedding.base import KGEmbeddingModel
    from repro.kg.graph import KnowledgeGraph
    from repro.updates.delta import KGDelta

logger = get_logger(__name__)


class ServingError(RuntimeError):
    """Raised for unknown elements, malformed fold-in triples, or misuse."""


# Process-unique discriminator for in-memory snapshot tokens: the engine's
# version triple alone is not unique across *different* pipelines (each has
# its own snapshot/landmark counters), and a colliding token would let the
# LRU cache serve one pipeline's results for another after a hot-swap.
_TOKEN_COUNTER = itertools.count()


@dataclass(frozen=True, eq=False)
class _PieceFoldContext:
    """One trained embedding space's frozen fold-in state inside a snapshot.

    Carries the piece's working vocabularies, output-space matrices and
    frozen models, plus the local→global id maps (``rows_global`` /
    ``cols_global``) that place the piece's rows and columns inside the
    snapshot's similarity view.  A pipeline snapshot has exactly one context
    whose maps are the identity.  Immutable like the snapshot itself: a
    fold-in builds a *replaced* context with the new entity appended, never
    mutates one in place.
    """

    index: int
    entity_index_1: dict[str, int]
    entity_index_2: dict[str, int]
    relation_index_1: dict[str, int]
    relation_index_2: dict[str, int]
    map_entity: np.ndarray
    entity_out_1: np.ndarray
    entity_out_2: np.ndarray
    relation_out_1: np.ndarray
    relation_out_2: np.ndarray
    norm_mapped_1: np.ndarray  # unit rows of entity_out_1 @ map_entity
    norm_out_2: np.ndarray  # unit rows of entity_out_2
    model_1: "KGEmbeddingModel"
    model_2: "KGEmbeddingModel"
    rows_global: np.ndarray  # global row id of each local side-1 row
    cols_global: np.ndarray  # global col id of each local side-2 row

    @classmethod
    def freeze(
        cls,
        index: int,
        model: "JointAlignmentModel",
        rows_global: np.ndarray,
        cols_global: np.ndarray,
    ) -> "_PieceFoldContext":
        """Copy ``model``'s current fold-in state into a frozen context."""
        snap = model.similarity.snapshot
        entity_out_1 = snap.entity_matrix_1.copy()
        entity_out_2 = snap.entity_matrix_2.copy()
        map_entity = model.map_entity.data.copy()
        return cls(
            index=index,
            entity_index_1=dict(model.kg1.entity_index),
            entity_index_2=dict(model.kg2.entity_index),
            relation_index_1=dict(model.kg1.relation_index),
            relation_index_2=dict(model.kg2.relation_index),
            map_entity=map_entity,
            entity_out_1=entity_out_1,
            entity_out_2=entity_out_2,
            relation_out_1=snap.relation_matrix_1.copy(),
            relation_out_2=snap.relation_matrix_2.copy(),
            norm_mapped_1=l2_normalize(entity_out_1 @ map_entity),
            norm_out_2=l2_normalize(entity_out_2),
            model_1=model.model1,
            model_2=model.model2,
            rows_global=rows_global,
            cols_global=cols_global,
        )


@dataclass(frozen=True)
class ServingSnapshot:
    """One immutable serving state: matrices, vocabularies, fold contexts.

    ``pieces`` holds one :class:`_PieceFoldContext` per trained embedding
    space — one with identity maps for a pipeline, one per piece for a
    merged campaign — and may not be empty.
    """

    token: str
    entity_names_1: tuple[str, ...]
    entity_names_2: tuple[str, ...]
    entity_index_1: dict[str, int]
    entity_index_2: dict[str, int]
    relation_index_1: dict[str, int]
    relation_index_2: dict[str, int]
    similarity: dict[ElementKind, SimilarityView]
    calibrator: AlignmentCalibrator
    pieces: tuple[_PieceFoldContext, ...]
    fold_count: int = 0

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a ServingSnapshot needs at least one fold context")

    @classmethod
    def from_pipeline(cls, daakg: "DAAKG", token: str | None = None) -> "ServingSnapshot":
        """Freeze a fitted pipeline's current similarity state for serving.

        The pipeline is served as a one-piece campaign: one fold context
        whose local→global maps are the identity.
        """
        model = daakg.model
        # exporting may refresh the snapshot, which moves the state token
        similarity = model.similarity.export_state()
        if token is None:
            token = f"mem-{next(_TOKEN_COUNTER)}-" + "-".join(
                str(v) for v in model.similarity.state_token()
            )
        return cls._freeze(token, model.kg1, model.kg2, similarity, daakg.config, [model])

    @classmethod
    def from_campaign(cls, campaign, token: str | None = None) -> "ServingSnapshot":
        """Freeze a partition-parallel campaign's *merged* similarity state.

        The snapshot serves ``top_k_alignments`` / ``score_pairs`` /
        ``pair_probabilities`` from the merged streamed views over the
        original pair's vocabularies, with one fold context per piece.  A
        campaign with unfinished pieces (never run, or pieces that failed on
        their executor) raises ``CampaignExecutionError`` here instead of
        serving a partial merge; ``campaign.run()`` re-executes exactly the
        unfinished pieces.
        """
        similarity = campaign.merged_state().export_state()
        kg1, kg2 = campaign.working_kgs()
        if token is None:
            token = (
                f"mem-{next(_TOKEN_COUNTER)}-merged-{campaign.num_partitions}p"
            )
        else:
            token = f"{token}-merged"
        models = [campaign.pipeline(index).model for index in range(campaign.num_partitions)]
        return cls._freeze(token, kg1, kg2, similarity, campaign.config, models)

    @classmethod
    def _freeze(
        cls,
        token: str,
        kg1: "KnowledgeGraph",
        kg2: "KnowledgeGraph",
        similarity: dict[ElementKind, SimilarityView],
        config: "DAAKGConfig",
        models: "list[JointAlignmentModel]",
    ) -> "ServingSnapshot":
        """One snapshot serving ``similarity`` over ``kg1`` × ``kg2``.

        ``models`` are the trained embedding spaces, one fold context each.
        A model's working names are a subset of the global working names
        (augmentation only appends), so name lookup is the robust local→global
        map even across inverse-relation and class-pseudo-entity augmentation;
        for a pipeline's own model it is the identity.
        """
        contexts = tuple(
            _PieceFoldContext.freeze(
                index,
                model,
                rows_global=np.fromiter(
                    (kg1.entity_index[name] for name in model.kg1.entities),
                    dtype=np.int64,
                    count=model.kg1.num_entities,
                ),
                cols_global=np.fromiter(
                    (kg2.entity_index[name] for name in model.kg2.entities),
                    dtype=np.int64,
                    count=model.kg2.num_entities,
                ),
            )
            for index, model in enumerate(models)
        )
        return cls(
            token=token,
            entity_names_1=tuple(kg1.entities),
            entity_names_2=tuple(kg2.entities),
            entity_index_1=dict(kg1.entity_index),
            entity_index_2=dict(kg2.entity_index),
            relation_index_1=dict(kg1.relation_index),
            relation_index_2=dict(kg2.relation_index),
            similarity=similarity,
            calibrator=AlignmentCalibrator(config.calibration),
            pieces=contexts,
        )


def _snapshot_from_source(
    source: "ServingSnapshot | DAAKG | PartitionedCampaign | str | os.PathLike",
) -> ServingSnapshot:
    """Resolve any serving source to one frozen :class:`ServingSnapshot`.

    The single dispatch point behind :func:`repro.serving.serve` and
    :meth:`AlignmentService.hot_swap`:

    * a :class:`ServingSnapshot` passes through unchanged,
    * a fitted :class:`~repro.core.daakg.DAAKG` freezes via ``from_pipeline``
      (a one-piece snapshot),
    * a :class:`~repro.active.campaign.PartitionedCampaign` freezes its
      merged state via ``from_campaign`` (one fold context per piece),
    * a path is a saved campaign directory (recognised by its manifest file)
      or a pipeline checkpoint — checkpoint tokens are content hashes, so
      cached results can never leak across checkpoints.
    """
    from repro.active.campaign import PartitionedCampaign  # circular at module level
    from repro.core.daakg import DAAKG  # circular at module level

    if isinstance(source, ServingSnapshot):
        return source
    if isinstance(source, PartitionedCampaign):
        return ServingSnapshot.from_campaign(source)
    if isinstance(source, DAAKG):
        return ServingSnapshot.from_pipeline(source)
    from repro.persistence.campaign import CAMPAIGN_MANIFEST_FILE

    path = Path(os.fspath(source))
    if (path / CAMPAIGN_MANIFEST_FILE).exists():
        return ServingSnapshot.from_campaign(PartitionedCampaign.load(str(path)))
    from repro.persistence import load_checkpoint, restore_pipeline

    checkpoint = load_checkpoint(path)
    token = "ckpt-" + checkpoint.manifest["arrays"]["sha256"][:16]
    return ServingSnapshot.from_pipeline(restore_pipeline(checkpoint), token=token)


def _bucket_triples(
    new_names: Sequence[str], triples: Sequence[tuple[str, str, str]], side: int
) -> list[tuple[str, list[tuple[str, str, str]]]]:
    """Assign each added triple of one side to the added entity it places.

    Returns ``(entity, triples)`` in fold order.  A triple between two added
    entities belongs to the later one: by fold order its partner already
    exists.  Raises :class:`ServingError` for a triple that names existing
    entities only, or an added entity left without any triple.
    """
    order = {entity: i for i, entity in enumerate(new_names)}
    buckets: dict[str, list[tuple[str, str, str]]] = {entity: [] for entity in new_names}
    for triple in triples:
        head, _, tail = triple
        owners = [endpoint for endpoint in (head, tail) if endpoint in order]
        if not owners:
            raise ServingError(
                f"added triple {triple!r} must connect an added entity: it names "
                f"existing side-{side} entities only; serving fold-in cannot update "
                "frozen rows — use PartitionedCampaign.apply_update() then hot_swap()"
            )
        buckets[max(owners, key=order.__getitem__)].append(triple)
    for entity, placed in buckets.items():
        if not placed:
            raise ServingError(
                f"added entity {entity!r} arrives with no side-{side} triples; "
                "fold-in needs at least one triple to place it"
            )
    return list(buckets.items())


@dataclass
class FoldInReport:
    """What one incremental fold-in did, and what it cost."""

    name: str
    side: int
    index: int
    num_triples: int
    seconds: float
    token: str


class AlignmentService:
    """Read-optimised alignment queries over a frozen serving snapshot."""

    def __init__(self, state: ServingSnapshot, cache_size: int = 4096) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self._state = state
        self.cache_size = cache_size
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        # Fine-grained synchronization: queries read the snapshot reference
        # once and fan out lock-free over the frozen arrays; only the mutable
        # extras take a lock, each its own so readers never contend across
        # concerns.  The swap lock serialises hot_swap/apply_delta — the only
        # read-modify-write of the snapshot reference.
        self._cache_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        # Service-local metrics registry: always on (independent of the
        # global repro.obs gate — a serving process wants its own telemetry
        # regardless), exported through :meth:`metrics`.  Instrument handles
        # are resolved once; per-request cost is one observe/inc under the
        # instrument's own lock.
        self.obs = MetricsRegistry()
        self._created = time.perf_counter()
        self._lat_hist = self.obs.histogram(
            "service.request.seconds", buckets=DEFAULT_LATENCY_BUCKETS
        )
        self._req_counters = {
            method: self.obs.counter("service.requests.total", method=method)
            for method in ("top_k", "score_pairs", "pair_probabilities")
        }
        self._query_counter = self.obs.counter("service.queries.total")
        self._cache_hit_counter = self.obs.counter("service.cache.hits")
        self._cache_miss_counter = self.obs.counter("service.cache.misses")
        self._swap_counter = self.obs.counter("service.hot_swaps.total")
        self._fold_counter = self.obs.counter("service.fold_ins.total")

    # ----------------------------------------------------------------- lookups
    @property
    def state_token(self) -> str:
        """The current snapshot's token (changes on hot-swap and fold-in)."""
        return self._state.token

    def num_entities(self, side: int) -> int:
        state = self._state
        return len(state.entity_names_1 if side == 1 else state.entity_names_2)

    def _entity_id(self, state: ServingSnapshot, side: int, uri: str) -> int:
        index = state.entity_index_1 if side == 1 else state.entity_index_2
        try:
            return index[uri]
        except KeyError as exc:
            raise ServingError(f"unknown KG{side} entity {uri!r}") from exc

    # ----------------------------------------------------------------- queries
    def top_k_alignments(
        self, uris: Sequence[str], k: int = 10
    ) -> list[list[tuple[str, float]]]:
        """The ``k`` best KG2 counterparts of each KG1 entity, with scores.

        Vectorised: all cache-missing rows are gathered and ranked in one
        ``argpartition`` call, so a batch of ``m`` queries costs one
        ``(m, |E2|)`` slice rather than ``m`` row scans.
        """
        start = time.perf_counter()
        state = self._state
        if k < 1:
            raise ValueError("k must be >= 1")
        self._query_counter.inc(len(uris))
        use_cache = self.cache_size > 0
        results: list[list[tuple[str, float]] | None] = [None] * len(uris)
        miss_rows: list[int] = []
        miss_positions: list[int] = []
        for position, uri in enumerate(uris):
            if use_cache:
                cached = self._cache_get((state.token, "topk", uri, k))
                if cached is not None:
                    results[position] = cached
                    continue
            miss_rows.append(self._entity_id(state, 1, uri))
            miss_positions.append(position)
        if miss_rows:
            view = state.similarity[ElementKind.ENTITY]
            top, values = view.top_k_for_rows(np.asarray(miss_rows, dtype=np.int64), k)
            names = state.entity_names_2
            top_lists = top.tolist()  # one bulk int/float conversion beats
            value_lists = values.tolist()  # per-element float()/int() casts
            for i, position in enumerate(miss_positions):
                entry = [
                    (names[j], v) for j, v in zip(top_lists[i], value_lists[i])
                ]
                results[position] = entry
                if use_cache:
                    self._cache_put((state.token, "topk", uris[position], k), entry)
        self._req_counters["top_k"].inc()
        self._lat_hist.observe(time.perf_counter() - start)
        return results  # type: ignore[return-value]

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Similarity scores for ``(kg1 uri, kg2 uri)`` pairs, as one array."""
        start = time.perf_counter()
        state = self._state
        self._query_counter.inc(len(pairs))
        use_cache = self.cache_size > 0
        scores = np.empty(len(pairs), dtype=float)
        miss_lefts: list[int] = []
        miss_rights: list[int] = []
        miss_positions: list[int] = []
        for position, (left, right) in enumerate(pairs):
            if use_cache:
                cached = self._cache_get((state.token, "score", left, right))
                if cached is not None:
                    scores[position] = cached
                    continue
            miss_lefts.append(self._entity_id(state, 1, left))
            miss_rights.append(self._entity_id(state, 2, right))
            miss_positions.append(position)
        if miss_positions:
            view = state.similarity[ElementKind.ENTITY]
            values = view.gather(
                np.asarray(miss_lefts, dtype=np.int64),
                np.asarray(miss_rights, dtype=np.int64),
            )
            value_list = values.tolist()
            for i, position in enumerate(miss_positions):
                scores[position] = value_list[i]
                if use_cache:
                    left, right = pairs[position]
                    self._cache_put((state.token, "score", left, right), value_list[i])
        self._req_counters["score_pairs"].inc()
        self._lat_hist.observe(time.perf_counter() - start)
        return scores

    def pair_probabilities(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Calibrated match probabilities (Eq. 12) for entity URI pairs."""
        start = time.perf_counter()
        state = self._state
        self._query_counter.inc(len(pairs))
        probabilities = np.zeros(0, dtype=float)
        if pairs:
            lefts = np.asarray([self._entity_id(state, 1, a) for a, _ in pairs], dtype=np.int64)
            rights = np.asarray([self._entity_id(state, 2, b) for _, b in pairs], dtype=np.int64)
            view = state.similarity[ElementKind.ENTITY]
            probabilities = state.calibrator.pair_probabilities_from_slabs(
                view.rows(lefts), view.cols(rights), ElementKind.ENTITY, lefts, rights
            )
        self._req_counters["pair_probabilities"].inc()
        self._lat_hist.observe(time.perf_counter() - start)
        return probabilities

    # -------------------------------------------------------------- hot swap
    def hot_swap(
        self,
        source: "str | os.PathLike | DAAKG | PartitionedCampaign | ServingSnapshot",
    ) -> str:
        """Atomically replace the serving state with a newer snapshot.

        ``source`` is anything :func:`_snapshot_from_source` resolves: a
        checkpoint or saved-campaign directory, a fitted pipeline, a
        partition-parallel campaign (whose *merged* similarity state is
        served) or a prebuilt snapshot.  The new snapshot is fully built
        *before* the single reference assignment, so concurrent readers
        observe either the old or the new state, never a mixture.  Returns
        the new state token.
        """
        state = _snapshot_from_source(source)
        with self._swap_lock:
            self._state = state
        self._swap_counter.inc()
        logger.info("hot-swapped serving state to %s", state.token)
        return state.token

    # --------------------------------------------------------------- fold-in
    def apply_delta(
        self, delta: "KGDelta", steps: int = 15, lr: float = 0.1
    ) -> list[FoldInReport]:
        """Absorb a pure-growth :class:`~repro.updates.delta.KGDelta`.

        Serving can absorb *growth* only: added entities, each arriving with
        the triples that place it.  Every added triple must involve at least
        one added entity (triples between two added entities are folded with
        the later one, when its partner already exists).  Each entity gets
        an output-space embedding refined against the frozen model of the
        piece that owns its neighbours, and is appended to the similarity
        view as one new row (side 1) or column (side 2).

        The delta is applied all or nothing: the triples of both sides are
        validated and bucketed before anything is folded, every fold builds
        on a local snapshot, and the service publishes that snapshot once
        at the end.  A delta that fails anywhere leaves the served state,
        its token and the fold counters untouched.

        Everything else a delta can carry — triple removals, gold-link
        additions or retractions, triples between *existing* entities —
        changes rows that are already frozen in the snapshot; route those
        through ``PartitionedCampaign.apply_update()`` and :meth:`hot_swap`
        the retrained campaign instead.
        """
        if (
            delta.removed_triples_1
            or delta.removed_triples_2
            or delta.added_gold_links
            or delta.retracted_gold_links
        ):
            raise ServingError(
                "serving fold-in only absorbs growth (new entities plus their "
                "triples); triple removals and gold-link changes need a retrain "
                "— use PartitionedCampaign.apply_update() then hot_swap()"
            )
        plan = [
            (side, entity, triples)
            for side in (1, 2)
            for entity, triples in _bucket_triples(
                delta.entities(side), delta.triples(side), side
            )
        ]
        reports: list[FoldInReport] = []
        with self._swap_lock:
            # the read-modify-write of the snapshot reference can neither be
            # lost nor observed half-applied: queries keep reading whichever
            # snapshot is current until the single assignment below
            state = self._state
            for side, name, triples in plan:
                start = time.perf_counter()
                state = self._fold(state, name, triples, side, steps, lr)
                names = state.entity_names_1 if side == 1 else state.entity_names_2
                reports.append(
                    FoldInReport(
                        name=name,
                        side=side,
                        index=len(names) - 1,
                        num_triples=len(triples),
                        seconds=time.perf_counter() - start,
                        token=state.token,
                    )
                )
            self._state = state
        self._fold_counter.inc(len(reports))
        for report in reports:
            logger.info(
                "folded in %s on side %d (%d triples, %.2f ms)",
                report.name, report.side, report.num_triples, report.seconds * 1e3,
            )
        return reports

    @classmethod
    def _fold(
        cls,
        state: ServingSnapshot,
        name: str,
        triples: Sequence[tuple[str, str, str]],
        side: int,
        steps: int,
        lr: float,
    ) -> ServingSnapshot:
        """A new snapshot with ``name`` folded into the piece owning its neighbours.

        Pieces train independent embedding spaces, so the new entity can
        only be optimised inside one of them: the (first) piece whose
        side-``side`` vocabulary contains every neighbour entity and every
        relation of ``triples``.  Its similarity row/column is scattered into
        the view at the piece's global ids and left zero elsewhere — the
        same no-cross-piece-evidence semantics the partition cut gives
        trained entities.  A pipeline's single piece owns every known
        entity and relation.  A delta whose neighbours span several pieces
        has no such owner and must go through the campaign retrain path.
        """
        global_index = state.entity_index_1 if side == 1 else state.entity_index_2
        if name in global_index:
            raise ServingError(f"entity {name!r} already exists on side {side}")
        neighbours: set[str] = set()
        relations: set[str] = set()
        for head, relation, tail in triples:
            relations.add(relation)
            if head == name and tail != name:
                neighbours.add(tail)
            elif tail == name and head != name:
                neighbours.add(head)
            else:
                raise ServingError(
                    f"fold-in triple {(head, relation, tail)!r} must connect "
                    f"{name!r} to an existing side-{side} entity"
                )
        for position, candidate in enumerate(state.pieces):
            entity_index, relation_index = (
                (candidate.entity_index_1, candidate.relation_index_1)
                if side == 1
                else (candidate.entity_index_2, candidate.relation_index_2)
            )
            if neighbours <= entity_index.keys() and relations <= relation_index.keys():
                break
        else:
            for neighbour in neighbours:
                if neighbour not in global_index:
                    raise ServingError(f"unknown KG{side} entity {neighbour!r}")
            global_relations = (
                state.relation_index_1 if side == 1 else state.relation_index_2
            )
            for relation in relations:
                if relation not in global_relations:
                    raise ServingError(f"unknown side-{side} relation {relation!r}")
            raise ServingError(
                f"fold-in of {name!r} spans multiple partitions (no single piece "
                "owns all of its neighbours and relations); apply the delta "
                "through PartitionedCampaign.apply_update() and hot_swap() the "
                "retrained campaign instead"
            )
        vector = cls._solve_fold_vector(name, triples, side, state.pieces[position], steps, lr)
        return cls._append_to_piece(state, position, side, name, vector)

    @staticmethod
    def _solve_fold_vector(
        name: str,
        triples: Sequence[tuple[str, str, str]],
        side: int,
        context: _PieceFoldContext,
        steps: int,
        lr: float,
    ) -> np.ndarray:
        """The new entity's output-space embedding, refined against the piece's model."""
        if side == 1:
            entity_index, relation_index = context.entity_index_1, context.relation_index_1
            entity_out, relation_out = context.entity_out_1, context.relation_out_1
            model = context.model_1
        else:
            entity_index, relation_index = context.entity_index_2, context.relation_index_2
            entity_out, relation_out = context.entity_out_2, context.relation_out_2
            model = context.model_2
        head_role: list[tuple[np.ndarray, np.ndarray]] = []  # (r_vec, tail_vec)
        tail_role: list[tuple[np.ndarray, np.ndarray]] = []  # (head_vec, r_vec)
        estimates: list[np.ndarray] = []
        for head, relation, tail in triples:
            if relation not in relation_index:
                raise ServingError(f"unknown side-{side} relation {relation!r}")
            r_vec = relation_out[relation_index[relation]]
            if head == name and tail in entity_index:
                tail_vec = entity_out[entity_index[tail]]
                head_role.append((r_vec, tail_vec))
                estimates.append(tail_vec - r_vec)
            elif tail == name and head in entity_index:
                head_vec = entity_out[entity_index[head]]
                tail_role.append((head_vec, r_vec))
                estimates.append(head_vec + r_vec)
            else:
                raise ServingError(
                    f"fold-in triple {(head, relation, tail)!r} must connect "
                    f"{name!r} to an existing side-{side} entity"
                )

        # Minimise Σ ½·f_er² over the new row only.  The squared objective is
        # what makes this stable: its gradient ``f_er · ∇f_er`` shrinks with
        # the residual, whereas raw ``∇f_er`` has unit magnitude for
        # norm-based scores and oscillates around the optimum.
        vector = np.mean(estimates, axis=0)
        scale = 1.0 / len(triples)
        for _ in range(max(0, steps)):
            grad = np.zeros_like(vector)
            for r_vec, tail_vec in head_role:
                score = model.score_np(vector, r_vec, tail_vec)
                grad += score * model.score_np_grad_head(vector, r_vec, tail_vec)
            for head_vec, r_vec in tail_role:
                score = model.score_np(head_vec, r_vec, vector)
                grad += score * model.score_np_grad_tail(head_vec, r_vec, vector)
            delta = lr * scale * grad
            vector -= delta
            if float(np.linalg.norm(delta)) < 1e-6 * max(1.0, float(np.linalg.norm(vector))):
                break  # converged — translational models often start at the optimum
        return vector

    @staticmethod
    def _append_to_piece(
        state: ServingSnapshot,
        position: int,
        side: int,
        name: str,
        vector: np.ndarray,
    ) -> ServingSnapshot:
        """A new snapshot with ``vector`` folded into one piece (O(n·d) work).

        The appended similarity row/column is the embedding channel of the
        owning piece's frozen space at that piece's global ids — a cold
        entity has no structural evidence before the next full training
        round.  Every other piece contributes zero: a folded entity has no
        cross-piece evidence, exactly like a trained entity across the cut
        (a pipeline's identity-mapped piece covers the whole view).  The row
        or column is appended through the view, which collects it in a small
        tail shard.  Both
        the snapshot and the owning piece's context grow by one entity, so
        later folds can neighbour on this one.
        """
        similarity = dict(state.similarity)
        entity_view = similarity[ElementKind.ENTITY]
        token = f"{state.token}+fold{state.fold_count + 1}"
        pieces = list(state.pieces)
        context = pieces[position]
        if side == 2:
            unit = l2_normalize(vector)
            column = np.zeros(entity_view.num_rows)
            column[context.rows_global] = context.norm_mapped_1 @ unit
            similarity[ElementKind.ENTITY] = entity_view.append_col(column)
            global_id = len(state.entity_names_2)
            index = dict(state.entity_index_2)
            index[name] = global_id
            local_index = dict(context.entity_index_2)
            local_index[name] = context.entity_out_2.shape[0]
            pieces[position] = replace(
                context,
                entity_index_2=local_index,
                entity_out_2=np.concatenate([context.entity_out_2, vector[None, :]]),
                norm_out_2=np.concatenate([context.norm_out_2, unit[None, :]]),
                cols_global=np.concatenate(
                    [context.cols_global, np.array([global_id], dtype=np.int64)]
                ),
            )
            return replace(
                state,
                token=token,
                fold_count=state.fold_count + 1,
                similarity=similarity,
                entity_names_2=state.entity_names_2 + (name,),
                entity_index_2=index,
                pieces=tuple(pieces),
            )
        mapped_unit = l2_normalize(vector @ context.map_entity)
        row = np.zeros(entity_view.num_cols)
        row[context.cols_global] = context.norm_out_2 @ mapped_unit
        similarity[ElementKind.ENTITY] = entity_view.append_row(row)
        global_id = len(state.entity_names_1)
        index = dict(state.entity_index_1)
        index[name] = global_id
        local_index = dict(context.entity_index_1)
        local_index[name] = context.entity_out_1.shape[0]
        pieces[position] = replace(
            context,
            entity_index_1=local_index,
            entity_out_1=np.concatenate([context.entity_out_1, vector[None, :]]),
            norm_mapped_1=np.concatenate([context.norm_mapped_1, mapped_unit[None, :]]),
            rows_global=np.concatenate(
                [context.rows_global, np.array([global_id], dtype=np.int64)]
            ),
        )
        return replace(
            state,
            token=token,
            fold_count=state.fold_count + 1,
            similarity=similarity,
            entity_names_1=state.entity_names_1 + (name,),
            entity_index_1=index,
            pieces=tuple(pieces),
        )

    # ------------------------------------------------------------------ cache
    def _cache_get(self, key: tuple):
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            value = self._cache.get(key)
            if value is not None:
                self._cache.move_to_end(key)
        if value is not None:
            self._cache_hit_counter.inc()
        else:
            self._cache_miss_counter.inc()
        return value

    def _cache_put(self, key: tuple, value) -> None:
        if self.cache_size == 0:
            return
        with self._cache_lock:
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    # ---------------------------------------------------------------- metrics
    def metrics(self) -> dict:
        """Service health in one call: throughput, latency quantiles, caches.

        Latency quantiles are read from the service's own request histogram
        (bucket interpolation — no per-request latency list is retained), so
        they cover every request since construction, are exact in count, and
        cost O(buckets) to compute.  ``snapshot`` carries the raw instrument
        state for exporters that want the full registry.
        """
        requests = sum(counter.value for counter in self._req_counters.values())
        elapsed = max(time.perf_counter() - self._created, 1e-9)
        lookups = self._cache_hit_counter.value + self._cache_miss_counter.value
        return {
            "requests_total": requests,
            "qps": requests / elapsed,
            "p50_latency_ms": self._lat_hist.quantile(0.5) * 1e3,
            "p99_latency_ms": self._lat_hist.quantile(0.99) * 1e3,
            "cache_hit_ratio": self._cache_hit_counter.value / lookups if lookups else 0.0,
            "hot_swaps": int(self._swap_counter.value),
            "fold_ins": int(self._fold_counter.value),
            "uptime_seconds": elapsed,
            "snapshot": self.obs.snapshot(),
        }
