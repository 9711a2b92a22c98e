"""The :class:`SimilarityEngine`: versioned similarity queries over a backend.

Every hot path of the active alignment loop — hard-negative mining,
semi-supervised mining, calibrated probability lookups, pool building and
progressive evaluation — reads element similarities through this engine.  The
engine owns the *versioning* contract (below) and delegates the actual
computation to a pluggable backend (:mod:`repro.runtime.backends`):

* the **dense** backend (default) caches the full ``|X1| × |X2|`` matrix per
  version token and answers every query with a slice — bit-exact with the
  historical code path;
* the **sharded** backend streams row-block × column-block cosine tiles from
  the similarity's *channel factors* (:meth:`channels`) and keeps per-row
  running top-k state, so the full matrix is never materialised on any query
  path and peak memory stays ``O(block² + N·k)``.

Consumers therefore use the narrow query surface — :meth:`top_k` /
:meth:`top_k_table`, :meth:`rows` / :meth:`cols`, :meth:`stream_blocks`,
:meth:`row_max` / :meth:`col_max`, :meth:`export_state` — rather than
:meth:`matrix`.  ``matrix`` remains as a legacy escape hatch: on the dense
backend it is the cached matrix; on the sharded backend it *assembles* the
matrix by streaming (and caches it per token), which is fine for small
schema-level matrices and debugging but defeats the memory bound, so no
production query path calls it.

Caching / versioning contract
-----------------------------

A cached matrix, channel set or top-k table is valid for a *version token*:

* ``parameter_version`` — the global counter in :mod:`repro.nn.optim`, bumped
  by every ``Adam.step`` / ``SGD.step`` (and by ``Module.load_state_dict``
  and ``Embedding.renormalize``).  Any optimiser step therefore invalidates
  all cached state — stale similarities are never served.  The same token
  keys the embedding models' forward session
  (:meth:`repro.embedding.base.KGEmbeddingModel.outputs`), so the snapshot
  this engine reads and the training losses share one forward per version.
* ``model.snapshot_version`` — bumped by
  :meth:`JointAlignmentModel.refresh_statistics`, which rebuilds the NumPy
  snapshot (mean embeddings, weights) every similarity depends on.
* ``model.landmark_version`` — bumped by effective
  :meth:`JointAlignmentModel.set_landmarks` calls.  Only the combined entity
  similarity is keyed on it (through the structural propagation channel);
  relation/class similarities survive landmark updates untouched.

Between two bumps the engine serves the same objects over and over (treat
returned arrays as read-only); within one optimiser step a matrix or top-k
table is computed at most once, no matter how many call sites ask for it.
On the dense backend, ``refresh_statistics`` additionally *seeds* the entity
cache with the matrix it computes internally for the dangling-entity weights.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

import repro.obs as obs
from repro.autograd.tensor import no_grad
from repro.kg.elements import ElementKind
from repro.nn.optim import parameter_version
from repro.runtime.backends import (
    TopKTable,
    create_backend,
    resolve_backend_name,
    resolve_workers,
)
from repro.runtime.streaming import ChannelPair, CosineChannels
from repro.runtime.views import SimilarityView
from repro.utils.math import cosine_similarity_matrix, safe_l2_normalize

if TYPE_CHECKING:  # pragma: no cover - import cycle with model.py
    from repro.alignment.model import AlignmentSnapshot, JointAlignmentModel

DEFAULT_BLOCK_SIZE = 4096

# Cache key for the embedding-only entity channel (no structural max).
_ENTITY_EMBEDDING_CHANNEL = "entity_embedding_channel"
# Cache-key namespace for channel factor sets.
_CHANNELS = "channels"


def blocked_cosine_similarity(
    a: np.ndarray, b: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE
) -> np.ndarray:
    """Pairwise cosine similarities between rows of ``a`` and ``b``, in blocks.

    Delegates to :func:`repro.utils.math.cosine_similarity_matrix` when one
    block suffices; otherwise computes the ``(len(a), len(b))`` product
    ``block_size`` rows at a time, bounding the working set for large
    vocabularies.  Zero-norm rows are guarded: they contribute exactly-zero
    similarity instead of a division blow-up
    (:func:`repro.utils.math.safe_l2_normalize`), so a degenerate embedding
    row can never emit NaNs that poison top-k tables or calibration.
    """
    if np.asarray(a).shape[0] <= block_size:
        return cosine_similarity_matrix(a, b)
    a_n = safe_l2_normalize(np.asarray(a, dtype=float))
    b_n = safe_l2_normalize(np.asarray(b, dtype=float))
    out = np.empty((a_n.shape[0], b_n.shape[0]))
    for start in range(0, a_n.shape[0], block_size):
        stop = min(start + block_size, a_n.shape[0])
        out[start:stop] = a_n[start:stop] @ b_n.T
    return out


class SimilarityEngine:
    """Owns similarity state and top-k candidates for one alignment model.

    One engine is created per :class:`JointAlignmentModel` (available as
    ``model.similarity``); the trainer, the active loop, pool building,
    evaluation, serving exports and the inference-power estimator all read
    through it.  The backend (``dense`` or ``sharded``) is chosen by the
    ``backend`` argument, overridable globally through the
    ``REPRO_SIMILARITY_BACKEND`` environment variable.
    """

    def __init__(
        self,
        model: "JointAlignmentModel",
        block_size: int = DEFAULT_BLOCK_SIZE,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.model = model
        self.block_size = block_size
        self.workers = resolve_workers(workers)
        self.backend = create_backend(self, resolve_backend_name(backend))
        self._matrices: dict[object, tuple[tuple[int, ...], np.ndarray]] = {}
        self._channels: dict[object, tuple[tuple[int, ...], CosineChannels]] = {}
        self._top_k: dict[tuple[ElementKind, int], tuple[tuple[int, ...], TopKTable]] = {}
        self.compute_counts: dict[ElementKind, int] = {kind: 0 for kind in ElementKind}
        self.hit_counts: dict[ElementKind, int] = {kind: 0 for kind in ElementKind}

    @property
    def backend_name(self) -> str:
        return self.backend.name

    # ----------------------------------------------------------------- state
    def state_token(self) -> tuple[int, int, int]:
        """The full (parameter, snapshot, landmark) version triple."""
        model = self.model
        return (parameter_version(), model.snapshot_version, model.landmark_version)

    def _token_for(self, key: object) -> tuple[int, ...]:
        """The version token ``key`` depends on.

        Only the combined entity similarity reads the structural channel, so
        only it is keyed on the landmark version; relation/class matrices and
        the embedding-only entity channel survive landmark updates.
        """
        if key is ElementKind.ENTITY or key == (_CHANNELS, ElementKind.ENTITY):
            return self.state_token()
        return (parameter_version(), self.model.snapshot_version)

    @property
    def snapshot(self) -> "AlignmentSnapshot":
        """The model's NumPy snapshot (single access point for consumers)."""
        return self.model.snapshot

    def shape(self, kind: ElementKind) -> tuple[int, int]:
        """The ``(|X1|, |X2|)`` shape of ``kind``'s similarity."""
        model = self.model
        if kind is ElementKind.ENTITY:
            return (model.kg1.num_entities, model.kg2.num_entities)
        if kind is ElementKind.RELATION:
            return (model.kg1.num_relations, model.kg2.num_relations)
        return (model.kg1.num_classes, model.kg2.num_classes)

    def invalidate(self) -> None:
        """Drop every cached matrix, channel set and top-k table."""
        self._matrices.clear()
        self._channels.clear()
        self._top_k.clear()

    def export_state(self) -> dict[ElementKind, SimilarityView]:
        """Frozen serving views of all three similarities.

        Dense views copy their matrix (the serving layer appends fold-in
        rows/columns, which must never alias the engine's shared cache);
        streamed views share the immutable channel factors and collect
        fold-ins in small tail arrays.
        """
        return {kind: self.backend.view(kind) for kind in ElementKind}

    # ----------------------------------------------------------------- cache
    def _cached(self, key: object) -> np.ndarray | None:
        entry = self._matrices.get(key)
        if entry is not None and entry[0] == self._token_for(key):
            return entry[1]
        return None

    def matrix(self, kind: ElementKind) -> np.ndarray:
        """The full similarity matrix of ``kind`` (cached; treat as read-only).

        Legacy escape hatch: on the sharded backend this *assembles* the full
        matrix by streaming, so production query paths use the narrow surface
        (``top_k`` / ``rows`` / ``stream_blocks`` / ``row_max``) instead.
        """
        cached = self._cached(kind)
        if cached is not None:
            self.hit_counts[kind] += 1
            obs.counter("similarity.cache.hits", kind=kind.value, cache="matrix").inc()
            return cached
        # Materialise the snapshot first: a lazy refresh_statistics seeds the
        # entity cache (dense), turning this miss into a hit instead of a
        # recompute.
        self.model.snapshot
        cached = self._cached(kind)
        if cached is not None:
            self.hit_counts[kind] += 1
            obs.counter("similarity.cache.hits", kind=kind.value, cache="matrix").inc()
            return cached
        obs.counter("similarity.cache.misses", kind=kind.value, cache="matrix").inc()
        with obs.span("similarity.matrix.rebuild", kind=kind.value):
            matrix = self.backend.compute_full(kind)
        # Token is read *after* computing: the computation may lazily refresh
        # the snapshot, which bumps the model's snapshot version.
        self._matrices[kind] = (self._token_for(kind), matrix)
        self.compute_counts[kind] += 1
        obs.counter("similarity.cache.rebuilds", kind=kind.value, cache="matrix").inc()
        return matrix

    def _dense_matrix(self, kind: ElementKind) -> np.ndarray:
        """The dense backend's compute primitive (historical, bit-exact path)."""
        if kind is ElementKind.ENTITY:
            return self._entity_matrix()
        if kind is ElementKind.RELATION:
            return self._relation_matrix()
        return self._class_matrix()

    def seed_entity_cache(self, embedding_channel: np.ndarray, combined: np.ndarray) -> None:
        """Seed both entity caches from ``refresh_statistics``'s computation.

        The dense path of ``refresh_statistics`` already computes the entity
        similarity for the dangling-entity weights; storing it here means the
        following round of mining and evaluation gets cache hits for free.
        """
        self._matrices[_ENTITY_EMBEDDING_CHANNEL] = (
            self._token_for(_ENTITY_EMBEDDING_CHANNEL),
            embedding_channel,
        )
        self._matrices[ElementKind.ENTITY] = (self._token_for(ElementKind.ENTITY), combined)

    # ---------------------------------------------------------------- queries
    def rows(self, kind: ElementKind, indices: np.ndarray) -> np.ndarray:
        """Full-width similarity slab of the selected rows."""
        self.model.snapshot
        return self.backend.rows(kind, indices)

    def cols(self, kind: ElementKind, indices: np.ndarray) -> np.ndarray:
        """Full-height similarity slab of the selected columns."""
        self.model.snapshot
        return self.backend.cols(kind, indices)

    def iter_rows_blocks(
        self, kind: ElementKind, indices: np.ndarray
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """Column-block tiles ``(col_slice, tile)`` of the selected rows."""
        self.model.snapshot
        return self.backend.iter_rows_blocks(kind, indices)

    def iter_cols_blocks(
        self, kind: ElementKind, indices: np.ndarray
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """Row-block tiles ``(row_slice, tile)`` of the selected columns."""
        self.model.snapshot
        return self.backend.iter_cols_blocks(kind, indices)

    def stream_blocks(self, kind: ElementKind) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """All ``(row_slice, col_slice, tile)`` tiles of ``kind``'s similarity."""
        self.model.snapshot
        return self.backend.stream_blocks(kind)

    def row_max(self, kind: ElementKind) -> np.ndarray:
        """Per-row maximum similarity (zeros when the counterpart side is empty)."""
        self.model.snapshot
        return self.backend.row_max(kind)

    def col_max(self, kind: ElementKind) -> np.ndarray:
        """Per-column maximum similarity (zeros when the counterpart side is empty)."""
        self.model.snapshot
        return self.backend.col_max(kind)

    def row_col_max(self, kind: ElementKind) -> tuple[np.ndarray, np.ndarray]:
        """Both directions at once — one fused tile sweep on streaming backends."""
        self.model.snapshot
        return self.backend.row_col_max(kind)

    def threshold_candidates(
        self, kind: ElementKind, threshold: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ``(rows, cols, values)`` with value ≥ threshold, row-major."""
        self.model.snapshot
        return self.backend.threshold_candidates(kind, threshold)

    def top_k_table(self, kind: ElementKind, k: int) -> TopKTable:
        """Top-``k`` counterpart indices *and values*, both directions, cached."""
        key = (kind, k)
        entry = self._top_k.get(key)
        if entry is not None and entry[0] == self._token_for(kind):
            obs.counter("similarity.cache.hits", kind=kind.value, cache="top_k").inc()
            return entry[1]
        self.model.snapshot
        entry = self._top_k.get(key)
        if entry is not None and entry[0] == self._token_for(kind):
            obs.counter("similarity.cache.hits", kind=kind.value, cache="top_k").inc()
            return entry[1]
        obs.counter("similarity.cache.misses", kind=kind.value, cache="top_k").inc()
        with obs.span("similarity.top_k.rebuild", kind=kind.value, k=k):
            table = self.backend.top_k_table(kind, k)
        self._top_k[key] = (self._token_for(kind), table)
        obs.counter("similarity.cache.rebuilds", kind=kind.value, cache="top_k").inc()
        return table

    def top_k(self, kind: ElementKind, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` counterpart indices per row and per column of ``kind``.

        Returns ``(for_left, for_right)``: ``for_left[i]`` holds the ``k``
        most similar KG2 elements of KG1 element ``i`` (descending), and
        ``for_right[j]`` the ``k`` most similar KG1 elements of KG2 element
        ``j``.  Cached under the same token as the underlying similarity.
        """
        table = self.top_k_table(kind, k)
        return table.left_indices, table.right_indices

    # -------------------------------------------------------- channel factors
    def channels(self, kind: ElementKind) -> CosineChannels:
        """``kind``'s similarity as max-of-factored-cosines (cached per token).

        This is the sharded backend's compute substrate: every channel of
        every similarity in this model is a cosine of factor matrices — the
        mapped embedding channel, the structural propagation features, the
        mean-embedding channels — so arbitrary tiles can be produced without
        materialising anything ``N × M``.
        """
        key = (_CHANNELS, kind)
        entry = self._channels.get(key)
        if entry is not None and entry[0] == self._token_for(key):
            obs.counter("similarity.cache.hits", kind=kind.value, cache="channels").inc()
            return entry[1]
        snap = self.model.snapshot  # may bump the snapshot version: build after
        entry = self._channels.get(key)
        if entry is not None and entry[0] == self._token_for(key):
            obs.counter("similarity.cache.hits", kind=kind.value, cache="channels").inc()
            return entry[1]
        obs.counter("similarity.cache.misses", kind=kind.value, cache="channels").inc()
        channels = self._build_channels(kind, snap)
        self._channels[key] = (self._token_for(key), channels)
        obs.counter("similarity.cache.rebuilds", kind=kind.value, cache="channels").inc()
        return channels

    def _build_channels(self, kind: ElementKind, snap: "AlignmentSnapshot") -> CosineChannels:
        model = self.model
        with no_grad():
            if kind is ElementKind.ENTITY:
                # single source of truth for the entity decomposition —
                # shared with the model's streamed dangling-entity weights
                pairs, clip = model.entity_channel_factors(
                    snap.entity_matrix_1, snap.entity_matrix_2
                )
                return CosineChannels(pairs, shape=self.shape(kind), clip_at_zero=clip)
            if kind is ElementKind.RELATION:
                pairs = [
                    ChannelPair.from_raw(
                        snap.relation_matrix_1 @ model.map_relation.data,
                        snap.relation_matrix_2,
                    )
                ]
                if model.use_mean_embeddings:
                    pairs.append(
                        ChannelPair.from_raw(
                            snap.mean_relations_1 @ model.map_entity.data,
                            snap.mean_relations_2,
                        )
                    )
                return CosineChannels(pairs, shape=self.shape(kind))
            # classes
            shape = self.shape(kind)
            if shape[0] == 0 or shape[1] == 0:
                return CosineChannels([], shape=shape)
            pairs = []
            if model.use_class_embeddings:
                c1 = model.class_scorer1.all_class_embeddings().numpy()
                c2 = model.class_scorer2.all_class_embeddings().numpy()
                pairs.append(ChannelPair.from_raw(c1 @ model.map_class.data, c2))
            elif model.class_entity_maps is not None:
                map1, map2 = model.class_entity_maps
                pairs.append(
                    ChannelPair.from_raw(
                        snap.entity_matrix_1[map1] @ model.map_entity.data,
                        snap.entity_matrix_2[map2],
                    )
                )
            if model.use_mean_embeddings:
                pairs.append(
                    ChannelPair.from_raw(
                        snap.mean_classes_1 @ model.map_entity.data, snap.mean_classes_2
                    )
                )
            return CosineChannels(pairs, shape=shape)

    # ----------------------------------------------------- top-k persistence
    def export_top_k_arrays(self) -> dict[str, np.ndarray]:
        """Current-token top-k tables as flat arrays (checkpoint payload)."""
        out: dict[str, np.ndarray] = {}
        for (kind, k), (token, table) in self._top_k.items():
            if token != self._token_for(kind):
                continue
            prefix = f"{kind.value}/{k}"
            out[f"{prefix}/left_indices"] = table.left_indices
            out[f"{prefix}/left_values"] = table.left_values
            out[f"{prefix}/right_indices"] = table.right_indices
            out[f"{prefix}/right_values"] = table.right_values
        return out

    def seed_top_k_arrays(self, arrays: dict[str, np.ndarray]) -> int:
        """Seed the top-k cache from checkpoint arrays; returns entries seeded.

        Valid only right after a bit-exact restore (the saved tables describe
        exactly the restored similarity state); entries are keyed under the
        *current* token, so the next optimiser step invalidates them as usual.
        """
        grouped: dict[tuple[ElementKind, int], dict[str, np.ndarray]] = {}
        for key, value in arrays.items():
            kind_value, k, field = key.split("/")
            grouped.setdefault((ElementKind(kind_value), int(k)), {})[field] = value
        for (kind, k), fields in grouped.items():
            self._top_k[(kind, k)] = (
                self._token_for(kind),
                TopKTable(
                    left_indices=fields["left_indices"],
                    left_values=fields["left_values"],
                    right_indices=fields["right_indices"],
                    right_values=fields["right_values"],
                ),
            )
        return len(grouped)

    # ------------------------------------------------- dense matrix assembly
    def embedding_entity_matrix(self) -> np.ndarray:
        """The embedding channel only: ``cos(A_ent · e, e')`` for all pairs."""
        cached = self._cached(_ENTITY_EMBEDDING_CHANNEL)
        if cached is not None:
            return cached
        model = self.model
        snap = model.snapshot  # may lazily refresh and seed this very cache
        cached = self._cached(_ENTITY_EMBEDDING_CHANNEL)
        if cached is not None:
            return cached
        with no_grad():
            mapped = snap.entity_matrix_1 @ model.map_entity.data
            matrix = blocked_cosine_similarity(mapped, snap.entity_matrix_2, self.block_size)
        self._matrices[_ENTITY_EMBEDDING_CHANNEL] = (
            self._token_for(_ENTITY_EMBEDDING_CHANNEL),
            matrix,
        )
        return matrix

    def _entity_matrix(self) -> np.ndarray:
        embedding_channel = self.embedding_entity_matrix()
        structural = self.model.structural_similarity_matrix()
        if structural is None:
            return embedding_channel
        return np.maximum(embedding_channel, structural)

    def _relation_matrix(self) -> np.ndarray:
        model = self.model
        snap = model.snapshot
        with no_grad():
            direct = blocked_cosine_similarity(
                snap.relation_matrix_1 @ model.map_relation.data,
                snap.relation_matrix_2,
                self.block_size,
            )
            if not model.use_mean_embeddings:
                return direct
            mean_sim = blocked_cosine_similarity(
                snap.mean_relations_1 @ model.map_entity.data,
                snap.mean_relations_2,
                self.block_size,
            )
            return np.maximum(direct, mean_sim)

    def _class_matrix(self) -> np.ndarray:
        model = self.model
        if model.kg1.num_classes == 0 or model.kg2.num_classes == 0:
            return np.zeros((model.kg1.num_classes, model.kg2.num_classes))
        snap = model.snapshot
        with no_grad():
            channels: list[np.ndarray] = []
            if model.use_class_embeddings:
                c1 = model.class_scorer1.all_class_embeddings().numpy()
                c2 = model.class_scorer2.all_class_embeddings().numpy()
                channels.append(
                    blocked_cosine_similarity(c1 @ model.map_class.data, c2, self.block_size)
                )
            elif model.class_entity_maps is not None:
                map1, map2 = model.class_entity_maps
                e1 = snap.entity_matrix_1[map1] @ model.map_entity.data
                e2 = snap.entity_matrix_2[map2]
                channels.append(blocked_cosine_similarity(e1, e2, self.block_size))
            if model.use_mean_embeddings:
                channels.append(
                    blocked_cosine_similarity(
                        snap.mean_classes_1 @ model.map_entity.data,
                        snap.mean_classes_2,
                        self.block_size,
                    )
                )
            result = channels[0]
            for channel in channels[1:]:
                result = np.maximum(result, channel)
            return result
