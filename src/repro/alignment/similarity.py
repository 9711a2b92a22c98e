"""The :class:`SimilarityEngine`: versioned, streamed similarity queries.

Every hot path of the active alignment loop — hard-negative mining,
semi-supervised mining, calibrated probability lookups, pool building and
progressive evaluation — reads element similarities through this engine.  The
engine owns the *versioning* contract (below) and answers every query from
the similarity's one definition, its *channel factors* (:meth:`channels`),
through the streamed query surface of :mod:`repro.runtime.backends`:
row-block × column-block cosine tiles with per-row running top-k merges, so
peak memory stays ``O(block² + N·k)``.  When a matrix fits one block, the
channels of a version token keep their one full tile and every query of that
token slices it instead of recomputing products.

Consumers therefore use the narrow query surface — :meth:`top_k` /
:meth:`top_k_table`, :meth:`rows`, :meth:`row_col_max`,
:meth:`threshold_candidates`, :meth:`pair_probabilities`,
:meth:`export_state` — rather than :meth:`matrix`.  ``matrix`` is the
accessor for the baselines and tests that read a whole matrix: it
*assembles* the matrix from the channels (and caches it per token), which is
fine for small schema-level matrices but defeats the memory bound, so no
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
returned arrays as read-only); within one optimiser step a channel set, its
kept tile or a top-k table is computed at most once, no matter how many call
sites ask for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.autograd.tensor import no_grad
from repro.kg.elements import ElementKind
from repro.nn.optim import parameter_version
from repro.runtime.backends import StreamedChannelQueries, TopKTable
from repro.runtime.streaming import ChannelPair, CosineChannels
from repro.runtime.views import SimilarityView, StreamedView

if TYPE_CHECKING:  # pragma: no cover - import cycle with model.py
    from repro.alignment.model import AlignmentSnapshot, JointAlignmentModel

DEFAULT_BLOCK_SIZE = 4096

# Cache-key namespace for channel factor sets.
_CHANNELS = "channels"


class SimilarityEngine(StreamedChannelQueries):
    """Owns similarity state and top-k candidates for one alignment model.

    One engine is created per :class:`JointAlignmentModel` (available as
    ``model.similarity``); the trainer, the active loop, pool building,
    evaluation, serving exports and the inference-power estimator all read
    through it.  ``rows``, ``row_col_max``, ``threshold_candidates`` and
    ``pair_probabilities`` are the streamed queries of
    :class:`~repro.runtime.backends.StreamedChannelQueries` over
    :meth:`channels`.
    """

    def __init__(self, model: "JointAlignmentModel", block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.model = model
        self.block_size = block_size
        self._matrices: dict[object, tuple[tuple[int, ...], np.ndarray]] = {}
        self._channel_cache: dict[object, tuple[tuple[int, ...], CosineChannels]] = {}
        self._top_k: dict[tuple[ElementKind, int], tuple[tuple[int, ...], TopKTable]] = {}
        self.compute_counts: dict[ElementKind, int] = {kind: 0 for kind in ElementKind}

    # ----------------------------------------------------------------- state
    def state_token(self) -> tuple[int, int, int]:
        """The full (parameter, snapshot, landmark) version triple."""
        model = self.model
        return (parameter_version(), model.snapshot_version, model.landmark_version)

    def _token_for(self, key: object) -> tuple[int, ...]:
        """The version token ``key`` depends on.

        Only the entity similarity reads the structural channel, so only its
        matrix and channels are keyed on the landmark version; the relation
        and class similarities survive landmark updates.
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
        self._channel_cache.clear()
        self._top_k.clear()

    def export_state(self) -> dict[ElementKind, SimilarityView]:
        """Frozen serving views of all three similarities.

        The views share the immutable channel factors (and kept tile) and
        collect fold-ins in small tail arrays of their own.
        """
        return {
            kind: StreamedView(self.channels(kind), block_size=self.block_size)
            for kind in ElementKind
        }

    # ----------------------------------------------------------------- cache
    def _cached(self, key: object) -> np.ndarray | None:
        entry = self._matrices.get(key)
        if entry is not None and entry[0] == self._token_for(key):
            return entry[1]
        return None

    def matrix(self, kind: ElementKind) -> np.ndarray:
        """The full similarity matrix of ``kind`` (cached; treat as read-only).

        The accessor for baselines and tests that read a whole matrix: it
        *assembles* the full matrix from the channels, so production query
        paths use the narrow surface (``top_k`` / ``rows`` / ``row_col_max``)
        instead.
        """
        cached = self._cached(kind)
        if cached is not None:
            obs.counter("similarity.cache.hits", kind=kind.value, cache="matrix").inc()
            return cached
        obs.counter("similarity.cache.misses", kind=kind.value, cache="matrix").inc()
        with obs.span("similarity.matrix.rebuild", kind=kind.value):
            matrix = self.compute_full(kind)
        # Token is read *after* computing: the computation may lazily refresh
        # the snapshot, which bumps the model's snapshot version.
        self._matrices[kind] = (self._token_for(kind), matrix)
        self.compute_counts[kind] += 1
        obs.counter("similarity.cache.rebuilds", kind=kind.value, cache="matrix").inc()
        return matrix

    # ---------------------------------------------------------------- queries
    def _channels(self, kind: ElementKind) -> CosineChannels:
        return self.channels(kind)

    @property
    def _block(self) -> int:
        return self.block_size

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
            table = super().top_k_table(kind, k)
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

        The single definition of every similarity, and the compute substrate
        of every query: every channel is a cosine of factor matrices — the
        mapped embedding channel, the structural propagation features, the
        mean-embedding channels — so arbitrary tiles can be produced without
        materialising anything ``N × M``.  A similarity that fits one block
        keeps its full tile with the channels, so the token's queries share
        one product and the next bump drops it with them.
        """
        key = (_CHANNELS, kind)
        entry = self._channel_cache.get(key)
        if entry is not None and entry[0] == self._token_for(key):
            obs.counter("similarity.cache.hits", kind=kind.value, cache="channels").inc()
            return entry[1]
        snap = self.model.snapshot  # may bump the snapshot version: build after
        entry = self._channel_cache.get(key)
        if entry is not None and entry[0] == self._token_for(key):
            obs.counter("similarity.cache.hits", kind=kind.value, cache="channels").inc()
            return entry[1]
        obs.counter("similarity.cache.misses", kind=kind.value, cache="channels").inc()
        if kind is ElementKind.ENTITY:
            return self.entity_channels(snap.entity_matrix_1, snap.entity_matrix_2)
        return self._keep(kind, self._build_channels(kind, snap))

    def entity_channels(self, e1: np.ndarray, e2: np.ndarray) -> CosineChannels:
        """The entity channels over the entity matrices ``e1`` / ``e2``, cached.

        :meth:`JointAlignmentModel.refresh_statistics` streams the
        dangling-entity weights from these, called with the matrices of the
        snapshot it is building after it bumps the snapshot version: so they
        are cached under the token that holds once the refresh ends, and the
        entity queries of that token reuse them and their kept tile.
        """
        with no_grad():
            # single source of truth for the entity decomposition
            channels = self.model.entity_channel_factors(e1, e2)
        return self._keep(ElementKind.ENTITY, channels)

    def _keep(self, kind: ElementKind, channels: CosineChannels) -> CosineChannels:
        """Keep ``channels``' tile and cache them under ``kind``'s current token."""
        key = (_CHANNELS, kind)
        channels.keep_tile(self.block_size)
        self._channel_cache[key] = (self._token_for(key), channels)
        obs.counter("similarity.cache.rebuilds", kind=kind.value, cache="channels").inc()
        return channels

    def _build_channels(self, kind: ElementKind, snap: "AlignmentSnapshot") -> CosineChannels:
        """The relation or class channels over ``snap``."""
        model = self.model
        with no_grad():
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
