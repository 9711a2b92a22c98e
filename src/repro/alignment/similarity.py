"""The :class:`SimilarityEngine`: versioned, streamed similarity queries.

Every hot path of the active alignment loop — hard-negative mining,
semi-supervised mining, calibrated probability lookups, pool building and
progressive evaluation — reads element similarities through this engine.  The
engine owns the *versioning* contract (below) and the similarity's one
definition, its *channel factors* (:meth:`SimilarityEngine.channels`).  Every
query is inherited from
:class:`~repro.runtime.merge.MergedSimilarityState`, the streamed query
surface a merged campaign answers with too: row-block × column-block cosine
tiles with per-row running top-k merges, so peak memory stays
``O(block² + N·k)``.  When a matrix fits one block, the channels of a version
token keep their one full tile and every query of that token slices it
instead of recomputing products.

Consumers therefore use the narrow query surface — ``top_k`` /
``top_k_table``, ``rows``, ``row_col_max``, ``threshold_candidates``,
``pair_probabilities``, ``export_state`` — rather than ``matrix``.
``matrix`` is the accessor for the baselines and tests that read a whole
matrix once: it *assembles* the matrix from the channels (a matrix that fits
one block is the kept tile itself), which defeats the memory bound on large
pairs, so no production query path calls it.

Caching / versioning contract
-----------------------------

The engine caches one thing: each kind's channel set, with its kept tile,
under a *version token* built from:

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

Between two bumps the engine serves the same channels over and over (treat
returned arrays as read-only); within one optimiser step a channel set and
its kept tile are computed at most once, no matter how many call sites ask
for them.  Query results (top-k tables, row slabs, candidates) are not
cached: each call streams them from the token's channels, which for a
matrix that fits one block means slicing the kept tile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

import repro.obs as obs
from repro.autograd.tensor import no_grad
from repro.kg.elements import ElementKind
from repro.nn.optim import parameter_version
from repro.runtime.merge import MergedSimilarityState
from repro.runtime.streaming import ChannelPair, CosineChannels

if TYPE_CHECKING:  # pragma: no cover - import cycle with model.py
    from repro.alignment.model import AlignmentSnapshot, JointAlignmentModel

DEFAULT_BLOCK_SIZE = 4096


class SimilarityEngine(MergedSimilarityState):
    """Owns the versioned similarity channels of one alignment model.

    One engine is created per :class:`JointAlignmentModel` (available as
    ``model.similarity``); the trainer, the active loop, pool building,
    evaluation, serving exports and the inference-power estimator all read
    through it.  It overrides only how channels are built (:meth:`channels`,
    cached per version token, :meth:`_token_for`); every query is the
    inherited streamed surface.
    """

    def __init__(self, model: "JointAlignmentModel", block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        super().__init__({}, block_size)
        self.model = model
        self._channel_cache: dict[ElementKind, tuple[tuple[int, ...], CosineChannels]] = {}

    # ----------------------------------------------------------------- state
    def state_token(self) -> tuple[int, int, int]:
        """The full (parameter, snapshot, landmark) version triple."""
        model = self.model
        return (parameter_version(), model.snapshot_version, model.landmark_version)

    def _token_for(self, kind: ElementKind) -> tuple[int, ...]:
        """The version token ``kind``'s channels depend on.

        Only the entity similarity reads the structural channel, so only it
        is keyed on the landmark version; the relation and class similarities
        survive landmark updates.
        """
        if kind is ElementKind.ENTITY:
            return self.state_token()
        return (parameter_version(), self.model.snapshot_version)

    @property
    def snapshot(self) -> "AlignmentSnapshot":
        """The model's NumPy snapshot (single access point for consumers)."""
        return self.model.snapshot

    def invalidate(self) -> None:
        """Drop every cached channel set."""
        self._channel_cache.clear()

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
        entry = self._channel_cache.get(kind)
        if entry is not None and entry[0] == self._token_for(kind):
            obs.counter("similarity.cache.hits", kind=kind.value, cache="channels").inc()
            return entry[1]
        snap = self.model.snapshot  # may bump the snapshot version: build after
        entry = self._channel_cache.get(kind)
        if entry is not None and entry[0] == self._token_for(kind):
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
        channels.keep_tile(self.block_size)
        self._channel_cache[kind] = (self._token_for(kind), channels)
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
                shape = (model.kg1.num_relations, model.kg2.num_relations)
                return CosineChannels(pairs, shape=shape)
            # classes
            shape = (model.kg1.num_classes, model.kg2.num_classes)
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
