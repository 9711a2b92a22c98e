"""The joint alignment model (Sect. 4.2).

Entities, relations and classes of two KGs are compared in a shared space by
learnable mapping matrices:

* ``S(e, e') = cos(A_ent · e, e')`` (Eq. 4),
* ``S(r, r') = max(cos(A_rel · r, r'), cos(A_ent · r̄, r̄'))`` where ``r̄`` are
  weighted mean relation embeddings (Eq. 7),
* ``S(c, c') = max(cos(A_cls · c, c'), cos(A_ent · c̄, c̄'))`` where ``c̄`` are
  weighted mean class embeddings (Eq. 9).

Two ablations from the paper are supported directly:

* ``use_mean_embeddings=False`` drops the second channel of the schema
  similarities ("w/o mean embeddings" in Table 5),
* passing ``class_entity_maps`` instead of class scorers treats classes as
  ordinary entities ("w/o class embeddings"): class similarity then reads the
  entity channel at the pseudo-entity rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.alignment.mean_embeddings import (
    mean_class_embeddings,
    mean_relation_embeddings,
)
from repro.alignment.propagation import StructuralPropagation
from repro.alignment.similarity import SimilarityEngine
from repro.embedding.base import KGEmbeddingModel
from repro.embedding.entity_class import EntityClassScorer
from repro.kg.elements import ElementKind
from repro.kg.pair import AlignedKGPair
from repro.nn.init import identity_with_noise
from repro.nn.module import Module, Parameter
from repro.runtime.streaming import ChannelPair, CosineChannels, stream_row_col_max
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class AlignmentSnapshot:
    """Cached NumPy state shared by similarity matrices and mean embeddings."""

    entity_matrix_1: np.ndarray
    entity_matrix_2: np.ndarray
    relation_matrix_1: np.ndarray
    relation_matrix_2: np.ndarray
    weights_1: np.ndarray
    weights_2: np.ndarray
    mean_relations_1: np.ndarray
    mean_relations_2: np.ndarray
    mean_classes_1: np.ndarray
    mean_classes_2: np.ndarray


class JointAlignmentModel(Module):
    """Aligns two embedded KGs with mapping matrices and cosine similarities."""

    def __init__(
        self,
        pair: AlignedKGPair,
        model1: KGEmbeddingModel,
        model2: KGEmbeddingModel,
        class_scorer1: EntityClassScorer | None = None,
        class_scorer2: EntityClassScorer | None = None,
        class_entity_maps: tuple[np.ndarray, np.ndarray] | None = None,
        use_mean_embeddings: bool = True,
        use_structural_channel: bool = True,
        propagation_hops: int = 3,
        propagation_alpha: float = 0.6,
        rng: RandomState = None,
    ) -> None:
        if model1.dim != model2.dim:
            raise ValueError("both embedding models must share the entity dimension")
        if (class_scorer1 is None) != (class_scorer2 is None):
            raise ValueError("provide class scorers for both KGs or neither")
        rng = ensure_rng(rng)
        self.pair = pair
        self.kg1 = pair.kg1
        self.kg2 = pair.kg2
        self.model1 = model1
        self.model2 = model2
        self.class_scorer1 = class_scorer1
        self.class_scorer2 = class_scorer2
        self.class_entity_maps = class_entity_maps
        self.use_mean_embeddings = use_mean_embeddings
        self.use_class_embeddings = class_scorer1 is not None
        self.use_structural_channel = use_structural_channel
        self._propagation = (
            StructuralPropagation(self.kg1, self.kg2, hops=propagation_hops, alpha=propagation_alpha)
            if use_structural_channel
            else None
        )
        self._landmarks = np.empty((0, 2), dtype=np.int64)
        self._structural_factors: tuple[np.ndarray, np.ndarray] | None = None
        self._snapshot_version = 0
        self._landmark_version = 0
        self.similarity = SimilarityEngine(self)

        entity_dim = model1.dim
        relation_dim = model1.relation_matrix().shape[1] if self.kg1.num_relations else entity_dim
        self.map_entity = Parameter(identity_with_noise(entity_dim, rng=rng), name="A_ent")
        self.map_relation = Parameter(identity_with_noise(relation_dim, rng=rng), name="A_rel")
        if self.use_class_embeddings:
            class_dim = class_scorer1.class_embedding_dim
            self.map_class = Parameter(identity_with_noise(class_dim, rng=rng), name="A_cls")
        else:
            self.map_class = None
        self._snapshot: AlignmentSnapshot | None = None

    # ------------------------------------------------------------- snapshotting
    def refresh_statistics(self) -> AlignmentSnapshot:
        """Recompute the NumPy caches: entity weights and mean embeddings.

        Called once per training round and before building similarity
        matrices; these quantities are treated as constants by the optimiser.
        The four matrix reads below are served by one cached forward per
        model (``KGEmbeddingModel.outputs``, not four separate forwards).

        The dangling-entity weights (Eq. 6) are the per-row / per-column
        maxima of the entity channels, streamed in one tile sweep, so no
        ``N × M`` matrix is materialised; ``max`` is order-independent, so
        they equal the maxima of the assembled matrix exactly.  The snapshot
        version is bumped first, so the engine caches these channels
        (:meth:`SimilarityEngine.entity_channels`) under the token that holds
        after this refresh, and that token's entity queries reuse them.
        """
        self._snapshot_version += 1
        with no_grad():
            e1 = self.model1.entity_matrix()
            e2 = self.model2.entity_matrix()
            r1 = self.model1.relation_matrix()
            r2 = self.model2.relation_matrix()
            channels = self.similarity.entity_channels(e1, e2)
            w1, w2 = (
                np.clip(m, 0.0, 1.0)
                for m in stream_row_col_max(channels, self.similarity.block_size)
            )
            mean_rel1 = mean_relation_embeddings(self.kg1, self.model1, e1, w1)
            mean_rel2 = mean_relation_embeddings(self.kg2, self.model2, e2, w2)
            mean_cls1 = mean_class_embeddings(self.kg1, e1, w1)
            mean_cls2 = mean_class_embeddings(self.kg2, e2, w2)
        self._snapshot = AlignmentSnapshot(
            entity_matrix_1=e1,
            entity_matrix_2=e2,
            relation_matrix_1=r1,
            relation_matrix_2=r2,
            weights_1=w1,
            weights_2=w2,
            mean_relations_1=mean_rel1,
            mean_relations_2=mean_rel2,
            mean_classes_1=mean_cls1,
            mean_classes_2=mean_cls2,
        )
        return self._snapshot

    def entity_channel_factors(self, e1: np.ndarray, e2: np.ndarray) -> CosineChannels:
        """The entity similarity as cosine channel factors.

        The single definition of the entity similarity: the mapped embedding
        channel plus (when the structural channel is enabled) the
        propagation features, with ``clip_at_zero`` standing in for the
        all-zero structural channel before any landmarks exist.  The
        engine's entity channels (:meth:`SimilarityEngine.entity_channels`),
        which every entity query and the dangling-entity weights of
        :meth:`refresh_statistics` stream from, build from here.
        """
        pairs = [ChannelPair.from_raw(e1 @ self.map_entity.data, e2)]
        clip = False
        factors = self.structural_factors()
        if factors is not None:
            p1, p2 = factors
            if p1.shape[1] == 0:
                clip = True
            else:
                pairs.append(ChannelPair.from_raw(p1, p2))
        return CosineChannels(pairs, clip_at_zero=clip)

    @property
    def snapshot(self) -> AlignmentSnapshot:
        if self._snapshot is None:
            return self.refresh_statistics()
        return self._snapshot

    # --------------------------------------------------- differentiable scores
    def entity_pair_similarity(self, pairs: np.ndarray) -> Tensor:
        """``S(e, e')`` for an ``(n, 2)`` array of (kg1 idx, kg2 idx) pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        e1 = self.model1.entity_output(pairs[:, 0])
        e2 = self.model2.entity_output(pairs[:, 1])
        return F.cosine_similarity_rows(e1 @ self.map_entity, e2)

    def relation_pair_similarity(self, pairs: np.ndarray) -> Tensor:
        """``S(r, r')`` for an ``(n, 2)`` array of relation index pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        r1 = self.model1.relation_output(pairs[:, 0])
        r2 = self.model2.relation_output(pairs[:, 1])
        direct = F.cosine_similarity_rows(r1 @ self.map_relation, r2)
        if not self.use_mean_embeddings:
            return direct
        snap = self.snapshot
        m1 = Tensor(snap.mean_relations_1[pairs[:, 0]])
        m2 = Tensor(snap.mean_relations_2[pairs[:, 1]])
        mean_sim = F.cosine_similarity_rows(m1 @ self.map_entity, m2)
        return F.maximum(direct, mean_sim)

    def class_pair_similarity(self, pairs: np.ndarray) -> Tensor:
        """``S(c, c')`` for an ``(n, 2)`` array of class index pairs."""
        pairs = np.asarray(pairs, dtype=np.int64)
        channels: list[Tensor] = []
        if self.use_class_embeddings:
            c1 = self.class_scorer1.class_embedding(pairs[:, 0])
            c2 = self.class_scorer2.class_embedding(pairs[:, 1])
            channels.append(F.cosine_similarity_rows(c1 @ self.map_class, c2))
        elif self.class_entity_maps is not None:
            map1, map2 = self.class_entity_maps
            e1 = self.model1.entity_output(map1[pairs[:, 0]])
            e2 = self.model2.entity_output(map2[pairs[:, 1]])
            channels.append(F.cosine_similarity_rows(e1 @ self.map_entity, e2))
        if self.use_mean_embeddings:
            snap = self.snapshot
            m1 = Tensor(snap.mean_classes_1[pairs[:, 0]])
            m2 = Tensor(snap.mean_classes_2[pairs[:, 1]])
            channels.append(F.cosine_similarity_rows(m1 @ self.map_entity, m2))
        if not channels:
            raise RuntimeError(
                "class similarity needs class scorers, class_entity_maps or mean embeddings"
            )
        result = channels[0]
        for channel in channels[1:]:
            result = F.maximum(result, channel)
        return result

    def pair_similarity(self, kind: ElementKind, pairs: np.ndarray) -> Tensor:
        """Dispatch on the element kind (used by the active-learning loop)."""
        if kind is ElementKind.ENTITY:
            return self.entity_pair_similarity(pairs)
        if kind is ElementKind.RELATION:
            return self.relation_pair_similarity(pairs)
        return self.class_pair_similarity(pairs)

    # ------------------------------------------------------ structural channel
    def set_landmarks(self, pairs: np.ndarray) -> None:
        """Update the landmark set feeding the structural propagation channel.

        Called by the trainer with the union of labelled entity matches and
        mined potential matches whenever statistics are refreshed; the
        propagation is recomputed lazily the next time the entity channels
        are built (:meth:`structural_factors`).
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if np.array_equal(pairs, self._landmarks):
            return  # unchanged landmarks must not invalidate cached matrices
        self._landmarks = pairs
        self._structural_factors = None
        self._landmark_version += 1

    def structural_factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Propagated landmark features ``(p1, p2)`` (None if channel disabled).

        The structural channel is the cosine of these factors; it enters the
        entity similarity only through :meth:`entity_channel_factors`, so no
        ``|E1| × |E2|`` propagation matrix is ever held on its own.
        """
        if self._propagation is None:
            return None
        if self._structural_factors is None:
            self._structural_factors = self._propagation.propagate(self._landmarks)
        return self._structural_factors

    # ------------------------------------------------------ similarity matrices
    # All full-matrix computation lives in the SimilarityEngine, which keys
    # its state on the (parameter, snapshot, landmark) version triple; these
    # accessors read its matrices by kind.  A matrix that fits one block is a
    # read-only view of the engine's kept tile.
    @property
    def snapshot_version(self) -> int:
        """Bumped by ``refresh_statistics``; part of every engine cache token."""
        return self._snapshot_version

    @property
    def landmark_version(self) -> int:
        """Bumped by effective ``set_landmarks`` calls; only the entity matrix
        depends on it (through the structural propagation channel)."""
        return self._landmark_version

    def entity_similarity_matrix(self) -> np.ndarray:
        """Full ``|E1| × |E2|`` similarity matrix (NumPy, no gradients).

        The entity similarity is the element-wise maximum of the embedding
        channel and the structural propagation channel, mirroring how the
        schema similarities combine their direct and mean-embedding channels.
        """
        return self.similarity.matrix(ElementKind.ENTITY)

    def relation_similarity_matrix(self) -> np.ndarray:
        """Full ``|R1| × |R2|`` similarity matrix using both channels."""
        return self.similarity.matrix(ElementKind.RELATION)

    def class_similarity_matrix(self) -> np.ndarray:
        """Full ``|C1| × |C2|`` similarity matrix using the configured channels."""
        return self.similarity.matrix(ElementKind.CLASS)

    def similarity_matrix(self, kind: ElementKind) -> np.ndarray:
        return self.similarity.matrix(kind)

    # -------------------------------------------------------------- utilities
    def entity_weight_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The dangling-entity weights ``w_e`` of both KGs (Eq. 6)."""
        snap = self.snapshot
        return snap.weights_1, snap.weights_2

    def parameter_summary(self) -> dict[str, int]:
        """Number of parameters per component (the paper's complexity analysis)."""
        summary = {
            "embedding_model_1": self.model1.num_parameters(),
            "embedding_model_2": self.model2.num_parameters(),
            "mapping_matrices": int(
                self.map_entity.size
                + self.map_relation.size
                + (self.map_class.size if self.map_class is not None else 0)
            ),
        }
        if self.use_class_embeddings:
            summary["class_scorers"] = (
                self.class_scorer1.num_parameters() + self.class_scorer2.num_parameters()
            )
        return summary
