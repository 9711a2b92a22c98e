"""Pluggable similarity backends: dense (cached N×M) and sharded.

The :class:`~repro.alignment.similarity.SimilarityEngine` delegates every
query to one of two backends behind a common, *narrow* surface — ``rows``,
``threshold_candidates``, ``top_k_table``, ``row_col_max``, ``view`` (a
frozen serving export) — so evaluation, semi-supervised mining and serving
answer the same way on either backend:

* :class:`DenseBackend` — the cached assembly of the channels: the engine's
  channel factors are assembled tile by tile into the full matrix once per
  version token (:func:`assemble_matrix`), and every query is an array
  slice.  It remains the default.
* :class:`ShardedBackend` — streaming: every query is answered from
  row-block × column-block cosine tiles produced on the fly from the engine's
  channel factors, with per-row running top-k merges.  Peak memory is
  ``O(block² + N·k)``; the ``N × M`` matrix is never materialised on any
  query path.  Row shards are swept one after another, and each row's merge
  happens entirely within its own shard.

Both backends read the same channel factors
(:meth:`~repro.alignment.similarity.SimilarityEngine.channels`), so at the
same block size their matrices are bit-identical.  Three reads of the entity
similarity in the DAAKG loop are backend methods of their own, because the
dense answer comes from a matrix it holds anyway and the streamed answer is
not bit-identical to it.  This module is the only place that chooses between
the two; figures are from the D-W benchmark fit (999×689 entities):

* ``entity_weights`` — the dangling-entity weights (Eq. 6) of
  ``JointAlignmentModel.refresh_statistics``.  Dense assembles the entity
  matrix for them and seeds the engine's cache with it; sharded streams the
  per-row / per-column maxima (exact, ``max`` is order-independent).
* ``pair_probabilities`` — the calibrated probabilities (Eqs. 11–12) read by
  ``AlignmentCalibrator.pair_probabilities_from_engine``: the streamed
  softmax differs from the dense one in the last ulp (up to 2.8e-16 on the
  entity pairs of a ``top_n=50`` pool).
* ``mutual_top_n`` — the Sect. 6.1 pool filter of ``build_pool``: the
  streamed mutual top-N keeps a different pair at ties on the top-N boundary
  (23 of 1,312 pairs at ``top_n=10``, 133 of 13,699 at ``top_n=50``).

Backend selection: ``DAAKGConfig.similarity_backend`` chooses per pipeline,
and the ``REPRO_SIMILARITY_BACKEND`` environment variable overrides it
globally (that is how CI runs the whole tier-1 suite against the sharded
runtime without touching any test).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.streaming import (
    CosineChannels,
    _as_blocks,
    mutual_top_n,
    stream_row_col_max,
    stream_threshold_candidates,
    stream_topk,
)
from repro.runtime.views import DenseView, SimilarityView, StreamedView
from repro.utils.math import cosine_similarity_matrix, softmax, top_k_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle with similarity.py
    from repro.alignment.similarity import SimilarityEngine
    from repro.kg.elements import ElementKind

BACKEND_NAMES = ("dense", "sharded")
BACKEND_ENV = "REPRO_SIMILARITY_BACKEND"


def assemble_matrix(channels: CosineChannels, block: int) -> np.ndarray:
    """The full matrix of ``channels``, assembled from ``block``-sized tiles.

    A matrix that fits one tile is that tile itself (no copy); larger ones
    are written tile by tile into one ``N × M`` array.
    """
    if channels.num_rows <= block and channels.num_cols <= block:
        return channels.tile(slice(None), slice(None))
    out = np.empty(channels.shape)
    for rs in _as_blocks(channels.num_rows, block):
        for cs in _as_blocks(channels.num_cols, block):
            out[rs, cs] = channels.tile(rs, cs)
    return out


def resolve_backend_name(configured: str | None = None) -> str:
    """The effective backend name: env override first, then config, then dense."""
    name = os.environ.get(BACKEND_ENV, "").strip().lower() or (configured or "dense").lower()
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown similarity backend {name!r}; expected one of {BACKEND_NAMES}")
    return name


@dataclass(frozen=True)
class TopKTable:
    """Per-row and per-column top-k candidates with their similarity values."""

    left_indices: np.ndarray  # (N, k) best KG2 columns per KG1 row, descending
    left_values: np.ndarray
    right_indices: np.ndarray  # (M, k) best KG1 rows per KG2 column, descending
    right_values: np.ndarray


class SimilarityBackend:
    """A backend bound to one engine.

    Both backends answer ``compute_full``, ``rows``, ``top_k_table``,
    ``row_col_max``, ``threshold_candidates``, ``view`` and the three loop
    reads (``entity_weights``, ``pair_probabilities``, ``mutual_top_n``).
    """

    name: str = "abstract"

    def __init__(self, engine: "SimilarityEngine") -> None:
        self.engine = engine


class DenseBackend(SimilarityBackend):
    """The channels assembled into a cached full matrix; every query is a slice."""

    name = "dense"

    def compute_full(self, kind: "ElementKind") -> np.ndarray:
        return assemble_matrix(self.engine.channels(kind), self.engine.block_size)

    def matrix(self, kind: "ElementKind") -> np.ndarray:
        """The engine's *cached* full matrix (one compute per version token)."""
        return self.engine.matrix(kind)

    def rows(self, kind: "ElementKind", indices: np.ndarray) -> np.ndarray:
        return self.matrix(kind)[np.asarray(indices, dtype=np.int64)]

    def top_k_table(self, kind, k: int) -> TopKTable:
        matrix = self.matrix(kind)
        left = top_k_rows(matrix, k)
        right = top_k_rows(matrix.T, k)
        rows_l = np.arange(matrix.shape[0])[:, None]
        rows_r = np.arange(matrix.shape[1])[:, None]
        return TopKTable(
            left_indices=left,
            left_values=matrix[rows_l, left] if left.size else np.empty(left.shape),
            right_indices=right,
            right_values=matrix.T[rows_r, right] if right.size else np.empty(right.shape),
        )

    def row_col_max(self, kind) -> tuple[np.ndarray, np.ndarray]:
        matrix = self.matrix(kind)
        if matrix.size == 0:
            return np.zeros(matrix.shape[0]), np.zeros(matrix.shape[1])
        return matrix.max(axis=1), matrix.max(axis=0)

    def threshold_candidates(self, kind, threshold):
        # same row-major (row, col) order as the streamed collector
        rows, cols = np.nonzero(self.matrix(kind) >= threshold)
        return rows, cols, self.matrix(kind)[rows, cols]

    def view(self, kind) -> SimilarityView:
        # serving appends fold-in rows/columns, so never alias the cache
        return DenseView(self.matrix(kind).copy())

    # ------------------------------------------------------ DAAKG loop reads
    def entity_weights(self, channels: CosineChannels) -> tuple[np.ndarray, np.ndarray]:
        """Dangling-entity weights (Eq. 6) from the assembled entity matrix.

        Called inside ``refresh_statistics``, after it bumps the snapshot
        version: the matrix assembled for the weights seeds the engine's
        entity cache under the token that holds once the refresh ends, so
        the following round of mining and evaluation gets cache hits for
        free.
        """
        from repro.alignment.mean_embeddings import entity_weights  # import cycle

        combined = assemble_matrix(channels, self.engine.block_size)
        self.engine.seed_entity_cache(combined)
        return entity_weights(combined)

    def pair_probabilities(
        self, kind, lefts: np.ndarray, rights: np.ndarray, temperature: float
    ) -> np.ndarray:
        """Eq. 12 probabilities of index pairs, from slices of the cached matrix."""
        # Row direction: dedupe before gathering — pool lookups repeat
        # rows heavily (cross-product schema pools), softmax is per-row,
        # and a gathered row reduces bit-identically to the same row of
        # the full matrix.  Column direction: softmax the full matrix —
        # a column-sliced reduction can round differently in the last
        # ulp, and this path must stay bit-exact with the historical
        # probability_matrix lookup (the matrix is materialised on this
        # backend anyway, so this is the pre-backend cost, not more).
        matrix = self.matrix(kind)
        unique_l, inverse_l = np.unique(lefts, return_inverse=True)
        row = softmax(matrix[unique_l], axis=1, temperature=temperature)
        col = softmax(matrix, axis=0, temperature=temperature)
        return np.minimum(row[inverse_l, rights], col[lefts, rights])

    def mutual_top_n(
        self, left_factors: np.ndarray, right_factors: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mutually top-``n`` cosine pairs of two factor matrices, row-major."""
        similarity = cosine_similarity_matrix(left_factors, right_factors)
        # Mutual top-N filter, vectorized: a pair survives when each side
        # ranks the other, i.e. both boolean membership masks are set.
        top_for_left = top_k_rows(similarity, n)
        top_for_right = top_k_rows(similarity.T, n)
        in_left_top = np.zeros(similarity.shape, dtype=bool)
        if top_for_left.size:
            in_left_top[np.arange(similarity.shape[0])[:, None], top_for_left] = True
        in_right_top = np.zeros(similarity.shape, dtype=bool)
        if top_for_right.size:
            in_right_top[top_for_right, np.arange(similarity.shape[1])[:, None]] = True
        return np.nonzero(in_left_top & in_right_top)


class StreamedChannelQueries:
    """Streamed query surface over factored cosine channels (shared mixin).

    Everything is expressed through two accessors — ``_channels(kind)`` and
    ``_block`` — so the sharded backend (live engine state) and
    the campaign merge layer's frozen :class:`~repro.runtime.merge.
    MergedSimilarityState` answer queries through the *same* code; a fix to
    the streamed kernels' call sites lands in both automatically.
    """

    def _channels(self, kind: "ElementKind") -> CosineChannels:
        raise NotImplementedError

    @property
    def _block(self) -> int:
        raise NotImplementedError

    def compute_full(self, kind) -> np.ndarray:
        return assemble_matrix(self._channels(kind), self._block)

    def rows(self, kind, indices) -> np.ndarray:
        channels = self._channels(kind)
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((indices.shape[0], channels.num_cols))
        for cs, tile in self.iter_rows_blocks(kind, indices):
            out[:, cs] = tile
        return out

    def iter_rows_blocks(self, kind, indices):
        """Column-block tiles ``(col_slice, tile)`` of the selected rows."""
        # gather the selected row factors once, then slice per column block
        selected = self._channels(kind).select_rows(np.asarray(indices, dtype=np.int64))
        for cs in _as_blocks(selected.num_cols, self._block):
            yield cs, selected.tile(slice(None), cs)

    def iter_cols_blocks(self, kind, indices):
        """Row-block tiles ``(row_slice, tile)`` of the selected columns."""
        selected = self._channels(kind).select_cols(np.asarray(indices, dtype=np.int64))
        for rs in _as_blocks(selected.num_rows, self._block):
            yield rs, selected.tile(rs, slice(None))

    def top_k_table(self, kind, k: int) -> TopKTable:
        channels = self._channels(kind)
        left_idx, left_val = stream_topk(channels, k, self._block)
        right_idx, right_val = stream_topk(channels.transpose(), k, self._block)
        return TopKTable(left_idx, left_val, right_idx, right_val)

    def row_col_max(self, kind) -> tuple[np.ndarray, np.ndarray]:
        return stream_row_col_max(self._channels(kind), self._block)

    def threshold_candidates(self, kind, threshold):
        return stream_threshold_candidates(self._channels(kind), threshold, self._block)

    def pair_probabilities(
        self, kind, lefts: np.ndarray, rights: np.ndarray, temperature: float
    ) -> np.ndarray:
        """Eq. 12 probabilities of index pairs, each direction from streamed tiles.

        Only the rows/columns the requested pairs touch are normalised, in
        row chunks of the block size — peak memory ``O(block²)``, never
        ``N × M``.
        """
        row_dir = self._directional_probabilities(kind, lefts, rights, temperature, False)
        col_dir = self._directional_probabilities(kind, rights, lefts, temperature, True)
        return np.minimum(row_dir, col_dir)

    def _directional_probabilities(
        self,
        kind,
        axis_indices: np.ndarray,
        other_indices: np.ndarray,
        temperature: float,
        transpose: bool,
    ) -> np.ndarray:
        """One softmax direction of Eq. 11 from streamed tiles.

        ``axis_indices[i]`` names the row (or column, when ``transpose``) being
        normalised and ``other_indices[i]`` the position whose probability is
        requested.  The unique normalised rows are processed in chunks of the
        block size, with two tile passes per chunk — a max pass, then an
        exp-sum pass that also gathers each pair's logit — so peak memory is
        ``O(block²)`` no matter how many rows the pool touches.  Reductions
        accumulate block-partial sums, so results can differ from the dense
        softmax in the last ulp — acceptable on the streamed path, whose tiles
        already round differently.
        """
        unique_axis, axis_pos = np.unique(axis_indices, return_inverse=True)
        iter_blocks = self.iter_cols_blocks if transpose else self.iter_rows_blocks
        chunk = max(int(self._block), 1)
        probabilities = np.empty(axis_indices.shape[0])
        for start in range(0, unique_axis.shape[0], chunk):
            chunk_slice = slice(start, min(start + chunk, unique_axis.shape[0]))
            chunk_rows = unique_axis[chunk_slice]
            in_chunk = (axis_pos >= chunk_slice.start) & (axis_pos < chunk_slice.stop)
            chunk_pos = axis_pos[in_chunk] - chunk_slice.start
            chunk_other = other_indices[in_chunk]

            def tiles():
                for block_slice, tile in iter_blocks(kind, chunk_rows):
                    yield block_slice, (tile.T if transpose else tile)

            m = chunk_rows.shape[0]
            maxima = np.full(m, -np.inf)
            for _, tile in tiles():
                np.maximum(maxima, (tile / temperature).max(axis=1), out=maxima)
            sums = np.zeros(m)
            pair_logits = np.empty(chunk_other.shape[0])
            for block_slice, tile in tiles():
                z = tile / temperature - maxima[:, None]
                sums += np.exp(z).sum(axis=1)
                in_block = (chunk_other >= block_slice.start) & (chunk_other < block_slice.stop)
                if np.any(in_block):
                    pair_logits[in_block] = z[
                        chunk_pos[in_block], chunk_other[in_block] - block_slice.start
                    ]
            probabilities[in_chunk] = np.exp(pair_logits) / sums[chunk_pos]
        return probabilities


class ShardedBackend(StreamedChannelQueries, SimilarityBackend):
    """Streaming tiles + running top-k; never materialises N×M on query paths.

    ``SimilarityEngine.matrix`` still assembles the full matrix (by
    streaming) for the baselines and tests that read one; none of the
    production query paths use it.
    """

    name = "sharded"

    def _channels(self, kind: "ElementKind") -> CosineChannels:
        return self.engine.channels(kind)

    @property
    def _block(self) -> int:
        return self.engine.block_size

    def view(self, kind) -> SimilarityView:
        # channels hold freshly-normalised factor copies; StreamedView never
        # mutates them (fold-ins land in tail arrays), so sharing is safe
        return StreamedView(self._channels(kind), block_size=self._block)

    # ------------------------------------------------------ DAAKG loop reads
    def entity_weights(self, channels: CosineChannels) -> tuple[np.ndarray, np.ndarray]:
        """Dangling-entity weights (Eq. 6) from streamed tile maxima.

        Streams per-row / per-column maxima of the entity channels (built by
        the caller: the engine's channel cache reads the snapshot, which is
        mid-update here); ``max`` is order-independent, so the result matches
        the dense path exactly.
        """
        num_rows, num_cols = channels.shape
        if num_rows == 0 or num_cols == 0:
            return np.zeros(num_rows), np.zeros(num_cols)
        w1, w2 = stream_row_col_max(channels, self._block)
        return np.clip(w1, 0.0, 1.0), np.clip(w2, 0.0, 1.0)

    def mutual_top_n(
        self, left_factors: np.ndarray, right_factors: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mutually top-``n`` cosine pairs: two streamed top-``n`` passes."""
        return mutual_top_n(left_factors, right_factors, n, self._block)


def create_backend(engine: "SimilarityEngine", name: str) -> SimilarityBackend:
    if name == "dense":
        return DenseBackend(engine)
    if name == "sharded":
        return ShardedBackend(engine)
    raise ValueError(f"unknown similarity backend {name!r}; expected one of {BACKEND_NAMES}")
