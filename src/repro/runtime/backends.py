"""Pluggable similarity backends: dense (cached N×M) and sharded.

The :class:`~repro.alignment.similarity.SimilarityEngine` delegates every
query to one of two backends behind a common, *narrow* surface — ``rows``,
``cols``, ``stream_blocks``, ``threshold_candidates``, ``top_k_table``,
``row_max``/``col_max``, ``view`` (a frozen serving export) — so evaluation,
semi-supervised mining and serving answer the same way on either backend:

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
same block size their matrices are bit-identical.  Three consumers still
branch on ``backend_name == "dense"``, each because the streamed answer is
not bit-identical to the answer a dense matrix slice gives, or because the
dense path gets a matrix for free.  Figures are from the D-W benchmark
fit (999×689 entities):

* ``JointAlignmentModel`` (snapshot build) assembles the entity matrix for
  the dangling-entity weights anyway and seeds the dense cache with it.
* ``AlignmentCalibrator.pair_probabilities_from_engine``: the streamed
  softmax differs from the dense one in the last ulp (up to 2.8e-16 on the
  entity pairs of a ``top_n=50`` pool).
* ``build_pool``: the streamed mutual top-N keeps a different pair at ties
  on the top-N boundary (23 of 1,312 pairs at ``top_n=10``, 133 of 13,699
  at ``top_n=50``).

Backend selection: ``DAAKGConfig.similarity_backend`` chooses per pipeline,
and the ``REPRO_SIMILARITY_BACKEND`` environment variable overrides it
globally (that is how CI runs the whole tier-1 suite against the sharded
runtime without touching any test).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.runtime.streaming import (
    CosineChannels,
    _as_blocks,
    collect_threshold_candidates,
    stream_row_col_max,
    stream_row_max,
    stream_threshold_candidates,
    stream_topk,
)
from repro.runtime.views import DenseView, SimilarityView, StreamedView
from repro.utils.math import top_k_rows

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
    """Shared query surface; concrete backends fill in the primitives."""

    name: str = "abstract"

    def __init__(self, engine: "SimilarityEngine") -> None:
        self.engine = engine

    # -- primitives each backend must provide -------------------------------
    def compute_full(self, kind: "ElementKind") -> np.ndarray:
        """Compute the full matrix (called only by the engine's cached accessor)."""
        raise NotImplementedError

    def rows(self, kind: "ElementKind", indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cols(self, kind: "ElementKind", indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def iter_rows_blocks(
        self, kind: "ElementKind", indices: np.ndarray
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """Column-block tiles ``(col_slice, tile)`` of the selected rows."""
        raise NotImplementedError

    def iter_cols_blocks(
        self, kind: "ElementKind", indices: np.ndarray
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """Row-block tiles ``(row_slice, tile)`` of the selected columns."""
        raise NotImplementedError

    def stream_blocks(
        self, kind: "ElementKind"
    ) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """All ``(row_slice, col_slice, tile)`` tiles of the similarity."""
        raise NotImplementedError

    def top_k_table(self, kind: "ElementKind", k: int) -> TopKTable:
        raise NotImplementedError

    def row_max(self, kind: "ElementKind") -> np.ndarray:
        raise NotImplementedError

    def col_max(self, kind: "ElementKind") -> np.ndarray:
        raise NotImplementedError

    def row_col_max(self, kind: "ElementKind") -> tuple[np.ndarray, np.ndarray]:
        """Both directions at once (one fused sweep on streaming backends)."""
        return self.row_max(kind), self.col_max(kind)

    def threshold_candidates(
        self, kind: "ElementKind", threshold: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ``(rows, cols, values)`` with value ≥ threshold, row-major."""
        return collect_threshold_candidates(self.stream_blocks(kind), threshold)

    def view(self, kind: "ElementKind") -> SimilarityView:
        """A frozen, appendable serving view of the current similarity."""
        raise NotImplementedError


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

    def cols(self, kind: "ElementKind", indices: np.ndarray) -> np.ndarray:
        return self.matrix(kind)[:, np.asarray(indices, dtype=np.int64)]

    def iter_rows_blocks(self, kind, indices):
        slab = self.rows(kind, indices)
        for cs in _as_blocks(slab.shape[1], self.engine.block_size):
            yield cs, slab[:, cs]

    def iter_cols_blocks(self, kind, indices):
        slab = self.cols(kind, indices)
        for rs in _as_blocks(slab.shape[0], self.engine.block_size):
            yield rs, slab[rs]

    def stream_blocks(self, kind):
        matrix = self.matrix(kind)
        block = self.engine.block_size
        for rs in _as_blocks(matrix.shape[0], block):
            for cs in _as_blocks(matrix.shape[1], block):
                yield rs, cs, matrix[rs, cs]

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

    def row_max(self, kind) -> np.ndarray:
        matrix = self.matrix(kind)
        if matrix.size == 0:
            return np.zeros(matrix.shape[0])
        return matrix.max(axis=1)

    def col_max(self, kind) -> np.ndarray:
        matrix = self.matrix(kind)
        if matrix.size == 0:
            return np.zeros(matrix.shape[1])
        return matrix.max(axis=0)

    def threshold_candidates(self, kind, threshold):
        # same row-major (row, col) order as the streamed collector
        rows, cols = np.nonzero(self.matrix(kind) >= threshold)
        return rows, cols, self.matrix(kind)[rows, cols]

    def view(self, kind) -> SimilarityView:
        # serving appends fold-in rows/columns, so never alias the cache
        return DenseView(self.matrix(kind).copy())


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

    def _channels_cache_token(self, kind: "ElementKind"):
        """Cache token for per-kind derived channel state (None = immutable).

        Live backends override this with the engine's version token so a
        parameter/snapshot/landmark bump invalidates derived state; frozen
        holders (the campaign merge state) keep the immutable default.
        """
        return None

    def _transposed_channels(self, kind: "ElementKind") -> CosineChannels:
        """The kind's column-side channels, cached instead of rebuilt per query.

        Every column-direction query (``col_max``, the right half of
        ``top_k_table``) previously called ``channels.transpose()`` afresh;
        one token-checked cache entry per kind serves them all.
        """
        cache = self.__dict__.setdefault("_transposed_cache", {})
        token = self._channels_cache_token(kind)
        entry = cache.get(kind)
        if entry is not None and entry[0] == token:
            return entry[1]
        transposed = self._channels(kind).transpose()
        cache[kind] = (token, transposed)
        return transposed

    def compute_full(self, kind) -> np.ndarray:
        return assemble_matrix(self._channels(kind), self._block)

    def rows(self, kind, indices) -> np.ndarray:
        channels = self._channels(kind)
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((indices.shape[0], channels.num_cols))
        for cs, tile in self.iter_rows_blocks(kind, indices):
            out[:, cs] = tile
        return out

    def cols(self, kind, indices) -> np.ndarray:
        channels = self._channels(kind)
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((channels.num_rows, indices.shape[0]))
        for rs, tile in self.iter_cols_blocks(kind, indices):
            out[rs] = tile
        return out

    def iter_rows_blocks(self, kind, indices):
        # gather the selected row factors once, then slice per column block
        selected = self._channels(kind).select_rows(np.asarray(indices, dtype=np.int64))
        for cs in _as_blocks(selected.num_cols, self._block):
            yield cs, selected.tile(slice(None), cs)

    def iter_cols_blocks(self, kind, indices):
        selected = self._channels(kind).select_cols(np.asarray(indices, dtype=np.int64))
        for rs in _as_blocks(selected.num_rows, self._block):
            yield rs, selected.tile(rs, slice(None))

    def stream_blocks(self, kind):
        channels = self._channels(kind)
        block = self._block
        for rs in _as_blocks(channels.num_rows, block):
            for cs in _as_blocks(channels.num_cols, block):
                yield rs, cs, channels.tile(rs, cs)

    def top_k_table(self, kind, k: int) -> TopKTable:
        channels = self._channels(kind)
        left_idx, left_val = stream_topk(channels, k, self._block)
        right_idx, right_val = stream_topk(self._transposed_channels(kind), k, self._block)
        return TopKTable(left_idx, left_val, right_idx, right_val)

    def row_max(self, kind) -> np.ndarray:
        return stream_row_max(self._channels(kind), self._block)

    def col_max(self, kind) -> np.ndarray:
        return stream_row_max(self._transposed_channels(kind), self._block)

    def row_col_max(self, kind) -> tuple[np.ndarray, np.ndarray]:
        return stream_row_col_max(self._channels(kind), self._block)

    def threshold_candidates(self, kind, threshold):
        return stream_threshold_candidates(self._channels(kind), threshold, self._block)


class ShardedBackend(StreamedChannelQueries, SimilarityBackend):
    """Streaming tiles + running top-k; never materialises N×M on query paths.

    ``SimilarityEngine.matrix`` remains available as an explicitly-documented
    escape hatch for legacy full-matrix consumers (it assembles the matrix by
    streaming); none of the production query paths use it.
    """

    name = "sharded"

    def _channels(self, kind: "ElementKind") -> CosineChannels:
        return self.engine.channels(kind)

    @property
    def _block(self) -> int:
        return self.engine.block_size

    def _channels_cache_token(self, kind: "ElementKind"):
        return self.engine._token_for(kind)

    def view(self, kind) -> SimilarityView:
        # channels hold freshly-normalised factor copies; StreamedView never
        # mutates them (fold-ins land in tail arrays), so sharing is safe
        return StreamedView(self._channels(kind), block_size=self._block)


def create_backend(engine: "SimilarityEngine", name: str) -> SimilarityBackend:
    if name == "dense":
        return DenseBackend(engine)
    if name == "sharded":
        return ShardedBackend(engine)
    raise ValueError(f"unknown similarity backend {name!r}; expected one of {BACKEND_NAMES}")
