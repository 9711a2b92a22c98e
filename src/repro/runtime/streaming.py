"""Streaming factored-cosine kernels: tiles, running top-k, mutual top-N.

Every similarity matrix in this codebase is an element-wise maximum of
*factored cosines*: ``S = max_c  A_c · B_cᵀ`` where ``A_c`` / ``B_c`` are
row-normalised factor matrices (the mapped embedding channel, the structural
propagation features, the mean-embedding channels).  That factorisation is
what makes a streaming runtime possible at all: any ``rows × cols`` tile of
``S`` can be produced from ``O((rows + cols) · d)`` factor state without ever
materialising the ``N × M`` matrix.

This module hosts the kernels every similarity query runs on:

* :class:`CosineChannels` — a similarity matrix *described* by its channel
  factors; knows how to produce arbitrary tiles.  A matrix that fits one
  block can keep its one full tile (:meth:`CosineChannels.keep_tile`), so
  repeated queries slice it instead of recomputing products.
* :func:`assemble_matrix` — the whole matrix, for the few readers that need
  one (baselines, tests); a matrix that fits one block is its kept tile.
* :func:`stream_topk` — per-row running top-``k`` over column blocks with a
  canonical merge (value descending, column index ascending), swept one row
  shard at a time so peak memory stays ``O(block² + rows·k)``.
* :func:`stream_row_col_max` — streamed per-row and per-column maxima from
  one tile sweep (exact: ``max`` is order-independent).
* :func:`mutual_top_n` — the pool's mutual top-N filter from two streamed
  top-N passes plus one sorted intersection of their pair keys; peak memory is
  ``O(block² + (N + M)·n)``, never two ``N × M`` boolean masks.

Tie-breaking: selected candidates are always ordered canonically (*value
descending, then column index ascending*); exact ties at a selection
boundary are resolved the way ``np.argpartition`` partitions them —
arbitrary but deterministic.  A full sort of the assembled matrix therefore
agrees with the streamed selection whenever the competing values are
distinct, which holds for learned embeddings in practice (exact ties only
occur between structurally identical rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.math import safe_l2_normalize

DEFAULT_STREAM_BLOCK = 1024


def _as_blocks(n: int, block: int):
    """Yield ``slice`` objects covering ``range(n)`` in ``block``-sized steps."""
    for start in range(0, n, block):
        yield slice(start, min(start + block, n))


@dataclass(frozen=True)
class ChannelPair:
    """One cosine channel: row-normalised left and right factor matrices."""

    left: np.ndarray  # (N, d), unit rows (zero rows stay exactly zero)
    right: np.ndarray  # (M, d), unit rows

    @classmethod
    def from_raw(cls, left: np.ndarray, right: np.ndarray) -> "ChannelPair":
        """Normalise raw factors; zero-norm rows yield exactly-zero similarity."""
        return cls(safe_l2_normalize(left), safe_l2_normalize(right))


class CosineChannels:
    """A similarity matrix described as ``max`` over factored cosine channels.

    ``clip_at_zero`` adds an implicit all-zero channel — it reproduces the
    similarity's ``np.maximum(embedding_channel, zeros)`` when the structural
    channel exists but has no landmarks yet.

    ``shape`` must be given explicitly when there are no channels (e.g. the
    class similarity of a KG pair without classes), and otherwise defaults to
    the factor shapes.
    """

    def __init__(
        self,
        pairs: list[ChannelPair],
        shape: tuple[int, int] | None = None,
        clip_at_zero: bool = False,
        kept: np.ndarray | None = None,
    ) -> None:
        if not pairs and shape is None:
            raise ValueError("CosineChannels without channels needs an explicit shape")
        self.pairs = list(pairs)
        self.clip_at_zero = clip_at_zero
        if shape is None:
            shape = (pairs[0].left.shape[0], pairs[0].right.shape[0])
        self.shape = shape
        for pair in self.pairs:
            if (pair.left.shape[0], pair.right.shape[0]) != shape:
                raise ValueError("all channels must share the similarity shape")
        # the whole matrix, when :meth:`keep_tile` found it fits one block
        self._kept = kept

    def keep_tile(self, block: int) -> "CosineChannels":
        """Compute the one full tile now and keep it, if the matrix fits one block.

        Every later :meth:`tile`, :meth:`pair_values` and derived
        (:meth:`transpose`, :meth:`select_rows`, :meth:`select_cols`) query
        then slices the kept tile instead of recomputing products, so a
        version token's queries share one product — the memory stays within
        the ``O(block²)`` of a single streamed tile.  Larger matrices are left
        to stream.  The tile is read-only: callers share it.
        """
        if self._kept is None and self.num_rows <= block and self.num_cols <= block:
            kept = self.tile(slice(None), slice(None))
            kept.flags.writeable = False
            self._kept = kept
        return self

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    def transpose(self) -> "CosineChannels":
        """The same similarity with rows and columns swapped (for column queries)."""
        return CosineChannels(
            [ChannelPair(p.right, p.left) for p in self.pairs],
            shape=(self.shape[1], self.shape[0]),
            clip_at_zero=self.clip_at_zero,
            kept=None if self._kept is None else self._kept.T,
        )

    def select_rows(self, indices: np.ndarray) -> "CosineChannels":
        """The sub-similarity restricted to ``indices`` rows, gathered once.

        Row-slab queries sweep many column blocks over the same row subset;
        gathering the left factors up front (one fancy-index copy per
        channel) lets every subsequent :meth:`tile` call slice instead of
        re-gathering per block.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return CosineChannels(
            [ChannelPair(p.left[indices], p.right) for p in self.pairs],
            shape=(indices.shape[0], self.shape[1]),
            clip_at_zero=self.clip_at_zero,
            kept=None if self._kept is None else self._kept[indices],
        )

    def select_cols(self, indices: np.ndarray) -> "CosineChannels":
        """The sub-similarity restricted to ``indices`` columns, gathered once."""
        indices = np.asarray(indices, dtype=np.int64)
        return CosineChannels(
            [ChannelPair(p.left, p.right[indices]) for p in self.pairs],
            shape=(self.shape[0], indices.shape[0]),
            clip_at_zero=self.clip_at_zero,
            kept=None if self._kept is None else self._kept[:, indices],
        )

    def tile(self, rows, cols) -> np.ndarray:
        """The similarity tile at ``rows × cols`` (slices or index arrays)."""
        if self._kept is not None:
            return self._kept[rows][:, cols]
        n_rows = _selection_length(rows, self.num_rows)
        n_cols = _selection_length(cols, self.num_cols)
        if not self.pairs:
            return np.zeros((n_rows, n_cols))
        out = self.pairs[0].left[rows] @ self.pairs[0].right[cols].T
        for pair in self.pairs[1:]:
            np.maximum(out, pair.left[rows] @ pair.right[cols].T, out=out)
        if self.clip_at_zero:
            np.maximum(out, 0.0, out=out)
        return out

    def pair_values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``S[rows[i], cols[i]]`` for aligned index arrays (O(n·d), or a kept-tile gather)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self._kept is not None:
            return self._kept[rows, cols]
        if not self.pairs:
            return np.zeros(rows.shape, dtype=float)
        out = np.einsum("ij,ij->i", self.pairs[0].left[rows], self.pairs[0].right[cols])
        for pair in self.pairs[1:]:
            np.maximum(out, np.einsum("ij,ij->i", pair.left[rows], pair.right[cols]), out=out)
        if self.clip_at_zero:
            np.maximum(out, 0.0, out=out)
        return out


def _selection_length(selection, full: int) -> int:
    if isinstance(selection, slice):
        return len(range(*selection.indices(full)))
    return len(np.asarray(selection))


def assemble_matrix(channels: CosineChannels, block: int) -> np.ndarray:
    """The full matrix of ``channels``, assembled from ``block``-sized tiles.

    A matrix that fits one tile is that tile itself (no copy; the kept tile
    when there is one); larger ones are written tile by tile into one
    ``N × M`` array.
    """
    if channels.num_rows <= block and channels.num_cols <= block:
        return channels.tile(slice(None), slice(None))
    out = np.empty(channels.shape)
    for rs in _as_blocks(channels.num_rows, block):
        for cs in _as_blocks(channels.num_cols, block):
            out[rs, cs] = channels.tile(rs, cs)
    return out


# ------------------------------------------------------------------ top-k
@dataclass(frozen=True)
class TopKTable:
    """Per-row and per-column top-k candidates with their similarity values."""

    left_indices: np.ndarray  # (N, k) best KG2 columns per KG1 row, descending
    left_values: np.ndarray
    right_indices: np.ndarray  # (M, k) best KG1 rows per KG2 column, descending
    right_values: np.ndarray


def canonical_topk(values: np.ndarray, indices: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of candidate (value, index) pairs, canonical order.

    Canonical order is value descending then index ascending; implemented as
    a stable sort by index followed by a stable sort by negated value, so
    equal values keep index-ascending order.  Returns ``(values, indices)``
    arrays of shape ``(rows, min(k, candidates))``.
    """
    k = min(k, values.shape[1])
    if k <= 0 or values.size == 0:
        empty_v = np.empty((values.shape[0], max(k, 0)), dtype=float)
        empty_i = np.empty((values.shape[0], max(k, 0)), dtype=np.int64)
        return empty_v, empty_i
    r = np.arange(values.shape[0])[:, None]
    by_index = np.argsort(indices, axis=1, kind="stable")
    v = values[r, by_index]
    i = indices[r, by_index]
    by_value = np.argsort(-v, axis=1, kind="stable")[:, :k]
    return v[r, by_value], i[r, by_value].astype(np.int64)


def _tile_topk(tile: np.ndarray, col_start: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` of one tile: argpartition to ``k``, then canonical ordering.

    ``argpartition`` keeps the per-row cost O(W + k log k) instead of the
    O(W log W) of a full sort — this is the hot inner loop of the streamed
    top-k pass.  Exact ties *at the selection boundary* are resolved the way
    argpartition happens to partition them (deterministic for a given tile,
    like ``top_k_rows``'s own argpartition); among the selected candidates
    the ordering is canonical (value descending, index ascending).
    """
    k = min(k, tile.shape[1])
    r = np.arange(tile.shape[0])[:, None]
    if k >= tile.shape[1]:
        picked = np.broadcast_to(np.arange(tile.shape[1]), tile.shape)
    else:
        # ascending columns, so the stable value sort breaks ties by index
        picked = np.sort(np.argpartition(-tile, k - 1, axis=1)[:, :k], axis=1)
    values = tile[r, picked]
    by_value = np.argsort(-values, axis=1, kind="stable")
    return values[r, by_value], (picked[r, by_value] + col_start).astype(np.int64)


def _shard_topk(channels: CosineChannels, rows, k: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Running top-``k`` for one shard of rows, merging per column block."""
    n_cols = channels.num_cols
    n_rows = _selection_length(rows, channels.num_rows)
    best_v = np.empty((n_rows, 0), dtype=float)
    best_i = np.empty((n_rows, 0), dtype=np.int64)
    for cs in _as_blocks(n_cols, block):
        tile = channels.tile(rows, cs)
        tile_v, tile_i = _tile_topk(tile, cs.start, k)
        if best_v.shape[1] == 0:
            best_v, best_i = tile_v, tile_i
            continue
        best_v, best_i = canonical_topk(
            np.concatenate([best_v, tile_v], axis=1),
            np.concatenate([best_i, tile_i], axis=1),
            k,
        )
    return best_v, best_i


def stream_topk(
    channels: CosineChannels,
    k: int,
    block: int = DEFAULT_STREAM_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` ``(indices, values)`` without materialising the matrix.

    Peak memory is ``O(block² + rows·k)``: rows are swept one shard at a
    time, and each row's result is computed entirely within its shard.
    """
    n_rows, n_cols = channels.shape
    k = min(k, n_cols)
    if k <= 0 or n_rows == 0:
        return (
            np.empty((n_rows, max(k, 0)), dtype=np.int64),
            np.empty((n_rows, max(k, 0)), dtype=float),
        )
    parts = [_shard_topk(channels, rs, k, block) for rs in _as_blocks(n_rows, block)]
    values = np.concatenate([p[0] for p in parts], axis=0)
    indices = np.concatenate([p[1] for p in parts], axis=0)
    return indices, values


def stream_row_col_max(
    channels: CosineChannels, block: int = DEFAULT_STREAM_BLOCK
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row *and* per-column maxima from one fused tile sweep.

    Tiles are the expensive part of every streamed kernel; when a consumer
    needs both directions (dangling-entity weights, pool evidence weights)
    this computes each tile once instead of twice.  ``max`` is exact and
    order-independent, so the result equals two separate sweeps,
    bit-for-bit.
    """
    n_rows, n_cols = channels.shape
    if n_rows == 0 or n_cols == 0:
        return np.zeros(n_rows), np.zeros(n_cols)
    row_max = np.full(n_rows, -np.inf)
    col_max = np.full(n_cols, -np.inf)
    for rs in _as_blocks(n_rows, block):
        for cs in _as_blocks(n_cols, block):
            tile = channels.tile(rs, cs)
            np.maximum(row_max[rs], tile.max(axis=1), out=row_max[rs])
            np.maximum(col_max[cs], tile.max(axis=0), out=col_max[cs])
    return row_max, col_max


def collect_threshold_candidates(
    tiles, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` with value ≥ threshold from tile triples.

    ``tiles`` yields ``(row_slice, col_slice, tile)`` covering disjoint
    regions (one row shard's column sweep).
    The result is sorted row-major (row ascending, then column ascending) —
    the order ``np.nonzero`` yields on the assembled matrix — which is the
    candidate order :func:`~repro.alignment.evaluation.greedy_match` takes,
    so greedy matching of a streamed scan equals that of a full-matrix scan
    even under score ties.
    """
    rows_parts, cols_parts, vals_parts = [], [], []
    for rs, cs, tile in tiles:
        local_r, local_c = np.where(tile >= threshold)
        if local_r.size:
            rows_parts.append(local_r + rs.start)
            cols_parts.append(local_c + cs.start)
            vals_parts.append(tile[local_r, local_c])
    if not rows_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=float)
    if len(rows_parts) == 1:  # one tile's ``np.where`` is already row-major
        return rows_parts[0], cols_parts[0], vals_parts[0]
    r = np.concatenate(rows_parts)
    c = np.concatenate(cols_parts)
    v = np.concatenate(vals_parts)
    order = np.lexsort((c, r))
    return r[order], c[order], v[order]


def stream_threshold_candidates(
    channels: CosineChannels,
    threshold: float,
    block: int = DEFAULT_STREAM_BLOCK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ``(row, col, value)`` entries with value ≥ threshold, row-major order.

    Streams :func:`collect_threshold_candidates` over row shards; shard
    results are concatenated in shard order, preserving global row-major
    order.
    """
    n_rows, n_cols = channels.shape

    def shard(rs: slice):
        return collect_threshold_candidates(
            ((rs, cs, channels.tile(rs, cs)) for cs in _as_blocks(n_cols, block)),
            threshold,
        )

    if n_rows == 0 or n_cols == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=float)
    parts = [shard(rs) for rs in _as_blocks(n_rows, block)]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )


# ------------------------------------------------------------- mutual top-N
def mutual_top_n(
    left_factors: np.ndarray,
    right_factors: np.ndarray,
    n: int,
    block: int = DEFAULT_STREAM_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Mutually top-``n`` cosine pairs of two raw factor matrices.

    A pair ``(i, j)`` survives when ``j`` is among row ``i``'s top-``n``
    columns *and* ``i`` is among column ``j``'s top-``n`` rows — the pool
    filter of Sect. 6.1 — computed from two streamed top-``n`` passes and one
    sorted intersection of their pair keys instead of two ``N × M`` boolean
    masks.
    Returns ``(lefts, rights)`` sorted row-major like ``np.nonzero``.
    """
    if left_factors.shape[0] == 0 or right_factors.shape[0] == 0 or n < 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    channels = CosineChannels([ChannelPair.from_raw(left_factors, right_factors)]).keep_tile(block)
    top_left, _ = stream_topk(channels, n, block)
    top_right, _ = stream_topk(channels.transpose(), n, block)
    # key (i, j) as i * M + j on both sides; each side's keys are unique, and
    # their sorted intersection is the mutual pairs in row-major order
    num_right = right_factors.shape[0]
    rows = np.arange(left_factors.shape[0], dtype=np.int64)[:, None]
    columns = np.arange(num_right, dtype=np.int64)[:, None]
    mutual = np.intersect1d(
        (rows * num_right + top_left).reshape(-1),
        (top_right * num_right + columns).reshape(-1),
        assume_unique=True,
    )
    return mutual // num_right, mutual % num_right
