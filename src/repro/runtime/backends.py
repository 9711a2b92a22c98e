"""The streamed similarity query surface shared by the engine and the merge.

Every similarity query of the DAAKG loop — hard negatives, semi-supervised
mining (Eq. 10), dangling-entity weights (Eq. 6), calibration (Eqs. 11–12),
the Sect. 6.1 pool and evaluation — is answered from the channel factors of
:mod:`repro.runtime.streaming` by :class:`StreamedChannelQueries`.  Two
classes mix it in: the live
:class:`~repro.alignment.similarity.SimilarityEngine` (per-token channels of
one model) and the campaign merge layer's frozen
:class:`~repro.runtime.merge.MergedSimilarityState`, so a fix to a query
lands in both.

Queries stream row-block × column-block cosine tiles with per-row running
top-k merges, so peak memory is ``O(block² + N·k)`` and the ``N × M`` matrix
is never materialised on a query path.  When a matrix fits one block the
engine's channels keep their one full tile
(:meth:`~repro.runtime.streaming.CosineChannels.keep_tile`), and every query
of that version token slices it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.streaming import (
    CosineChannels,
    _as_blocks,
    stream_row_col_max,
    stream_threshold_candidates,
    stream_topk,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle with similarity.py
    from repro.kg.elements import ElementKind


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


@dataclass(frozen=True)
class TopKTable:
    """Per-row and per-column top-k candidates with their similarity values."""

    left_indices: np.ndarray  # (N, k) best KG2 columns per KG1 row, descending
    left_values: np.ndarray
    right_indices: np.ndarray  # (M, k) best KG1 rows per KG2 column, descending
    right_values: np.ndarray


class StreamedChannelQueries:
    """Streamed query surface over factored cosine channels (shared mixin).

    Everything is expressed through two accessors — ``_channels(kind)`` and
    ``_block`` — so the live engine and the campaign merge layer's frozen
    :class:`~repro.runtime.merge.MergedSimilarityState` answer queries
    through the *same* code.
    """

    def _channels(self, kind: "ElementKind") -> CosineChannels:
        raise NotImplementedError

    @property
    def _block(self) -> int:
        raise NotImplementedError

    def compute_full(self, kind) -> np.ndarray:
        """The whole matrix, assembled (for the readers that need one)."""
        return assemble_matrix(self._channels(kind), self._block)

    def rows(self, kind, indices) -> np.ndarray:
        """Full-width similarity slab of the selected rows."""
        selected = self._channels(kind).select_rows(np.asarray(indices, dtype=np.int64))
        return assemble_matrix(selected, self._block)

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
        """Top-``k`` counterpart indices *and values*, both directions."""
        channels = self._channels(kind)
        left_idx, left_val = stream_topk(channels, k, self._block)
        right_idx, right_val = stream_topk(channels.transpose(), k, self._block)
        return TopKTable(left_idx, left_val, right_idx, right_val)

    def row_col_max(self, kind) -> tuple[np.ndarray, np.ndarray]:
        """Per-row and per-column maxima (zeros when the other side is empty)."""
        return stream_row_col_max(self._channels(kind), self._block)

    def threshold_candidates(self, kind, threshold):
        """All ``(rows, cols, values)`` with value ≥ threshold, row-major."""
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
        block size, with one tile pass per chunk — an online softmax that
        rescales the running exp-sums whenever a block raises a row's maximum
        and gathers each pair's scaled logit — so peak memory is
        ``O(block²)`` no matter how many rows the pool touches.  Over more
        than one column block the reductions accumulate block-partial sums,
        so results can differ from a softmax of the assembled matrix
        (``AlignmentCalibrator.probability_matrix``) in the last ulp.
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
            maxima = np.full(chunk_rows.shape[0], -np.inf)
            sums = np.zeros(chunk_rows.shape[0])
            pair_logits = np.empty(chunk_other.shape[0])
            for block_slice, tile in iter_blocks(kind, chunk_rows):
                scaled = (tile.T if transpose else tile) / temperature
                raised = np.maximum(maxima, scaled.max(axis=1))
                rescale = np.exp(maxima - raised)
                sums = sums * rescale + np.exp(scaled - raised[:, None]).sum(axis=1)
                maxima = raised
                in_block = (chunk_other >= block_slice.start) & (chunk_other < block_slice.stop)
                if np.any(in_block):
                    pair_logits[in_block] = scaled[
                        chunk_pos[in_block], chunk_other[in_block] - block_slice.start
                    ]
            probabilities[in_chunk] = np.exp(pair_logits - maxima[chunk_pos]) / sums[chunk_pos]
        return probabilities
