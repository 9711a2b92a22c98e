"""Merging per-partition similarity states into one global, streamed state.

The partition-parallel campaign runtime (:mod:`repro.active.campaign`) trains
one :class:`~repro.alignment.similarity.SimilarityEngine` per sub-pair.  This
module folds those per-partition states into a single
:class:`MergedSimilarityState` over the *original* pair's index spaces —
without ever materialising the global ``N × M`` matrix.

The trick is the same factorisation the similarity engine streams from: every
per-partition similarity channel is a cosine of row-normalised factor
matrices.  Scattering a piece's factors into global factor matrices that are
zero outside the piece's rows/columns yields a **global cosine channel**
whose in-block tiles equal the piece's similarity bit-for-bit and whose
cross-block entries are exactly zero (disjoint supports ⇒ zero dot products).
The merged state is therefore just a bigger
:class:`~repro.runtime.streaming.CosineChannels` — ``max`` over all pieces'
scattered channels — and every streaming kernel (``stream_topk``, threshold
scans, :class:`~repro.runtime.views.SimilarityView` with its fold-in tail
shards) applies unchanged.

Semantics of the merged similarity:

* within a partition block: the piece's own similarity (clipped at zero once
  two or more pieces exist — a cross-block entry is 0, so a negative in-block
  cosine can never outrank it anyway);
* across partition blocks: exactly ``0`` — the partitioner already
  established (ρ-bounded) that cross-partition evidence is negligible, which
  is precisely what makes partition-parallel campaigns sound.

:class:`MergedSimilarityState` owns the one streamed query surface (``shape``
/ ``rows`` / ``top_k`` / ``row_col_max`` / ``threshold_candidates`` /
``pair_probabilities`` / ``export_state``).  The similarity engine is a
subclass whose channels are built per version token, so
:func:`~repro.alignment.evaluation.evaluate_alignment_from_engine`,
:func:`~repro.alignment.semi_supervised.mine_potential_matches`
and the calibrator's streamed probability paths run the same code on a merged
state and on a live engine.  With a single identity partition the piece's
channels are reused as-is, making every merged query bit-equal to the
monolithic engine's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import repro.obs as obs
from repro.kg.elements import ElementKind
from repro.runtime.streaming import (
    ChannelPair,
    CosineChannels,
    TopKTable,
    _as_blocks,
    assemble_matrix,
    stream_row_col_max,
    stream_threshold_candidates,
    stream_topk,
)
from repro.runtime.views import SimilarityView


def scatter_channels(
    contributions: Sequence[tuple[CosineChannels, np.ndarray, np.ndarray]],
    shape: tuple[int, int],
) -> CosineChannels:
    """Fold piece channel sets into one global block-structured channel set.

    ``contributions`` holds ``(channels, row_ids, col_ids)`` triples: the
    piece's factored similarity plus its local→global row/column id maps.
    Every channel factor is scattered into a zero matrix over the global
    vocabulary, so tiles inside a piece's block reproduce the piece similarity
    exactly and tiles across blocks are exactly zero.

    A single contribution covering the whole global space (the 1-partition
    case) is returned as-is — bit-exact with the monolithic channels.
    """
    if len(contributions) == 1:
        channels, row_ids, col_ids = contributions[0]
        if (
            channels.shape == shape
            and np.array_equal(row_ids, np.arange(shape[0]))
            and np.array_equal(col_ids, np.arange(shape[1]))
        ):
            return channels
    # One global channel per (piece, channel): simple, and every streamed
    # kernel applies unchanged.  Cost note: merged queries evaluate all
    # pieces' channels over the full N×M grid even though cross-block
    # entries are zero by construction — ~P× the FLOPs of running the
    # kernels per piece over piece-local blocks and scattering the results
    # through the id maps.  That per-piece evaluation is the known cheaper
    # design if merged-query cost ever dominates a campaign; it is not done
    # here because zero-fill-aware top-k/row-max merging adds real
    # complexity to every kernel for a path that is query-, not train-,
    # bound today.
    pairs: list[ChannelPair] = []
    clip = False
    for channels, row_ids, col_ids in contributions:
        clip = clip or channels.clip_at_zero
        for pair in channels.pairs:
            left = np.zeros((shape[0], pair.left.shape[1]))
            right = np.zeros((shape[1], pair.right.shape[1]))
            left[row_ids] = pair.left
            right[col_ids] = pair.right
            # rows are already unit (or exactly zero), so no re-normalisation
            pairs.append(ChannelPair(left, right))
    return CosineChannels(pairs, shape=shape, clip_at_zero=clip)


class MergedSimilarityState:
    """The streamed similarity query surface over per-kind channel factors.

    Every query reads :meth:`channels` and :attr:`block_size` and nothing
    else, so the frozen merge built by :meth:`from_contributions` and the
    live :class:`~repro.alignment.similarity.SimilarityEngine` (which
    subclasses this and overrides only how channels are built, cached per
    version token) answer through the same code.

    Queries stream row-block × column-block cosine tiles with per-row running
    top-k merges, so peak memory is ``O(block² + N·k)`` and the ``N × M``
    matrix is never materialised on a query path.  When a matrix fits one
    block, channels that kept their full tile
    (:meth:`~repro.runtime.streaming.CosineChannels.keep_tile`) answer every
    query by slicing it.  No query result is cached: a top-k table is
    recomputed from the channels on each call.
    """

    def __init__(
        self,
        channels: dict[ElementKind, CosineChannels],
        block_size: int,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._by_kind = dict(channels)
        self.block_size = block_size

    @classmethod
    def from_contributions(
        cls,
        contributions: dict[
            ElementKind, list[tuple[CosineChannels, np.ndarray, np.ndarray]]
        ],
        shapes: dict[ElementKind, tuple[int, int]],
        block_size: int,
    ) -> "MergedSimilarityState":
        """Merge per-piece ``(channels, row_ids, col_ids)`` lists per kind."""
        merged = {
            kind: scatter_channels(contributions.get(kind, []), shapes[kind])
            if contributions.get(kind)
            else CosineChannels([], shape=shapes[kind])
            for kind in ElementKind
        }
        return cls(merged, block_size=block_size)

    # ---------------------------------------------------------------- state
    def channels(self, kind: ElementKind) -> CosineChannels:
        """``kind``'s similarity as max-of-factored-cosines."""
        return self._by_kind[kind]

    def shape(self, kind: ElementKind) -> tuple[int, int]:
        """The ``(|X1|, |X2|)`` shape of ``kind``'s similarity."""
        return self.channels(kind).shape

    def matrix(self, kind: ElementKind) -> np.ndarray:
        """The whole matrix of ``kind``, assembled (treat as read-only).

        For the baselines and tests that read a whole matrix; a matrix that
        fits one block is its channels' kept tile.  Query paths use the
        streamed surface below instead.
        """
        return assemble_matrix(self.channels(kind), self.block_size)

    def export_state(self) -> dict[ElementKind, SimilarityView]:
        """Frozen serving views of all three similarities.

        The views share the immutable channel factors (and kept tile) and
        collect fold-ins in small tail arrays of their own.
        """
        return {
            kind: SimilarityView(self.channels(kind), block_size=self.block_size)
            for kind in ElementKind
        }

    # -------------------------------------------------------------- queries
    def top_k_table(self, kind: ElementKind, k: int) -> TopKTable:
        """Top-``k`` counterpart indices *and values*, both directions."""
        channels = self.channels(kind)
        with obs.span("similarity.top_k", kind=kind.value, k=k):
            left_idx, left_val = stream_topk(channels, k, self.block_size)
            right_idx, right_val = stream_topk(channels.transpose(), k, self.block_size)
        return TopKTable(left_idx, left_val, right_idx, right_val)

    def top_k(self, kind: ElementKind, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` counterpart indices per row and per column of ``kind``.

        Returns ``(for_left, for_right)``: ``for_left[i]`` holds the ``k``
        most similar KG2 elements of KG1 element ``i`` (descending), and
        ``for_right[j]`` the ``k`` most similar KG1 elements of KG2 element
        ``j``.
        """
        table = self.top_k_table(kind, k)
        return table.left_indices, table.right_indices

    def rows(self, kind: ElementKind, indices) -> np.ndarray:
        """Full-width similarity slab of the selected rows."""
        selected = self.channels(kind).select_rows(np.asarray(indices, dtype=np.int64))
        return assemble_matrix(selected, self.block_size)

    def iter_rows_blocks(self, kind: ElementKind, indices):
        """Column-block tiles ``(col_slice, tile)`` of the selected rows."""
        # gather the selected row factors once, then slice per column block
        selected = self.channels(kind).select_rows(np.asarray(indices, dtype=np.int64))
        for cs in _as_blocks(selected.num_cols, self.block_size):
            yield cs, selected.tile(slice(None), cs)

    def iter_cols_blocks(self, kind: ElementKind, indices):
        """Row-block tiles ``(row_slice, tile)`` of the selected columns."""
        selected = self.channels(kind).select_cols(np.asarray(indices, dtype=np.int64))
        for rs in _as_blocks(selected.num_rows, self.block_size):
            yield rs, selected.tile(rs, slice(None))

    def row_col_max(self, kind: ElementKind) -> tuple[np.ndarray, np.ndarray]:
        """Per-row and per-column maxima (zeros when the other side is empty)."""
        return stream_row_col_max(self.channels(kind), self.block_size)

    def threshold_candidates(self, kind: ElementKind, threshold):
        """All ``(rows, cols, values)`` with value ≥ threshold, row-major."""
        return stream_threshold_candidates(self.channels(kind), threshold, self.block_size)

    def pair_probabilities(
        self, kind: ElementKind, lefts: np.ndarray, rights: np.ndarray, temperature: float
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
        kind: ElementKind,
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
        chunk = self.block_size
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
