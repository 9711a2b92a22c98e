"""Merging per-partition similarity states into one global, streamed state.

The partition-parallel campaign runtime (:mod:`repro.active.campaign`) trains
one :class:`~repro.alignment.similarity.SimilarityEngine` per sub-pair.  This
module folds those per-partition states into a single
:class:`MergedSimilarityState` over the *original* pair's index spaces —
without ever materialising the global ``N × M`` matrix.

The trick is the same factorisation the sharded backend streams from: every
per-partition similarity channel is a cosine of row-normalised factor
matrices.  Scattering a piece's factors into global factor matrices that are
zero outside the piece's rows/columns yields a **global cosine channel**
whose in-block tiles equal the piece's similarity bit-for-bit and whose
cross-block entries are exactly zero (disjoint supports ⇒ zero dot products).
The merged state is therefore just a bigger
:class:`~repro.runtime.streaming.CosineChannels` — ``max`` over all pieces'
scattered channels — and every streaming kernel (``stream_topk``, threshold
scans, :class:`~repro.runtime.views.StreamedView` with its fold-in tail
shards) applies unchanged.

Semantics of the merged similarity:

* within a partition block: the piece's own similarity (clipped at zero once
  two or more pieces exist — a cross-block entry is 0, so a negative in-block
  cosine can never outrank it anyway);
* across partition blocks: exactly ``0`` — the partitioner already
  established (ρ-bounded) that cross-partition evidence is negligible, which
  is precisely what makes partition-parallel campaigns sound.

The class duck-types the narrow engine query surface that every downstream
consumer reads (``shape`` / ``rows`` / ``top_k`` / ``row_col_max`` /
``threshold_candidates`` / ``pair_probabilities`` / ``export_state``), so
:func:`~repro.alignment.evaluation.evaluate_alignment_from_engine`,
:func:`~repro.alignment.semi_supervised.mine_potential_matches_from_engine`
and the calibrator's streamed probability paths work on a merged state
unchanged.  With a single identity partition the piece's channels are reused
as-is, making every merged query bit-equal to the monolithic sharded path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kg.elements import ElementKind
from repro.runtime.backends import StreamedChannelQueries, TopKTable
from repro.runtime.streaming import ChannelPair, CosineChannels
from repro.runtime.views import SimilarityView, StreamedView

_KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)


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


class MergedSimilarityState(StreamedChannelQueries):
    """A frozen, streamed similarity state over the original pair's indexes.

    Built by :meth:`from_contributions` (one entry per partition and element
    kind).  The whole streamed query surface (``rows`` / ``top_k_table`` /
    ``row_col_max`` / ``pair_probabilities`` …) is inherited from
    :class:`~repro.runtime.backends.StreamedChannelQueries` — the same code
    the sharded backend runs — parameterised by the merged channel factors.
    Top-k tables are cached per ``(kind, k)``; the state is immutable, so the
    cache never invalidates.
    """

    backend_name = "merged"

    def __init__(
        self,
        channels: dict[ElementKind, CosineChannels],
        block_size: int,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._merged_channels = dict(channels)
        self.block_size = block_size
        self._top_k: dict[tuple[ElementKind, int], TopKTable] = {}

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
            for kind in _KINDS
        }
        return cls(merged, block_size=block_size)

    # ------------------------------------------------------- mixin accessors
    def _channels(self, kind: ElementKind) -> CosineChannels:
        return self._merged_channels[kind]

    @property
    def _block(self) -> int:
        return self.block_size

    # -------------------------------------------------------------- geometry
    def shape(self, kind: ElementKind) -> tuple[int, int]:
        return self._merged_channels[kind].shape

    def channels(self, kind: ElementKind) -> CosineChannels:
        return self._merged_channels[kind]

    # ------------------------------------------------- cached/derived queries
    def top_k_table(self, kind: ElementKind, k: int) -> TopKTable:
        key = (kind, k)
        cached = self._top_k.get(key)
        if cached is not None:
            return cached
        table = super().top_k_table(kind, k)
        self._top_k[key] = table
        return table

    def top_k(self, kind: ElementKind, k: int) -> tuple[np.ndarray, np.ndarray]:
        table = self.top_k_table(kind, k)
        return table.left_indices, table.right_indices

    def matrix(self, kind: ElementKind) -> np.ndarray:
        """Assemble the full matrix by streaming (debugging / parity tests)."""
        return self.compute_full(kind)

    # --------------------------------------------------------------- serving
    def export_state(self) -> dict[ElementKind, SimilarityView]:
        """Frozen serving views (streamed, fold-in tail shards available)."""
        return {
            kind: StreamedView(self._merged_channels[kind], block_size=self.block_size)
            for kind in _KINDS
        }
