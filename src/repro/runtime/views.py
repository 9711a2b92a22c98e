"""Frozen, appendable similarity views for the serving layer.

``SimilarityEngine.export_state`` hands the :class:`AlignmentService` one
view per element kind.  A view answers the four serving query shapes —
``rows`` / ``cols`` slabs, aligned-pair ``gather``, and ``top_k_for_rows`` —
and supports the incremental fold-in by *returning a new view* with one row
or column appended (views are immutable, matching the service's
atomic-snapshot-swap design).

:class:`StreamedView` wraps the engine's
:class:`~repro.runtime.streaming.CosineChannels` plus two small *tail*
arrays holding everything folded in after the freeze: ``tail_cols`` are the
folded columns restricted to the core rows (``(R₀, c)``), ``tail_rows`` the
folded rows over the full current width (``(r, C₀ + c)``).  The logical
matrix is::

    [ core (streamed)   tail_cols ]
    [ tail_rows (dense, full width) ]

so serving memory stays ``O(N·d + block² + folds·N)`` — the core is streamed
from the channels, which hold at most their one kept tile
(:meth:`~repro.runtime.streaming.CosineChannels.keep_tile`).  Folded entries
are dense by construction: the service computes each appended row/column
explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.streaming import CosineChannels, _as_blocks
from repro.utils.math import top_k_rows


class SimilarityView:
    """The serving query surface; :class:`StreamedView` is the one view kind."""

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    @property
    def num_cols(self) -> int:
        raise NotImplementedError

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Full-width slab of the selected rows, ``(len(indices), num_cols)``."""
        raise NotImplementedError

    def cols(self, indices: np.ndarray) -> np.ndarray:
        """Full-height slab of the selected columns, ``(num_rows, len(indices))``."""
        raise NotImplementedError

    def gather(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """``S[lefts[i], rights[i]]`` for aligned index arrays."""
        raise NotImplementedError

    def top_k_for_rows(self, indices: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Per selected row: top-``k`` column ``(indices, values)``, descending."""
        slab = self.rows(indices)
        k = min(k, slab.shape[1])
        top = top_k_rows(slab, k)
        return top, slab[np.arange(slab.shape[0])[:, None], top]

    def append_col(self, column: np.ndarray) -> "SimilarityView":
        """A new view with ``column`` (length ``num_rows``) appended on the right."""
        raise NotImplementedError

    def append_row(self, row: np.ndarray) -> "SimilarityView":
        """A new view with ``row`` (length ``num_cols``) appended at the bottom."""
        raise NotImplementedError


class StreamedView(SimilarityView):
    """Factored core (streamed, or sliced from the kept tile) + dense fold-in tails."""

    def __init__(
        self,
        channels: CosineChannels,
        block_size: int,
        tail_rows: np.ndarray | None = None,
        tail_cols: np.ndarray | None = None,
    ) -> None:
        self.channels = channels
        self.block_size = block_size
        core_rows, core_cols = channels.shape
        self.tail_cols = (
            tail_cols if tail_cols is not None else np.empty((core_rows, 0))
        )
        self.tail_rows = (
            tail_rows if tail_rows is not None else np.empty((0, core_cols))
        )

    @property
    def _core_rows(self) -> int:
        return self.channels.num_rows

    @property
    def _core_cols(self) -> int:
        return self.channels.num_cols

    @property
    def num_rows(self) -> int:
        return self._core_rows + self.tail_rows.shape[0]

    @property
    def num_cols(self) -> int:
        return self._core_cols + self.tail_cols.shape[1]

    def rows(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((indices.shape[0], self.num_cols))
        core_mask = indices < self._core_rows
        if np.any(core_mask):
            core_idx = indices[core_mask]
            core_pos = np.nonzero(core_mask)[0]
            for cs in _as_blocks(self._core_cols, self.block_size):
                out[core_pos, cs.start : cs.stop] = self.channels.tile(core_idx, cs)
            out[core_pos, self._core_cols :] = self.tail_cols[core_idx]
        if not np.all(core_mask):
            out[~core_mask] = self.tail_rows[indices[~core_mask] - self._core_rows]
        return out

    def cols(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((self.num_rows, indices.shape[0]))
        core_mask = indices < self._core_cols
        if np.any(core_mask):
            core_idx = indices[core_mask]
            core_pos = np.nonzero(core_mask)[0]
            for rs in _as_blocks(self._core_rows, self.block_size):
                out[rs.start : rs.stop, core_pos] = self.channels.tile(rs, core_idx)
        if not np.all(core_mask):
            out[: self._core_rows, ~core_mask] = self.tail_cols[
                :, indices[~core_mask] - self._core_cols
            ]
        if self.tail_rows.shape[0]:
            out[self._core_rows :] = self.tail_rows[:, indices]
        return out

    def gather(self, lefts, rights):
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        out = np.empty(lefts.shape[0])
        in_tail_row = lefts >= self._core_rows
        in_tail_col = ~in_tail_row & (rights >= self._core_cols)
        core = ~in_tail_row & ~in_tail_col
        if np.any(core):
            out[core] = self.channels.pair_values(lefts[core], rights[core])
        if np.any(in_tail_col):
            out[in_tail_col] = self.tail_cols[
                lefts[in_tail_col], rights[in_tail_col] - self._core_cols
            ]
        if np.any(in_tail_row):
            out[in_tail_row] = self.tail_rows[
                lefts[in_tail_row] - self._core_rows, rights[in_tail_row]
            ]
        return out

    def append_col(self, column):
        column = np.asarray(column, dtype=float)
        if column.shape[0] != self.num_rows:
            raise ValueError("appended column must cover every current row")
        tail_cols = np.concatenate(
            [self.tail_cols, column[: self._core_rows, None]], axis=1
        )
        tail_rows = np.concatenate(
            [self.tail_rows, column[self._core_rows :, None]], axis=1
        )
        return StreamedView(self.channels, self.block_size, tail_rows, tail_cols)

    def append_row(self, row):
        row = np.asarray(row, dtype=float)
        if row.shape[0] != self.num_cols:
            raise ValueError("appended row must cover every current column")
        tail_rows = np.concatenate([self.tail_rows, row[None, :]], axis=0)
        return StreamedView(self.channels, self.block_size, tail_rows, self.tail_cols)



class AnnView(SimilarityView):
    """Name-only remnant of the retired ANN backend's view; nothing builds it.

    ``perfbench/tracing.py`` imports this class and wraps its own
    ``top_k_for_rows``, so the name stays until that tracer line goes.
    """

    top_k_for_rows = SimilarityView.top_k_for_rows
