"""Alignment probability calibration (Eqs. 11–12).

Cosine similarities are turned into match probabilities by temperature-scaled
softmax over each element's candidates, evaluated in both alignment
directions; the final probability of a pair is the minimum of the two
directions, which is deliberately conservative — the active-learning selection
uses these probabilities as weights and wants to avoid betting on non-matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.elements import ElementKind
from repro.utils.math import softmax


def _streamed_directional_probabilities(
    engine,
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
    engine's block size, with two tile passes per chunk — a max pass, then
    an exp-sum pass that also gathers each pair's logit — so peak memory is
    ``O(block²)`` no matter how many rows the pool touches.  Reductions
    accumulate block-partial sums, so results can differ from the dense
    softmax in the last ulp — acceptable on the sharded backend, whose tiles
    already round differently.
    """
    unique_axis, axis_pos = np.unique(axis_indices, return_inverse=True)
    iter_blocks = engine.iter_cols_blocks if transpose else engine.iter_rows_blocks
    chunk = max(int(getattr(engine, "block_size", unique_axis.shape[0])), 1)
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


@dataclass(frozen=True)
class CalibrationConfig:
    """Temperature parameters per element kind (paper defaults, Sect. 7.1)."""

    z_entity: float = 0.05
    z_relation: float = 0.1
    z_class: float = 0.1

    def __post_init__(self) -> None:
        if min(self.z_entity, self.z_relation, self.z_class) <= 0:
            raise ValueError("temperatures must be positive")

    def temperature(self, kind: ElementKind) -> float:
        if kind is ElementKind.ENTITY:
            return self.z_entity
        if kind is ElementKind.RELATION:
            return self.z_relation
        return self.z_class


class AlignmentCalibrator:
    """Converts similarity matrices into calibrated match probabilities."""

    def __init__(self, config: CalibrationConfig | None = None) -> None:
        self.config = config or CalibrationConfig()

    def directional_probabilities(
        self, similarity_matrix: np.ndarray, kind: ElementKind
    ) -> tuple[np.ndarray, np.ndarray]:
        """``Pr[x' | x]`` (row-wise softmax) and ``Pr[x | x']`` (column-wise)."""
        if similarity_matrix.size == 0:
            return similarity_matrix.copy(), similarity_matrix.copy()
        temperature = self.config.temperature(kind)
        row = softmax(similarity_matrix, axis=1, temperature=temperature)
        col = softmax(similarity_matrix, axis=0, temperature=temperature)
        return row, col

    def probability_matrix(self, similarity_matrix: np.ndarray, kind: ElementKind) -> np.ndarray:
        """``Pr[y*(x, x') = 1]`` for every pair (Eq. 12)."""
        if similarity_matrix.size == 0:
            return similarity_matrix.copy()
        row, col = self.directional_probabilities(similarity_matrix, kind)
        return np.minimum(row, col)

    def pair_probabilities(
        self,
        similarity_matrix: np.ndarray,
        kind: ElementKind,
        lefts: np.ndarray,
        rights: np.ndarray,
    ) -> np.ndarray:
        """Calibrated probabilities for index pairs, touching only their rows/columns.

        Serving queries ask about a handful of pairs at a time; softmaxing the
        full matrix in both directions for each request would be quadratic
        work per query.  Each direction only needs the *rows* (respectively
        *columns*) the requested pairs live in, so this gathers those slices
        and normalises them alone — identical values to
        :meth:`probability_matrix`, at per-row cost.
        """
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        if similarity_matrix.size == 0 or lefts.size == 0:
            return np.zeros(lefts.shape, dtype=float)
        return self.pair_probabilities_from_slabs(
            similarity_matrix[lefts], similarity_matrix[:, rights], kind, lefts, rights
        )

    def pair_probabilities_from_slabs(
        self,
        row_slab: np.ndarray,
        col_slab: np.ndarray,
        kind: ElementKind,
        lefts: np.ndarray,
        rights: np.ndarray,
    ) -> np.ndarray:
        """Pair probabilities from pre-gathered row/column slabs.

        ``row_slab`` is ``similarity[lefts]`` (full width) and ``col_slab``
        ``similarity[:, rights]`` (full height) — the serving layer gathers
        them through a :class:`~repro.runtime.views.SimilarityView`, the
        training stack through the engine.  Softmax is per-row / per-column,
        so slab-wise normalisation yields exactly the full-matrix values.
        """
        temperature = self.config.temperature(kind)
        row = softmax(row_slab, axis=1, temperature=temperature)
        col = softmax(col_slab, axis=0, temperature=temperature)
        take = np.arange(np.asarray(lefts).size)
        return np.minimum(row[take, rights], col[lefts, take])

    def pair_probabilities_from_engine(
        self,
        engine,
        kind: ElementKind,
        lefts: np.ndarray,
        rights: np.ndarray,
    ) -> np.ndarray:
        """Pair probabilities read through a similarity engine (any backend).

        On the dense backend this is the exact historical computation (slices
        of the cached matrix).  On the sharded backend each direction is
        normalised from *streamed tiles* in two passes (max, then exp-sum +
        target gather) over only the rows/columns the requested pairs touch,
        processed in row chunks of the engine's block size — peak memory
        ``O(block²)``, never ``N × M``.
        """
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        num_rows, num_cols = engine.shape(kind)
        if num_rows == 0 or num_cols == 0 or lefts.size == 0:
            return np.zeros(lefts.shape, dtype=float)
        temperature = self.config.temperature(kind)
        if engine.backend_name == "dense":
            # Row direction: dedupe before gathering — pool lookups repeat
            # rows heavily (cross-product schema pools), softmax is per-row,
            # and a gathered row reduces bit-identically to the same row of
            # the full matrix.  Column direction: softmax the full matrix —
            # a column-sliced reduction can round differently in the last
            # ulp, and this path must stay bit-exact with the historical
            # probability_matrix lookup (the matrix is materialised on this
            # backend anyway, so this is the pre-backend cost, not more).
            matrix = engine.matrix(kind)
            unique_l, inverse_l = np.unique(lefts, return_inverse=True)
            row = softmax(matrix[unique_l], axis=1, temperature=temperature)
            col = softmax(matrix, axis=0, temperature=temperature)
            return np.minimum(row[inverse_l, rights], col[lefts, rights])
        row_dir = _streamed_directional_probabilities(
            engine, kind, lefts, rights, temperature, transpose=False
        )
        col_dir = _streamed_directional_probabilities(
            engine, kind, rights, lefts, temperature, transpose=True
        )
        return np.minimum(row_dir, col_dir)
