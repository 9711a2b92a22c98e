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

    def probability_matrix(self, similarity_matrix: np.ndarray, kind: ElementKind) -> np.ndarray:
        """``Pr[y*(x, x') = 1]`` for every pair (Eq. 12).

        The minimum of the row-wise softmax ``Pr[x' | x]`` and the
        column-wise softmax ``Pr[x | x']`` (Eq. 11) of the whole matrix.
        """
        if similarity_matrix.size == 0:
            return similarity_matrix.copy()
        temperature = self.config.temperature(kind)
        row = softmax(similarity_matrix, axis=1, temperature=temperature)
        col = softmax(similarity_matrix, axis=0, temperature=temperature)
        return np.minimum(row, col)

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
        ``similarity[:, rights]`` (full height), as the serving layer gathers
        them through a :class:`~repro.runtime.views.SimilarityView`.  Softmax is per-row / per-column,
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
        """Pair probabilities read through a similarity engine or merged state.

        The engine answers (``pair_probabilities``): each direction is
        normalised from tiles over only the rows/columns the requested pairs
        touch, so peak memory is ``O(block²)``, never ``N × M``; values can
        differ from :meth:`probability_matrix` in the last ulp.
        """
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        num_rows, num_cols = engine.shape(kind)
        if num_rows == 0 or num_cols == 0 or lefts.size == 0:
            return np.zeros(lefts.shape, dtype=float)
        return engine.pair_probabilities(kind, lefts, rights, self.config.temperature(kind))
