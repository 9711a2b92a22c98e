"""Semi-supervised potential-match mining (Sect. 4.2).

Element pairs whose similarity exceeds a threshold ``τ`` are mined as extra
supervision.  Conflicts (one element matched to several counterparts) are
resolved greedily by similarity, and the previous model's similarity is kept
as a *soft label* so that the semi-supervised loss (Eq. 10) down-weights
less certain potential matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PotentialMatch:
    """A mined potential match with its soft label."""

    left: int
    right: int
    soft_label: float


def resolve_conflicts(candidates: list[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    """Keep a one-to-one subset of candidate matches, preferring higher scores.

    Candidates are ``(left, right, score)`` triples; the result is sorted by
    descending score and contains each left/right element at most once.
    """
    ordered = sorted(candidates, key=lambda c: -c[2])
    used_left: set[int] = set()
    used_right: set[int] = set()
    kept: list[tuple[int, int, float]] = []
    for left, right, score in ordered:
        if left in used_left or right in used_right:
            continue
        used_left.add(left)
        used_right.add(right)
        kept.append((left, right, score))
    return kept


def _filter_and_resolve(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    exclude: set[tuple[int, int]] | None,
    exclude_left: set[int] | None,
    exclude_right: set[int] | None,
    max_candidates: int | None,
) -> list[PotentialMatch]:
    """Shared tail of both miners: exclusion filters + conflict resolution."""
    exclude = exclude or set()
    exclude_left = exclude_left or set()
    exclude_right = exclude_right or set()
    candidates = [
        (int(i), int(j), float(v))
        for i, j, v in zip(rows, cols, values)
        if (int(i), int(j)) not in exclude
        and int(i) not in exclude_left
        and int(j) not in exclude_right
    ]
    resolved = resolve_conflicts(candidates)
    if max_candidates is not None:
        resolved = resolved[:max_candidates]
    return [PotentialMatch(left, right, score) for left, right, score in resolved]


def mine_potential_matches(
    similarity_matrix: np.ndarray,
    threshold: float,
    exclude: set[tuple[int, int]] | None = None,
    exclude_left: set[int] | None = None,
    exclude_right: set[int] | None = None,
    max_candidates: int | None = None,
) -> list[PotentialMatch]:
    """Mine one-to-one potential matches with similarity above ``threshold``.

    ``exclude`` removes pairs already labelled; ``exclude_left`` /
    ``exclude_right`` remove elements whose counterpart is already known, so
    semi-supervision does not contradict oracle labels.
    """
    if similarity_matrix.size == 0:
        return []
    rows, cols = np.where(similarity_matrix >= threshold)
    values = similarity_matrix[rows, cols]
    return _filter_and_resolve(
        rows, cols, values, exclude, exclude_left, exclude_right, max_candidates
    )


def mine_potential_matches_from_engine(
    engine,
    kind,
    threshold: float,
    exclude: set[tuple[int, int]] | None = None,
    exclude_left: set[int] | None = None,
    exclude_right: set[int] | None = None,
    max_candidates: int | None = None,
) -> list[PotentialMatch]:
    """Backend-agnostic mining over the engine's threshold scan.

    Only the entries above ``τ`` are ever held in memory (the mined candidate
    set), never a second copy of the matrix.  Candidates come from the
    backend's threshold scan (:meth:`SimilarityEngine.threshold_candidates`:
    ``np.nonzero`` on the dense backend's cached matrix, streamed tiles on the
    sharded one) in global row-major order — the same order ``np.where``
    yields on a dense matrix — and ``resolve_conflicts`` sorts stably, so the
    result is identical to :func:`mine_potential_matches` on the materialised
    matrix, ties included.
    """
    num_rows, num_cols = engine.shape(kind)
    if num_rows == 0 or num_cols == 0:
        return []
    rows, cols, values = engine.threshold_candidates(kind, threshold)
    return _filter_and_resolve(
        rows, cols, values, exclude, exclude_left, exclude_right, max_candidates
    )
