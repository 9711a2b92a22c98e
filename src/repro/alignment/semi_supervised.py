"""Semi-supervised potential-match mining (Sect. 4.2).

Element pairs whose similarity reaches a threshold ``τ`` are mined as extra
supervision.  Conflicts (one element matched to several counterparts) are
resolved by the greedy one-to-one matcher
(:func:`~repro.alignment.evaluation.greedy_match`), and the previous model's
similarity is kept as a *soft label* so that the semi-supervised loss
(Eq. 10) down-weights less certain potential matches.  A mined set is two
arrays: index pairs ``(n, 2)`` and their soft labels ``(n,)``.
"""

from __future__ import annotations

import numpy as np

from repro.alignment.evaluation import greedy_match


def mine_potential_matches(
    engine,
    kind,
    threshold: float,
    matches: np.ndarray = (),
    non_matches: np.ndarray = (),
    max_candidates: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-to-one potential matches of ``kind`` with similarity at least ``threshold``.

    Returns ``(pairs, soft)``: int64 index pairs ``(n, 2)`` and their
    similarities, in the order greedy takes them (descending similarity,
    ties row-major), at most ``max_candidates`` of them.  The labels
    (``(m, 2)`` id arrays) are excluded before the matching, so
    semi-supervision does not contradict the oracle: every row and column of
    a labelled match, and every labelled non-match pair.

    Candidates come from the engine's streamed threshold scan
    (:meth:`SimilarityEngine.threshold_candidates`) in global row-major
    order, so only the entries above ``τ`` are ever held, never the matrix.
    """
    num_rows, num_cols = engine.shape(kind)
    rows, cols, values = engine.threshold_candidates(kind, threshold)
    matches = np.asarray(matches, dtype=np.int64).reshape(-1, 2)
    non_matches = np.asarray(non_matches, dtype=np.int64).reshape(-1, 2)
    keep = ~(
        np.isin(rows, matches[:, 0])
        | np.isin(cols, matches[:, 1])
        | np.isin(rows * num_cols + cols, non_matches[:, 0] * num_cols + non_matches[:, 1])
    )
    rows, cols, values = rows[keep], cols[keep], values[keep]
    taken = greedy_match(rows, cols, values, (num_rows, num_cols))[:max_candidates]
    return np.stack([rows[taken], cols[taken]], axis=1), values[taken]
