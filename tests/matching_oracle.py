"""Sequential oracles for the greedy matcher and the evaluation metrics.

These are the straightforward implementations the vectorised production
code must reproduce exactly: a Python walk over the candidates sorted by
descending value (a stable sort, so equal values stay in row-major order),
and per-row tie-aware ranks.  They are not a production path.
"""

from __future__ import annotations

import numpy as np

from repro.alignment.evaluation import AlignmentScores, precision_recall_f1


def greedy_walk(rows, cols, values) -> list[int]:
    """Positions of the candidates the sequential greedy walk takes, in order."""
    order = sorted(range(len(values)), key=lambda position: -values[position])
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    taken = []
    for position in order:
        row, col = int(rows[position]), int(cols[position])
        if row in used_rows or col in used_cols:
            continue
        used_rows.add(row)
        used_cols.add(col)
        taken.append(position)
    return taken


def greedy_walk_matrix(matrix: np.ndarray, threshold: float = 0.0) -> list[tuple[int, int]]:
    """The walk over every entry of ``matrix`` at or above ``threshold``."""
    rows, cols = np.nonzero(matrix >= threshold)
    return [(int(rows[p]), int(cols[p])) for p in greedy_walk(rows, cols, matrix[rows, cols])]


def mine_dense(
    matrix: np.ndarray, threshold: float, matches=(), non_matches=(), max_candidates=None
) -> tuple[np.ndarray, np.ndarray]:
    """Mining on a full matrix: labels filtered out of the τ scan, then the walk."""
    matched_left = {int(a) for a, _ in matches}
    matched_right = {int(b) for _, b in matches}
    labelled = {(int(a), int(b)) for a, b in non_matches}
    rows, cols = np.nonzero(matrix >= threshold)
    candidates = [
        (int(i), int(j))
        for i, j in zip(rows, cols)
        if i not in matched_left and j not in matched_right and (i, j) not in labelled
    ]
    values = [float(matrix[i, j]) for i, j in candidates]
    taken = greedy_walk([i for i, _ in candidates], [j for _, j in candidates], values)
    taken = taken[:max_candidates]
    pairs = np.asarray([candidates[p] for p in taken], dtype=np.int64).reshape(-1, 2)
    return pairs, np.asarray([values[p] for p in taken], dtype=np.float64)


def tie_aware_rank(row: np.ndarray, true_index: int) -> float:
    """Rank of ``true_index`` in ``row`` with ties resolved to the mid rank."""
    target = row[true_index]
    better = int(np.sum(row > target))
    ties = int(np.sum(row == target)) - 1
    return better + ties / 2.0 + 1.0


def hits_at_k(matrix: np.ndarray, gold_pairs: np.ndarray, k: int) -> float:
    if gold_pairs.size == 0:
        return 0.0
    hits = sum(1 for left, right in gold_pairs if tie_aware_rank(matrix[left], right) <= k)
    return hits / len(gold_pairs)


def mean_reciprocal_rank(matrix: np.ndarray, gold_pairs: np.ndarray) -> float:
    if gold_pairs.size == 0:
        return 0.0
    total = 0.0
    for left, right in gold_pairs:
        total += 1.0 / tie_aware_rank(matrix[left], right)
    return total / len(gold_pairs)


def evaluate_dense(
    matrix: np.ndarray, gold_pairs: np.ndarray, match_threshold: float = 0.0
) -> AlignmentScores:
    """All metrics of one task from per-row ranks and the walk on the gold rows."""
    gold_pairs = np.asarray(gold_pairs, dtype=np.int64).reshape(-1, 2)
    if matrix.size == 0 or gold_pairs.size == 0:
        return AlignmentScores(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    rows = np.unique(gold_pairs[:, 0])
    predicted = [
        (int(rows[i]), j) for i, j in greedy_walk_matrix(matrix[rows], match_threshold)
    ]
    gold = {(int(a), int(b)) for a, b in gold_pairs}
    return AlignmentScores(
        hits_at_k(matrix, gold_pairs, 1),
        hits_at_k(matrix, gold_pairs, 10),
        mean_reciprocal_rank(matrix, gold_pairs),
        *precision_recall_f1(predicted, gold),
    )
