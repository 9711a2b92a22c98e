"""Evaluation metrics: H@k, MRR, and precision/recall/F1 with greedy matching.

The paper reports two metric families (Sect. 7.1): ranking metrics (H@1,
H@10, MRR) computed by ranking each element's candidates by similarity, and
set metrics (precision, recall, F1) computed after extracting a one-to-one
matching greedily from the similarity matrix, following the protocol of
Leone et al. (2022).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AlignmentScores:
    """All metrics for one alignment task (entities, relations or classes)."""

    hits_at_1: float
    hits_at_10: float
    mrr: float
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> dict[str, float]:
        return {
            "H@1": self.hits_at_1,
            "H@10": self.hits_at_10,
            "MRR": self.mrr,
            "precision": self.precision,
            "recall": self.recall,
            "F1": self.f1,
        }


def hits_at_k(similarity_matrix: np.ndarray, gold_pairs: np.ndarray, k: int) -> float:
    """Fraction of gold left elements whose counterpart ranks in the top ``k``.

    Ranking is performed over all columns of the similarity matrix for each
    gold left element (the standard entity-alignment protocol).
    """
    if gold_pairs.size == 0:
        return 0.0
    hits = 0
    for left, right in gold_pairs:
        if _tie_aware_rank(similarity_matrix[left], right) <= k:
            hits += 1
    return hits / len(gold_pairs)


def _tie_aware_rank(row: np.ndarray, true_index: int) -> float:
    """Rank of ``true_index`` with ties resolved to the average (mid) rank.

    Without tie handling a method that scores every candidate identically
    (e.g. a lexical matcher on obfuscated names) would be credited with rank 1
    for every element.
    """
    target = row[true_index]
    better = int(np.sum(row > target))
    ties = int(np.sum(row == target)) - 1
    return better + ties / 2.0 + 1.0


def mean_reciprocal_rank(similarity_matrix: np.ndarray, gold_pairs: np.ndarray) -> float:
    """Mean reciprocal rank of the gold counterparts."""
    if gold_pairs.size == 0:
        return 0.0
    total = 0.0
    for left, right in gold_pairs:
        total += 1.0 / _tie_aware_rank(similarity_matrix[left], right)
    return total / len(gold_pairs)


def greedy_match(similarity_matrix: np.ndarray, threshold: float = 0.0) -> list[tuple[int, int]]:
    """Extract a one-to-one matching greedily by descending similarity.

    Pairs below ``threshold`` are never matched; each row/column is used at
    most once.  This mirrors the greedy strategy used to compute F1 in the
    paper's evaluation.
    """
    if similarity_matrix.size == 0:
        return []
    n_rows, n_cols = similarity_matrix.shape
    # Equal similarities are taken in row-major order, as
    # semi_supervised.resolve_conflicts takes them.  The default sort orders
    # ties arbitrarily, so a second sort on (run of equal values, flat index)
    # restores that order; it is several times faster than kind="stable".
    values = -similarity_matrix.ravel()
    flat_order = np.argsort(values)
    ordered = values[flat_order]
    run = np.cumsum(np.r_[True, ordered[1:] != ordered[:-1]])
    flat_order = flat_order[np.argsort(run * values.size + flat_order)]
    used_rows = np.zeros(n_rows, dtype=bool)
    used_cols = np.zeros(n_cols, dtype=bool)
    matches: list[tuple[int, int]] = []
    for flat_idx in flat_order:
        i, j = divmod(int(flat_idx), n_cols)
        if similarity_matrix[i, j] < threshold:
            break
        if used_rows[i] or used_cols[j]:
            continue
        used_rows[i] = True
        used_cols[j] = True
        matches.append((i, j))
        if len(matches) == min(n_rows, n_cols):
            break
    return matches


def precision_recall_f1(
    predicted: list[tuple[int, int]], gold: set[tuple[int, int]]
) -> tuple[float, float, float]:
    """Precision, recall and F1 of a predicted match set against the gold set."""
    if not predicted:
        return 0.0, 0.0, 0.0
    if not gold:
        return 0.0, 0.0, 0.0
    true_positives = sum(1 for pair in predicted if pair in gold)
    precision = true_positives / len(predicted)
    recall = true_positives / len(gold)
    return precision, recall, f1_score(precision, recall)


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def evaluate_alignment_from_engine(
    engine,
    kind,
    gold_pairs: np.ndarray,
    match_threshold: float = 0.0,
) -> AlignmentScores:
    """All metrics for one alignment task, read through a similarity engine.

    The engine's replacement for calling :func:`evaluate_alignment` on a
    full matrix: only the *gold-row slab* (``|test| × M`` — the paper's
    protocol restricts both the ranking and the greedy matching to rows with
    a gold counterpart) is ever gathered, never the ``N × M`` matrix.
    Ranking metrics come from per-pair greater/equal counts over that slab
    in bounded column blocks — the same tie-aware ranks as the full-matrix
    path, which this equals whenever the slab equals the matrix rows.

    Memory note: the greedy F1 protocol inherently needs the whole gold-row
    slab at once, so evaluation peaks at ``O(|gold| · M)``.
    When the gold set covers most rows of a very large pair, bound the
    evaluation budget (sample gold pairs) the way
    ``benchmarks/bench_similarity_scale.py`` does — streaming cannot remove
    a cost the matching protocol itself requires.
    """
    gold_pairs = np.asarray(gold_pairs, dtype=np.int64).reshape(-1, 2)
    num_rows, num_cols = engine.shape(kind)
    if num_rows == 0 or num_cols == 0 or gold_pairs.size == 0:
        return AlignmentScores(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    unique_rows, row_pos = np.unique(gold_pairs[:, 0], return_inverse=True)
    rights = gold_pairs[:, 1]

    # One gather of the gold rows serves both metric families (greedy
    # matching needs the slab anyway).  Rank counts walk it in column blocks
    # so the comparison temporaries stay O(|gold| · block); they reproduce
    # _tie_aware_rank exactly.
    slab = engine.rows(kind, unique_rows)
    targets = slab[row_pos, rights]
    greater = np.zeros(len(gold_pairs), dtype=np.int64)
    equal = np.zeros(len(gold_pairs), dtype=np.int64)
    block = max(int(getattr(engine, "block_size", num_cols)), 1)
    for start in range(0, num_cols, block):
        pair_rows = slab[row_pos, start : start + block]  # (|gold|, block)
        greater += np.sum(pair_rows > targets[:, None], axis=1)
        equal += np.sum(pair_rows == targets[:, None], axis=1)
    ranks = greater + (equal - 1) / 2.0 + 1.0
    # accumulate exactly like hits_at_k / mean_reciprocal_rank do on the full
    # matrix, so equal slabs give bit-identical results
    h1 = int(np.sum(ranks <= 1)) / len(gold_pairs)
    h10 = int(np.sum(ranks <= 10)) / len(gold_pairs)
    total = 0.0
    for rank in ranks:
        total += 1.0 / rank
    mrr = total / len(gold_pairs)

    matches = greedy_match(slab, threshold=match_threshold)
    predicted = [(int(unique_rows[i]), int(j)) for i, j in matches]
    gold_set = {(int(a), int(b)) for a, b in gold_pairs}
    precision, recall, f1 = precision_recall_f1(predicted, gold_set)
    return AlignmentScores(h1, h10, mrr, precision, recall, f1)


def evaluate_alignment(
    similarity_matrix: np.ndarray,
    gold_pairs: np.ndarray,
    match_threshold: float = 0.0,
) -> AlignmentScores:
    """Compute all metrics for one alignment task.

    ``gold_pairs`` is an ``(n, 2)`` index array.  Ranking metrics are computed
    over the gold left elements; set metrics compare the greedy matching
    against the gold pairs.  The greedy matching is restricted to rows that
    have a gold counterpart, which mirrors the paper's protocol of evaluating
    on the test partition (other rows are dangling by construction and would
    only add unmatched predictions).
    """
    gold_pairs = np.asarray(gold_pairs, dtype=np.int64).reshape(-1, 2)
    if similarity_matrix.size == 0 or gold_pairs.size == 0:
        return AlignmentScores(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    h1 = hits_at_k(similarity_matrix, gold_pairs, 1)
    h10 = hits_at_k(similarity_matrix, gold_pairs, 10)
    mrr = mean_reciprocal_rank(similarity_matrix, gold_pairs)

    rows = np.unique(gold_pairs[:, 0])
    matches = greedy_match(similarity_matrix[rows], threshold=match_threshold)
    predicted = [(int(rows[i]), int(j)) for i, j in matches]
    gold_set = {(int(a), int(b)) for a, b in gold_pairs}
    precision, recall, f1 = precision_recall_f1(predicted, gold_set)
    return AlignmentScores(h1, h10, mrr, precision, recall, f1)
