"""Evaluation metrics (H@k, MRR, precision/recall/F1) and the greedy matcher.

The paper reports two metric families (Sect. 7.1): ranking metrics (H@1,
H@10, MRR) computed by ranking each element's candidates by similarity, and
set metrics (precision, recall, F1) computed after extracting a one-to-one
matching greedily from the similarity matrix, following the protocol of
Leone et al. (2022).

:func:`greedy_match` is the package's one greedy one-to-one matcher: it
extracts the F1 matching here, keeps mined potential matches conflict-free
(:mod:`repro.alignment.semi_supervised`) and backs
``DAAKG.predict_matches``.  Both evaluators — :func:`evaluate_alignment` on a
full matrix and :func:`evaluate_alignment_from_engine` through a similarity
engine — gather the gold-row slab and score it with one body, and
:func:`gold_match_ids` is the one rule for which gold matches are scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.elements import ElementKind


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


#: A round that takes fewer pairs than this hands the rest of its head to the
#: sequential walk: chains of blocked candidates take one pair per round.
_WALK_BELOW = 32


def greedy_match(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Greedy one-to-one matching of candidate pairs; the only one in the package.

    ``rows`` / ``cols`` / ``values`` list the candidates of a ``shape``
    matrix in row-major order, as ``np.nonzero`` yields them.  Greedy walks
    them by descending value, equal values in row-major order, and takes a
    candidate when neither its row nor its column is taken yet.  Returns the
    positions of the taken candidates in the order greedy takes them.

    The walk runs in vectorised rounds: every remaining candidate that comes
    first in both its row and its column is one greedy takes, so a round
    takes them all and drops the candidates they block.  Rounds run over a
    head of the highest values (``np.partition``), which doubles until the
    matching is complete or no candidate is left.  Once a round takes fewer
    than ``_WALK_BELOW`` pairs the rest of the head is walked in order,
    which keeps inputs that free one pair per round linear.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    used_rows = np.zeros(shape[0], dtype=bool)
    used_cols = np.zeros(shape[1], dtype=bool)
    room = min(shape)
    taken = [np.empty(0, dtype=np.int64)]
    rest = np.arange(values.size)
    head_size = max(4 * room, 1024)
    while rest.size and room:
        if rest.size > head_size:
            rest_values = values[rest]
            cut = np.partition(rest_values, rest.size - head_size)[rest.size - head_size]
            in_head = rest_values >= cut  # all ties at the cut: a prefix of the walk
            head, rest = rest[in_head], rest[~in_head]
        else:
            head, rest = rest, rest[:0]
        head = head[np.lexsort((head, -values[head]))]
        while head.size:
            head_rows, head_cols = rows[head], cols[head]
            first = np.zeros(head.size, dtype=bool)
            first[np.unique(head_rows, return_index=True)[1]] = True
            first_col = np.zeros(head.size, dtype=bool)
            first_col[np.unique(head_cols, return_index=True)[1]] = True
            first &= first_col
            if np.count_nonzero(first) < _WALK_BELOW:
                walked = []
                for position, i, j in zip(head.tolist(), head_rows.tolist(), head_cols.tolist()):
                    if used_rows[i] or used_cols[j]:
                        continue
                    used_rows[i] = used_cols[j] = True
                    walked.append(position)
                    if len(walked) == room:
                        break
                taken.append(np.asarray(walked, dtype=np.int64))
                room -= len(walked)
                break
            taken.append(head[first])
            room -= taken[-1].size
            used_rows[head_rows[first]] = True
            used_cols[head_cols[first]] = True
            head = head[~(used_rows[head_rows] | used_cols[head_cols])]
        rest = rest[~(used_rows[rows[rest]] | used_cols[cols[rest]])]
        head_size *= 2
    positions = np.concatenate(taken)
    return positions[np.lexsort((positions, -values[positions]))]


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


def gold_match_ids(pair, test_only: bool = True) -> dict[ElementKind, np.ndarray]:
    """The gold matches every evaluator scores, per kind, as ``(n, 2)`` ids.

    Entities use ``pair``'s test split when ``test_only`` is set and the split
    is non-empty, and every gold entity match otherwise; relations and
    classes always use every gold match.
    """
    entity_pairs = pair.test_entity_pairs if test_only and pair.test_entity_pairs else None
    return {
        ElementKind.ENTITY: pair.entity_match_ids(entity_pairs),
        ElementKind.RELATION: pair.relation_match_ids(),
        ElementKind.CLASS: pair.class_match_ids(),
    }


def evaluate_pair(engine, pair, test_only: bool = True) -> dict[str, AlignmentScores]:
    """Scores of :func:`gold_match_ids` for each kind, read through ``engine``."""
    return {
        kind.value: evaluate_alignment_from_engine(engine, kind, gold)
        for kind, gold in gold_match_ids(pair, test_only).items()
    }


def _score_gold_slab(
    slab: np.ndarray,
    rows: np.ndarray,
    row_pos: np.ndarray,
    gold_pairs: np.ndarray,
    match_threshold: float,
    block: int,
) -> AlignmentScores:
    """All metrics from the gold-row slab ``slab`` (the similarity rows ``rows``).

    ``gold_pairs[i]`` reads slab row ``row_pos[i]``.  A gold counterpart's
    rank counts the columns above it plus half of those tied with it, so a
    method that scores every candidate alike is not credited with rank 1.
    The counts walk the slab in ``block`` columns, keeping the comparison
    temporaries ``O(|gold| · block)``.  Precision / recall / F1 score the
    greedy matching of the slab's entries at or above ``match_threshold``.
    """
    rights = gold_pairs[:, 1]
    targets = slab[row_pos, rights]
    greater = np.zeros(len(gold_pairs), dtype=np.int64)
    equal = np.zeros(len(gold_pairs), dtype=np.int64)
    for start in range(0, slab.shape[1], block):
        pair_rows = slab[row_pos, start : start + block]  # (|gold|, block)
        greater += np.sum(pair_rows > targets[:, None], axis=1)
        equal += np.sum(pair_rows == targets[:, None], axis=1)
    ranks = greater + (equal - 1) / 2.0 + 1.0
    h1 = int(np.sum(ranks <= 1)) / len(gold_pairs)
    h10 = int(np.sum(ranks <= 10)) / len(gold_pairs)
    # a running sum (cumsum does not pair terms) of the reciprocal ranks
    mrr = float(np.cumsum(1.0 / ranks)[-1]) / len(gold_pairs)

    slab_rows, cols = np.nonzero(slab >= match_threshold)
    taken = greedy_match(slab_rows, cols, slab[slab_rows, cols], slab.shape)
    predicted = list(zip(rows[slab_rows[taken]].tolist(), cols[taken].tolist()))
    gold_set = set(zip(gold_pairs[:, 0].tolist(), rights.tolist()))
    precision, recall, f1 = precision_recall_f1(predicted, gold_set)
    return AlignmentScores(h1, h10, mrr, precision, recall, f1)


def evaluate_alignment_from_engine(
    engine,
    kind,
    gold_pairs: np.ndarray,
    match_threshold: float = 0.0,
) -> AlignmentScores:
    """All metrics for one alignment task, read through a similarity engine.

    Only the *gold-row slab* (``|gold rows| × M``; the paper's protocol
    restricts both the ranking and the greedy matching to rows with a gold
    counterpart) is gathered, never the ``N × M`` matrix, and it is scored
    exactly as :func:`evaluate_alignment` scores the same rows.

    Memory note: the greedy F1 protocol needs the whole gold-row slab at
    once, so evaluation peaks at ``O(|gold| · M)``.  When the gold set covers
    most rows of a very large pair, bound the evaluation budget (sample gold
    pairs) the way ``benchmarks/bench_similarity_scale.py`` does.
    """
    gold_pairs = np.asarray(gold_pairs, dtype=np.int64).reshape(-1, 2)
    num_rows, num_cols = engine.shape(kind)
    if num_rows == 0 or num_cols == 0 or gold_pairs.size == 0:
        return AlignmentScores(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    rows, row_pos = np.unique(gold_pairs[:, 0], return_inverse=True)
    return _score_gold_slab(
        engine.rows(kind, rows), rows, row_pos, gold_pairs, match_threshold, engine.block_size
    )


def evaluate_alignment(
    similarity_matrix: np.ndarray,
    gold_pairs: np.ndarray,
    match_threshold: float = 0.0,
) -> AlignmentScores:
    """Compute all metrics for one alignment task from a full matrix.

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
    rows, row_pos = np.unique(gold_pairs[:, 0], return_inverse=True)
    slab = similarity_matrix[rows]
    return _score_gold_slab(slab, rows, row_pos, gold_pairs, match_threshold, slab.shape[1])
