"""The composed forms of the fused loss nodes, kept as test oracles.

``repro.autograd.functional`` computes the training hot path's losses as one
tape node each, with a hand-written backward that must be bit-exact with the
graph of elementary ``Tensor`` ops it replaced.  This module keeps those
graphs: the row cosine through row norms, log-softmax plus the ``[:, 0]``
column pick, the softmax, and the ``||h + r − t||`` scores plus the margin
ranking loss over raw tables.  A whole model's composed margin loss is the
base-class default ``KGEmbeddingModel.margin_loss``, which stays in ``src/``.  ``tests/test_autograd.py`` compares each
fused node with its composition byte for byte, and
``tests/test_autograd_parity.py`` patches these back in for a whole fit.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import concatenate, margin_ranking_loss


def row_norms(x: Tensor, eps: float = 1e-12) -> Tensor:
    """L2 norm of each row of a 2-D tensor, shape ``(n,)``."""
    return ((x * x).sum(axis=1) + eps) ** 0.5


def cosine_similarity_rows(a: Tensor, b: Tensor) -> Tensor:
    dot = (a * b).sum(axis=1)
    return dot / (row_norms(a) * row_norms(b))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return shifted - exp.sum(axis=axis, keepdims=True).log()


def _log_probs(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    stacked = concatenate([pos_scores.reshape(-1, 1), neg_scores.reshape(-1, 1)], axis=1)
    return log_softmax(stacked, axis=1)


def pairwise_softmax_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    log_probs = _log_probs(pos_scores, neg_scores)
    return -(log_probs[:, 0]).mean()


def focal_pairwise_softmax_loss(pos_scores: Tensor, neg_scores: Tensor, gamma: float = 2.0) -> Tensor:
    log_probs = _log_probs(pos_scores, neg_scores)
    weights = Tensor((1.0 - np.exp(log_probs.data[:, 0])) ** gamma)
    return -(weights * log_probs[:, 0]).mean()


def translation_scores(entities: Tensor, relations: Tensor, triples: np.ndarray) -> Tensor:
    """``||h + r − t||`` of each ``(h, r, t)`` row, gathered from the two tables."""
    triples = np.asarray(triples, dtype=np.int64)
    h = entities.gather_rows(triples[:, 0])
    r = relations.gather_rows(triples[:, 1])
    t = entities.gather_rows(triples[:, 2])
    return (h + r - t).norm(axis=1)


def translation_margin_loss(entities, relations, positives, negatives, margin) -> Tensor:
    return margin_ranking_loss(
        translation_scores(entities, relations, positives),
        translation_scores(entities, relations, negatives),
        margin,
    )

