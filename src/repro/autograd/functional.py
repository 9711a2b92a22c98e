"""Composite differentiable operations built on :class:`~repro.autograd.tensor.Tensor`.

These are the building blocks the embedding and alignment models share:
scatter-add aggregation (graph message passing), row-wise norms and cosine
similarities, numerically-stable softmax / log-softmax, and the paper's loss
shapes (margin ranking, pairwise softmax, focal loss).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, _scatter_add_rows, as_tensor


def scatter_rows(source: Tensor, indices: np.ndarray, num_rows: int) -> Tensor:
    """Sum rows of ``source`` into ``num_rows`` buckets given by ``indices``.

    ``source`` has shape ``(n, d)`` and ``indices`` shape ``(n,)``; the result
    has shape ``(num_rows, d)`` where row ``i`` is the sum of source rows with
    ``indices == i``.  This is the aggregation step of the CompGCN layer.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = _scatter_add_rows((num_rows, source.data.shape[1]), indices, source.data)

    def backward(grad: np.ndarray) -> None:
        if source.requires_grad:
            source._accumulate(np.asarray(grad)[indices])

    return Tensor._make(out_data, (source,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    parents = tuple(as_tensor(t) for t in tensors)
    out_data = np.concatenate([p.data for p in parents], axis=axis)
    sizes = [p.data.shape[axis] for p in parents]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        for i, p in enumerate(parents):
            if p.requires_grad:
                slicer = [slice(None)] * g.ndim
                slicer[axis if axis >= 0 else g.ndim + axis] = slice(offsets[i], offsets[i + 1])
                p._accumulate(g[tuple(slicer)])

    return Tensor._make(out_data, parents, backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise maximum of two tensors (sub-gradient goes to the winner).

    Ties split the gradient evenly, matching the convention used for
    ``Tensor.max``.
    """
    a_t, b_t = as_tensor(a), as_tensor(b)
    out_data = np.maximum(a_t.data, b_t.data)
    a_wins = (a_t.data > b_t.data).astype(np.float64)
    b_wins = (b_t.data > a_t.data).astype(np.float64)
    ties = 1.0 - a_wins - b_wins

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if a_t.requires_grad:
            a_t._accumulate(g * (a_wins + 0.5 * ties))
        if b_t.requires_grad:
            b_t._accumulate(g * (b_wins + 0.5 * ties))

    return Tensor._make(out_data, (a_t, b_t), backward)


def row_norms(x: Tensor, eps: float = 1e-12) -> Tensor:
    """L2 norm of each row of a 2-D tensor, shape ``(n,)``."""
    return ((x * x).sum(axis=1) + eps) ** 0.5


def cosine_similarity_rows(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Cosine similarity between corresponding rows of ``a`` and ``b``."""
    dot = (a * b).sum(axis=1)
    return dot / (row_norms(a, eps) * row_norms(b, eps))


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


def margin_ranking_loss(positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    """Mean hinge loss ``|margin + positive - negative|_+`` (Eqs. 1 and 3).

    ``positive`` holds scores of observed triples (should be small) and
    ``negative`` scores of corrupted triples (should be larger by ``margin``).
    """
    return (positive - negative + margin).clamp_min(0.0).mean()


def pairwise_softmax_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """The alignment loss of Eqs. 5 and 8.

    For each positive match similarity ``s+`` and its paired negative ``s-``,
    the loss is ``-log softmax(s+, s-)[0]``, i.e. a two-way classification of
    the match against its corruption.  Scores are stacked along the last axis.
    """
    stacked = concatenate([pos_scores.reshape(-1, 1), neg_scores.reshape(-1, 1)], axis=1)
    log_probs = log_softmax(stacked, axis=1)
    return -(log_probs[:, 0]).mean()


def focal_pairwise_softmax_loss(pos_scores: Tensor, neg_scores: Tensor, gamma: float = 2.0) -> Tensor:
    """Focal-loss variant of :func:`pairwise_softmax_loss` (Sect. 4.2 fine-tuning).

    The softmax output ``p`` for the positive class is re-weighted by
    ``(1 - p)^gamma`` so badly classified (typically newly-labelled) pairs
    dominate the gradient.  The weight itself is treated as a constant, which
    matches the usual focal-loss implementation.
    """
    stacked = concatenate([pos_scores.reshape(-1, 1), neg_scores.reshape(-1, 1)], axis=1)
    log_probs = log_softmax(stacked, axis=1)
    with_probs = np.exp(log_probs.data[:, 0])
    weights = Tensor((1.0 - with_probs) ** gamma)
    return -(weights * log_probs[:, 0]).mean()


def soft_label_loss(similarities: Tensor, soft_labels: np.ndarray) -> Tensor:
    """Semi-supervised loss of Eq. 10: ``-sum(S0(x,x') * S(x,x'))``.

    ``soft_labels`` are similarities from the previous model ``S0`` and are
    constants with respect to the optimiser.
    """
    labels = Tensor(np.asarray(soft_labels, dtype=np.float64))
    return -(labels * similarities).mean()
