"""Composite differentiable operations built on :class:`~repro.autograd.tensor.Tensor`.

These are the building blocks the embedding and alignment models share:
scatter-add aggregation (graph message passing), concatenation, element-wise
maximum, and the paper's loss shapes (margin ranking, pairwise softmax, focal
loss, the semi-supervised soft-label loss).

The losses on the training hot path are *fused*: each is one tape node with
a hand-written backward instead of a graph of a dozen elementary nodes.

* :func:`translation_margin_loss` — the margin loss of Eq. 1 for the
  ``||h + r − t||`` decoder, gathered straight from the forward-session
  tensors.  :class:`~repro.embedding.base.TranslationalModel` (TransE and
  CompGCN) routes ``margin_loss`` through it; RotatE keeps the composed
  ``triple_scores`` + :func:`margin_ranking_loss` default.
* :func:`cosine_similarity_rows` — every ``*_pair_similarity`` channel, the
  relation-translation term and the semi-supervised loss.
* :func:`pairwise_softmax_loss` and :func:`focal_pairwise_softmax_loss` —
  the match losses of Eqs. 5 and 8.

The fused nodes are **bit-exact** with the composed graphs they replace.
Forward and backward run exactly the NumPy operations the composed ops ran,
on arrays of the same shapes and in the same order.  That includes their
floating-point quirks: ``(h + r) + (-t)``, two separate accumulations for
``x * x``, ``((-g) * dot) / den ** 2``, ``(g * 0.5) * s ** -0.5`` and a mean
taken as ``sum * (1 / n)``.  Each parent receives its gradient contributions
through ``_accumulate`` one at a time, in the order the composed backward
delivered them, and the parents are listed so the tape's depth-first sort
reaches the upstream graph in the same order as before.  Training therefore
produces byte-identical parameters; ``tests/test_autograd_parity.py`` checks
that against the composed forms kept in ``tests/composed_losses.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, _scatter_add_rows, as_tensor

#: Added under every square root, as ``Tensor.norm`` does.
_EPS = 1e-12


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


def margin_ranking_loss(positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    """Mean hinge loss ``|margin + positive - negative|_+`` (Eqs. 1 and 3).

    ``positive`` holds scores of observed triples (should be small) and
    ``negative`` scores of corrupted triples (should be larger by ``margin``).
    """
    return (positive - negative + margin).clamp_min(0.0).mean()


def _translation_residual(entities: np.ndarray, relations: np.ndarray, triples: np.ndarray):
    """``h + r − t`` of each triple and its squared norm plus ``eps``."""
    diff = (entities[triples[:, 0]] + relations[triples[:, 1]]) + (-entities[triples[:, 2]])
    return diff, (diff * diff).sum(axis=1) + _EPS


def translation_margin_loss(
    entities: Tensor,
    relations: Tensor,
    positives: np.ndarray,
    negatives: np.ndarray,
    margin: float,
) -> Tensor:
    """Eq. 1 for the translational decoder, as one tape node.

    Computes ``mean(|margin + ||h+r−t|| − ||h'+r'−t'|| |_+)`` over the rows of
    the ``(n, 3)`` index arrays ``positives`` and ``negatives``, gathering
    ``h, t`` from ``entities`` and ``r`` from ``relations``.  Bit-exact with
    ``margin_ranking_loss`` over two gathered ``||h + r − t||`` score vectors.
    """
    positives = np.asarray(positives, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    pos_diff, pos_sq = _translation_residual(entities.data, relations.data, positives)
    neg_diff, neg_sq = _translation_residual(entities.data, relations.data, negatives)
    hinge = (pos_sq**0.5 + (-(neg_sq**0.5))) + margin
    mask = (hinge > 0.0).astype(np.float64)
    scale = 1.0 / hinge.size
    out_data = np.maximum(hinge, 0.0).sum() * scale

    def backward(grad: np.ndarray) -> None:
        g_hinge = np.broadcast_to(np.asarray(grad * scale), hinge.shape) * mask
        for triples, diff, sq, g_score in (
            (positives, pos_diff, pos_sq, g_hinge),
            (negatives, neg_diff, neg_sq, -g_hinge),
        ):
            g_sq = (g_score * 0.5) * sq**-0.5
            g_half = np.broadcast_to(np.expand_dims(g_sq, axis=1), diff.shape) * diff
            g_diff = g_half + g_half
            if entities.requires_grad:
                entities._accumulate_rows(triples[:, 0], g_diff)
            if relations.requires_grad:
                relations._accumulate_rows(triples[:, 1], g_diff)
            if entities.requires_grad:
                entities._accumulate_rows(triples[:, 2], -g_diff)

    # relations first: the tape's depth-first sort then enters the entity
    # graph first, as it did through the composed graph's ``neg.t`` gather
    return Tensor._make(out_data, (relations, entities), backward)


def cosine_similarity_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity between corresponding rows of ``a`` and ``b``, one tape node.

    ``(a·b) / (sqrt(|a|² + eps) · sqrt(|b|² + eps))``, bit-exact with the
    composed ``(a * b).sum(1) / (row_norm(a) * row_norm(b))``.
    """
    a_t, b_t = as_tensor(a), as_tensor(b)
    a_data, b_data = a_t.data, b_t.data
    dot = (a_data * b_data).sum(axis=1)
    a_sq = (a_data * a_data).sum(axis=1) + _EPS
    b_sq = (b_data * b_data).sum(axis=1) + _EPS
    a_norm, b_norm = a_sq**0.5, b_sq**0.5
    den = a_norm * b_norm
    out_data = dot / den

    def backward(grad: np.ndarray) -> None:
        g_dot = np.broadcast_to(np.expand_dims(grad / den, axis=1), a_data.shape)
        g_den = -grad * dot / (den**2)
        if a_t.requires_grad:
            a_t._accumulate(g_dot * b_data)
        if b_t.requires_grad:
            b_t._accumulate(g_dot * a_data)
        for t, data, sq, g_norm in (
            (a_t, a_data, a_sq, g_den * b_norm),
            (b_t, b_data, b_sq, g_den * a_norm),
        ):
            if t.requires_grad:
                g_sq = (g_norm * 0.5) * sq**-0.5
                g_half = np.broadcast_to(np.expand_dims(g_sq, axis=1), data.shape) * data
                t._accumulate(g_half)
                t._accumulate(g_half)

    return Tensor._make(out_data, (a_t, b_t), backward)


def _pairwise_softmax(pos_scores: Tensor, neg_scores: Tensor, gamma: float | None) -> Tensor:
    """``-mean(w · log softmax(s+, s-)[0])``, one tape node; ``w = 1`` unless ``gamma``."""
    pos_t, neg_t = as_tensor(pos_scores), as_tensor(neg_scores)
    stacked = np.concatenate([pos_t.data.reshape(-1, 1), neg_t.data.reshape(-1, 1)], axis=1)
    shifted = stacked + (-stacked.max(axis=1, keepdims=True))
    exp = np.exp(shifted)
    clipped = np.maximum(exp.sum(axis=1, keepdims=True), _EPS)
    log_probs = shifted + (-np.log(clipped))
    first = log_probs[:, 0]
    scale = 1.0 / first.size
    weights = None if gamma is None else (1.0 - np.exp(first)) ** gamma
    weighted = first if weights is None else weights * first
    out_data = -(weighted.sum() * scale)

    def backward(grad: np.ndarray) -> None:
        g_first = np.broadcast_to(np.asarray(-grad * scale), first.shape)
        if weights is not None:
            g_first = g_first * weights
        g_log_probs = np.zeros_like(log_probs)
        g_log_probs[:, 0] += g_first  # 0 + g, as the composed np.add.at did
        g_total = (-g_log_probs.sum(axis=1, keepdims=True)) / clipped
        g_stacked = g_log_probs + np.broadcast_to(g_total, exp.shape) * exp
        if pos_t.requires_grad:
            pos_t._accumulate(g_stacked[:, 0:1].reshape(pos_t.data.shape))
        if neg_t.requires_grad:
            neg_t._accumulate(g_stacked[:, 1:2].reshape(neg_t.data.shape))

    return Tensor._make(out_data, (pos_t, neg_t), backward)


def pairwise_softmax_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """The alignment loss of Eqs. 5 and 8.

    For each positive match similarity ``s+`` and its paired negative ``s-``,
    the loss is ``-log softmax(s+, s-)[0]``, i.e. a two-way classification of
    the match against its corruption.
    """
    return _pairwise_softmax(pos_scores, neg_scores, None)


def focal_pairwise_softmax_loss(pos_scores: Tensor, neg_scores: Tensor, gamma: float = 2.0) -> Tensor:
    """Focal-loss variant of :func:`pairwise_softmax_loss` (Sect. 4.2 fine-tuning).

    The softmax output ``p`` for the positive class is re-weighted by
    ``(1 - p)^gamma`` so badly classified (typically newly-labelled) pairs
    dominate the gradient.  The weight itself is treated as a constant, which
    matches the usual focal-loss implementation.
    """
    return _pairwise_softmax(pos_scores, neg_scores, gamma)


def soft_label_loss(similarities: Tensor, soft_labels: np.ndarray) -> Tensor:
    """Semi-supervised loss of Eq. 10: ``-sum(S0(x,x') * S(x,x'))``.

    ``soft_labels`` are similarities from the previous model ``S0`` and are
    constants with respect to the optimiser.
    """
    labels = Tensor(np.asarray(soft_labels, dtype=np.float64))
    return -(labels * similarities).mean()
