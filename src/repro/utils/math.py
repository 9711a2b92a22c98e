"""Numeric helpers shared across embedding, alignment and active-learning code."""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def l2_normalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return ``x`` scaled to unit L2 norm along ``axis`` (zero-safe)."""
    norm = np.linalg.norm(x, axis=axis, keepdims=True)
    return x / np.maximum(norm, _EPS)


def safe_l2_normalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unit-normalise ``x`` along ``axis``; zero-norm rows become exact zeros.

    Unlike :func:`l2_normalize` (which divides by ``max(norm, eps)``), rows
    whose norm is below ``eps`` are never divided at all: the output row is
    exactly ``0.0``, so a zero-norm embedding contributes exactly-zero cosine
    similarity everywhere instead of an ``x / eps`` blow-up (or NaN when the
    input itself is degenerate).  For rows with norm ≥ ``eps`` the result is
    bit-identical to :func:`l2_normalize`.
    """
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x, axis=axis, keepdims=True)
    safe = np.maximum(norm, _EPS)
    out = np.divide(x, safe, out=np.zeros_like(x), where=norm >= _EPS)
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors, defined as 0 for zero vectors."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < _EPS or nb < _EPS:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between rows of ``a`` and rows of ``b``.

    Returns an ``(len(a), len(b))`` matrix.  Rows with norm below ``eps``
    yield exactly-zero similarity (:func:`safe_l2_normalize`) — an ``x / eps``
    blow-up on a degenerate row would otherwise leak garbage similarities
    into top-k tables and calibration.
    """
    a_n = safe_l2_normalize(np.asarray(a, dtype=float))
    b_n = safe_l2_normalize(np.asarray(b, dtype=float))
    return a_n @ b_n.T


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_sq = np.sum(a * a, axis=1)[:, None]
    b_sq = np.sum(b * b, axis=1)[None, :]
    d = a_sq + b_sq - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def softmax(x: np.ndarray, axis: int = -1, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax with optional temperature scaling."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = np.asarray(x, dtype=float) / temperature
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def stable_log(x: np.ndarray) -> np.ndarray:
    """Logarithm clipped away from zero to avoid ``-inf``."""
    return np.log(np.maximum(np.asarray(x, dtype=float), _EPS))


def top_k_indices(scores: np.ndarray, k: int, largest: bool = True) -> np.ndarray:
    """Indices of the ``k`` largest (or smallest) entries of a 1-D array, sorted.

    ``k`` larger than the array size is truncated rather than an error, which
    matches how candidate pools are built for small synthetic KGs.
    """
    scores = np.asarray(scores)
    k = min(k, scores.shape[-1])
    if k <= 0:
        return np.empty(0, dtype=int)
    if largest:
        part = np.argpartition(-scores, k - 1)[:k]
        return part[np.argsort(-scores[part])]
    part = np.argpartition(scores, k - 1)[:k]
    return part[np.argsort(scores[part])]


def top_k_rows(matrix: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the ``k`` largest columns, sorted descending.

    Uses ``np.argpartition`` (O(n) per row) instead of a full ``argsort``
    (O(n log n)); only the selected ``k`` entries are sorted.  ``k`` larger
    than the number of columns is truncated.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("top_k_rows expects a 2-D matrix")
    num_cols = matrix.shape[1]
    k = min(k, num_cols)
    if k <= 0 or matrix.size == 0:
        return np.empty((matrix.shape[0], max(k, 0)), dtype=np.int64)
    if k >= num_cols:
        return np.argsort(-matrix, axis=1).astype(np.int64)
    part = np.argpartition(-matrix, k - 1, axis=1)[:, :k]
    rows = np.arange(matrix.shape[0])[:, None]
    order = np.argsort(-matrix[rows, part], axis=1)
    return part[rows, order].astype(np.int64)

