"""Reverse-mode autograd :class:`Tensor`.

The implementation follows the classic tape-less design: every operation
returns a new ``Tensor`` holding its parents and a ``_backward`` closure that
propagates the output gradient to the parents.  Calling :meth:`Tensor.backward`
topologically sorts the graph and runs the closures in reverse order.

Gradient correctness is what everything downstream (embedding training, the
joint alignment model, gradient-based inference power) rests on, so the
test-suite checks every op against central finite differences.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Grad mode is *thread-local*: a ``no_grad`` block on one thread (a serving
# worker, a similarity read) must never switch off graph recording for a
# model training on another thread (a plain module global did exactly that).
# Single-threaded behaviour is unchanged.
_grad_state = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd graph (this thread)."""
    return getattr(_grad_state, "enabled", True)


def _scatter_add_rows(shape: tuple[int, ...], indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A new float64 array of ``shape`` holding ``rows`` summed at row ``indices``.

    ``rows`` has shape ``indices.shape + shape[1:]``; duplicate indices
    accumulate and negative ones count from the end.  The result is
    byte-identical to ``np.add.at(np.zeros(shape), indices, rows)`` but far
    cheaper: the whole scatter is ONE ``np.bincount`` over the flattened keys
    ``row * width + column``.  bincount adds its weights sequentially in
    occurrence order, so every output element sums its contributions in the
    same order ``np.add.at`` does.  (Sort + ``np.add.reduceat`` grouping is
    *not* bit-exact: reduceat's reduction order is unspecified for groups of
    three or more.)
    """
    num_rows = shape[0]
    width = math.prod(shape[1:])
    flat_indices = indices.reshape(-1)
    if flat_indices.size == 0:  # bincount would return int64 zeros here
        return np.zeros(shape)
    flat_indices = np.where(flat_indices < 0, flat_indices + num_rows, flat_indices)
    keys = (flat_indices[:, None] * width + np.arange(width)).reshape(-1)
    weights = np.asarray(rows, dtype=np.float64).reshape(-1)
    summed = np.bincount(keys, weights=weights, minlength=num_rows * width)
    if summed.size != num_rows * width:
        raise IndexError(f"row index out of bounds for {num_rows} rows")
    return summed.reshape(shape)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (the reverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an optional gradient and autograd history.

    Gradient buffers are immutable by convention: no code writes into a
    ``.grad`` array in place.  Accumulation rebinds (``grad = grad + g``),
    optimisers only read, and the backward closures build new arrays or
    views of their upstream gradient.  That lets a first accumulate adopt
    the incoming array without a defensive copy, even when it is shared
    (``x + y`` hands both parents the same upstream array) or is a
    read-only broadcast view.  The one array that arrives from outside the
    graph, a caller's ``backward(grad)`` seed, is copied once on entry.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make numpy defer to Tensor for mixed ops

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------- properties
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing the data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -------------------------------------------------------------- graph core
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad  # adopted, not copied: see the class docstring
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor (must be scalar unless ``grad`` given)."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=np.float64)  # never alias the caller's seed
        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        try:
            for node in reversed(topo):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
        finally:
            # Interior (operation-node) gradients are transient: only leaves
            # keep theirs across backward calls.  Clearing them — even when a
            # closure raises part-way — lets a retained graph (e.g. a cached
            # forward session shared by several losses) be backward-ed
            # repeatedly without double-counting an earlier pass.
            for node in topo:
                if node._backward is not None:
                    node.grad = None

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike | "Tensor") -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike | "Tensor") -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data**2))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike | "Tensor") -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad, dtype=np.float64)
            a, b = self.data, other_t.data
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    ga = g * b
                elif a.ndim == 1:
                    ga = g @ b.T
                elif b.ndim == 1:
                    ga = np.outer(g, b)
                else:
                    ga = g @ np.swapaxes(b, -1, -2)
                self._accumulate(ga)
            if other_t.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    gb = g * a
                elif a.ndim == 1:
                    gb = np.outer(a, g)
                elif b.ndim == 1:
                    gb = a.T @ g
                else:
                    gb = np.swapaxes(a, -1, -2) @ g
                other_t._accumulate(gb)

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------- reductions
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def norm(self, axis: int | None = None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm along ``axis`` (all elements when ``axis`` is None)."""
        sq = (self * self).sum(axis=axis, keepdims=keepdims)
        return (sq + eps) ** 0.5

    def max(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(np.float64)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ---------------------------------------------------------- element-wise
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self, eps: float = 1e-12) -> "Tensor":
        clipped = np.maximum(self.data, eps)
        out_data = np.log(clipped)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / clipped)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        """Hinge ``max(x, minimum)`` — used for margin losses ``|·|_+``."""
        mask = (self.data > minimum).astype(np.float64)
        out_data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ----------------------------------------------------------- shape / index
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).T)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        # 1-D integer-array indices are row lookups: delegate to gather_rows
        # so they share its scatter-add fast path; everything else (slices,
        # tuples, masks) keeps the generic np.add.at backward.
        if isinstance(index, (np.ndarray, list)):
            candidate = np.asarray(index)
            if candidate.ndim == 1 and candidate.dtype.kind in "iu":
                return self.gather_rows(candidate)
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Row lookup ``self[indices]`` with scatter-add backward (embeddings)."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_rows(indices, grad)

        return Tensor._make(out_data, (self,), backward)

    def _accumulate_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Accumulate ``rows`` summed at row ``indices``: the backward of one gather.

        The fused loss nodes of :mod:`repro.autograd.functional` scatter into
        their gathered tables through here too, so every row scatter of a
        backward pass resolves ``_scatter_add_rows`` in this module, at call
        time.
        """
        self._accumulate(_scatter_add_rows(self.data.shape, indices, rows))


def as_tensor(value: ArrayLike | Tensor) -> Tensor:
    """Wrap ``value`` into a non-differentiable Tensor when needed."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Public constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)
