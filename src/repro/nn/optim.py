"""Optimisers: plain SGD and Adam.

Adam is the default optimiser for all embedding/alignment training in this
reproduction (the paper uses standard deep-learning training loops; the exact
optimiser is not specified beyond stochastic gradient descent).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.nn.module import Parameter

# Monotonic counter bumped whenever an optimiser mutates parameters.  Caches
# of quantities derived from parameters (e.g. the SimilarityEngine's matrices)
# key their entries on this value: unchanged counter ⇒ identical parameters.
# The bump is lock-protected: if optimisers ever step from several threads, a
# lost increment (two mutations sharing one version) would let a stale
# similarity cache be served as fresh.
_parameter_version = 0
_parameter_version_lock = threading.Lock()


def parameter_version() -> int:
    """The current global parameter version."""
    return _parameter_version


def bump_parameter_version() -> int:
    """Invalidate parameter-derived caches; returns the new version."""
    global _parameter_version
    with _parameter_version_lock:
        _parameter_version += 1
        return _parameter_version


class Optimizer:
    """Base optimiser over an explicit parameter list."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------ state dicts
    # Optimiser progress (moment buffers, step counts) is part of a training
    # checkpoint: without it a resumed Adam restarts its bias correction and
    # the run diverges from the uninterrupted one.  Hyper-parameters (lr,
    # betas, momentum) are deliberately NOT included — they belong to the
    # configuration that reconstructs the optimiser.
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of the optimiser's progress state as a flat array dict."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load progress state produced by :meth:`state_dict`.

        Validates keys and shapes against the current parameter list before
        mutating anything, mirroring ``Module.load_state_dict``: a bad entry
        can never leave the optimiser half-loaded.
        """
        self._validate_state(state)
        self._apply_state(state)

    def _expected_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every expected state entry (empty tuple for scalars)."""
        return {}

    def _apply_state(self, state: dict[str, np.ndarray]) -> None:
        if state:  # pragma: no cover - defensive, base expects empty state
            raise NotImplementedError

    def _validate_state(self, state: dict[str, np.ndarray]) -> None:
        expected = self._expected_shapes()
        missing = set(expected) - set(state)
        if missing:
            raise KeyError(f"optimizer state dict is missing keys: {sorted(missing)[:5]}")
        unknown = set(state) - set(expected)
        if unknown:
            raise KeyError(f"optimizer state dict has unknown keys: {sorted(unknown)[:5]}")
        for key, shape in expected.items():
            got = np.asarray(state[key]).shape
            if got != shape:
                raise ValueError(f"shape mismatch for {key}: expected {shape}, got {got}")


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.data = p.data + v
        bump_parameter_version()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"velocity.{i}": v.copy() for i, v in enumerate(self._velocity)}

    def _expected_shapes(self) -> dict[str, tuple[int, ...]]:
        return {f"velocity.{i}": v.shape for i, v in enumerate(self._velocity)}

    def _apply_state(self, state: dict[str, np.ndarray]) -> None:
        for i, v in enumerate(self._velocity):
            v[...] = np.asarray(state[f"velocity.{i}"])


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        bump_parameter_version()

    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {"t": np.asarray(self._t, dtype=np.int64)}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{i}"] = m.copy()
            state[f"v.{i}"] = v.copy()
        return state

    def _expected_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes: dict[str, tuple[int, ...]] = {"t": ()}
        for i, m in enumerate(self._m):
            shapes[f"m.{i}"] = m.shape
            shapes[f"v.{i}"] = m.shape
        return shapes

    def _apply_state(self, state: dict[str, np.ndarray]) -> None:
        self._t = int(np.asarray(state["t"]))
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            m[...] = np.asarray(state[f"m.{i}"])
            v[...] = np.asarray(state[f"v.{i}"])
