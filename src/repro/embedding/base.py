"""The shared interface of entity-relation embedding models.

Downstream components rely on three views of a model:

* **training view** — :meth:`KGEmbeddingModel.triple_scores` gives
  differentiable scores ``f_er`` for (possibly corrupted) triples, used with
  the margin loss of Eq. 1;
* **alignment view** — :meth:`entity_output` / :meth:`relation_output` give
  differentiable *output representations* (for GNN models these aggregate the
  neighbourhood), which the joint alignment model maps across KGs;

All differentiable views read through :meth:`KGEmbeddingModel.outputs`, a
*forward-computation session*: the full ``(entity, relation)`` representation
tensors are computed once per parameter version (the counter in
:mod:`repro.nn.optim`, bumped by optimiser steps, ``renormalize`` and
``load_state_dict``) and every consumer gathers slices of that one retained
graph.  Within one optimisation step the many loss terms of joint training
therefore share a single model forward, and ``loss.backward()`` accumulates
through it once instead of re-running message passing per term;
* **inference view** — :meth:`solve_tail` approximates the tail embedding that
  a (head, relation) pair determines, together with an error bound ``d``
  (Eq. 13/14).  TransE overrides this with the exact closed form (``d = 0``);
  other models use the generic sampled gradient-descent solver, which is what
  makes their bounds looser — the effect Table 6 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.autograd.tensor import Tensor, is_grad_enabled, no_grad
from repro.kg.graph import KnowledgeGraph
from repro.nn.module import Module
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class ForwardOutputs:
    """One full model forward, shared by every consumer at a parameter version.

    ``entities``/``relations`` hold the output representations of *all*
    entities/relations of the KG; consumers slice them with ``gather_rows``
    so their gradients all accumulate through this one retained graph.
    """

    entities: Tensor
    relations: Tensor
    version: int

    @property
    def differentiable(self) -> bool:
        """Whether gradients can flow through these outputs.

        A forward computed under ``no_grad`` has no graph and must not be
        served to training-mode consumers.
        """
        return self.entities.requires_grad and self.relations.requires_grad


@dataclass(frozen=True)
class TailSolution:
    """Result of solving ``f_er(h, r, t) = 0`` for the tail embedding.

    ``translation`` is the difference vector ``r̃ = ẽ_t − e_h`` of Eq. 13 and
    ``bound`` the radius ``d`` such that any optimum tail lies within
    ``bound`` of ``e_h + translation``.
    """

    translation: np.ndarray
    bound: float


class KGEmbeddingModel(Module):
    """Abstract base class of entity-relation embedding models for one KG."""

    def __init__(self, kg: KnowledgeGraph, dim: int, rng: RandomState = None) -> None:
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        self.kg = kg
        self.dim = dim
        self.rng = ensure_rng(rng)
        self.forward_count = 0
        self._outputs_cache: ForwardOutputs | None = None

    # -------------------------------------------------------- forward session
    def _forward_outputs(self) -> tuple[Tensor, Tensor]:
        """Uncached full forward: ``(entity, relation)`` output tensors."""
        raise NotImplementedError

    def outputs(self) -> ForwardOutputs:
        """The full forward for the current parameters, computed at most once.

        Memoized on the parameter version token: as long as no optimiser
        step, ``renormalize`` or ``load_state_dict`` intervenes, every caller
        receives the *same* retained tensors and their gathers share one
        autograd graph.  A forward first taken under ``no_grad`` is replaced
        by a differentiable one when a training-mode consumer asks.
        """
        cached = self._outputs_cache
        if (
            cached is not None
            and cached.version == self.parameter_token()
            and (cached.differentiable or not is_grad_enabled())
        ):
            # Serving the retained graph repeatedly is safe across multiple
            # backward calls: Tensor.backward clears interior grads in its
            # epilogue, so a later pass never double-counts an earlier one.
            obs.counter("embedding.forward.reused").inc()
            return cached
        entities, relations = self._forward_outputs()
        self.forward_count += 1
        obs.counter("embedding.forward.computed").inc()
        entry = ForwardOutputs(entities, relations, self.parameter_token())
        self._outputs_cache = entry
        return entry

    def invalidate_outputs(self) -> None:
        """Drop the cached forward (bumping the parameter version also works)."""
        self._outputs_cache = None

    # --------------------------------------------------------------- training
    def triple_scores(self, triples: np.ndarray) -> Tensor:
        """Differentiable plausibility scores ``f_er`` for an ``(n, 3)`` index array.

        Lower is better; observed triples should score close to 0.
        """
        raise NotImplementedError

    # -------------------------------------------------------------- alignment
    def entity_output(self, indices: np.ndarray) -> Tensor:
        """Differentiable output representations of the given entities."""
        return self.outputs().entities.gather_rows(np.asarray(indices, dtype=np.int64))

    def relation_output(self, indices: np.ndarray) -> Tensor:
        """Differentiable output representations of the given relations."""
        return self.outputs().relations.gather_rows(np.asarray(indices, dtype=np.int64))

    def all_entity_outputs(self) -> Tensor:
        """Output representations of every entity, shape ``(|E|, dim)``."""
        return self.outputs().entities

    def all_relation_outputs(self) -> Tensor:
        """Output representations of every relation, shape ``(|R|, dim)``.

        Relation tables pad to one row for relation-less KGs, so slice the
        session tensor down to the true relation count.
        """
        relations = self.outputs().relations
        if relations.shape[0] == self.kg.num_relations:
            return relations
        return relations.gather_rows(np.arange(self.kg.num_relations))

    # ----------------------------------------------------------- numpy access
    def entity_matrix(self) -> np.ndarray:
        """Detached entity output representations (served from the session cache)."""
        with no_grad():
            return self.outputs().entities.numpy().copy()

    def relation_matrix(self) -> np.ndarray:
        """Detached relation output representations."""
        with no_grad():
            return self.all_relation_outputs().numpy().copy()

    # ---------------------------------------------------------- inference view
    def score_np(self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray) -> float:
        """``f_er`` evaluated on raw numpy output-space embeddings.

        ``relation_vec`` is a row of :meth:`relation_matrix`; the caller caches
        those matrices so this never triggers a model forward pass.
        """
        raise NotImplementedError

    def score_np_grad_tail(
        self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray
    ) -> np.ndarray:
        """Gradient of :meth:`score_np` with respect to the tail embedding.

        The default implementation uses central finite differences; subclasses
        with a closed form should override for speed.
        """
        eps = 1e-4
        grad = np.zeros_like(tail)
        for i in range(tail.shape[0]):
            plus = tail.copy()
            minus = tail.copy()
            plus[i] += eps
            minus[i] -= eps
            grad[i] = (
                self.score_np(head, relation_vec, plus) - self.score_np(head, relation_vec, minus)
            ) / (2 * eps)
        return grad

    def score_np_grad_head(
        self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray
    ) -> np.ndarray:
        """Gradient of :meth:`score_np` with respect to the head embedding.

        Needed by incremental fold-in (serving): a new entity appearing as the
        head of its triples is optimised against frozen neighbours.  The
        default uses central finite differences; translational models override
        with the closed form.
        """
        eps = 1e-4
        grad = np.zeros_like(head)
        for i in range(head.shape[0]):
            plus = head.copy()
            minus = head.copy()
            plus[i] += eps
            minus[i] -= eps
            grad[i] = (
                self.score_np(plus, relation_vec, tail) - self.score_np(minus, relation_vec, tail)
            ) / (2 * eps)
        return grad

    def solve_tail(
        self,
        head_embedding: np.ndarray,
        relation_vec: np.ndarray,
        entity_matrix: np.ndarray,
        num_samples: int = 4,
        num_steps: int = 25,
        step_size: float = 0.1,
        rng: RandomState = None,
    ) -> TailSolution:
        """Approximate the tail embedding determined by ``(head, relation)``.

        Generic sampled solver (Sect. 5.2): start from ``num_samples`` random
        entity embeddings, run gradient descent on ``f_er(h, r, ·)``, average
        the local optima into ``ẽ_t`` and report the largest distance from a
        local optimum to ``ẽ_t`` as the bound ``d``.

        ``entity_matrix`` is a cached copy of :meth:`entity_matrix` supplied by
        the caller (the inference-power module snapshots it once per round).
        """
        rng = ensure_rng(self.rng if rng is None else rng)
        solutions = []
        for _ in range(max(1, num_samples)):
            start = entity_matrix[int(rng.integers(0, entity_matrix.shape[0]))].copy()
            current = start
            for _ in range(num_steps):
                grad = self.score_np_grad_tail(head_embedding, relation_vec, current)
                norm = np.linalg.norm(grad)
                if norm < 1e-9:
                    break
                current = current - step_size * grad
            solutions.append(current)
        stacked = np.stack(solutions, axis=0)
        mean_tail = stacked.mean(axis=0)
        bound = float(np.max(np.linalg.norm(stacked - mean_tail, axis=1))) if len(solutions) > 1 else 0.0
        return TailSolution(translation=mean_tail - head_embedding, bound=bound)

    def local_relation_embedding(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """The relation representation that best explains ``(head, ?, tail)``.

        This is the "local optimum relation embedding" of Eq. 7: for each
        triple, the relation vector minimising ``f_er(h, r, t)``.  Models with
        a translational decoder return ``t − h``; RotatE returns the
        per-coordinate rotation.  The result lives in the same space as
        :meth:`entity_output`, so mean relation embeddings can be mapped with
        the entity mapping matrix ``A_ent`` as the paper prescribes.
        """
        return tail - head

    # -------------------------------------------------------------- bookkeeping
    def renormalize(self) -> None:
        """Optional projection step after an optimiser update (no-op by default)."""
