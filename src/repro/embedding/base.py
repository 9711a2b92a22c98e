"""The shared interface of entity-relation embedding models.

Downstream components rely on two views of a model:

* **training view** — :meth:`KGEmbeddingModel.triple_scores` gives
  differentiable scores ``f_er`` for (possibly corrupted) triples, and
  :meth:`KGEmbeddingModel.margin_loss` the margin loss of Eq. 1 over them.
  By default ``margin_loss`` composes ``triple_scores`` with
  :func:`~repro.autograd.functional.margin_ranking_loss` (RotatE keeps that).
  :class:`TranslationalModel` — TransE and CompGCN, whose decoder is
  ``||h + r − t||`` — computes it as the single fused tape node
  :func:`~repro.autograd.functional.translation_margin_loss`, which is
  bit-exact with that composition: the same loss value and the same
  gradients, bit for bit, in the same accumulation order;
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
through it once instead of re-running message passing per term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.autograd import functional as F
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

    # --------------------------------------------------------------- training
    def triple_scores(self, triples: np.ndarray) -> Tensor:
        """Differentiable plausibility scores ``f_er`` for an ``(n, 3)`` index array.

        Lower is better; observed triples should score close to 0.
        """
        raise NotImplementedError

    def margin_loss(self, positives: np.ndarray, negatives: np.ndarray, margin: float) -> Tensor:
        """Mean margin loss ``|margin + f_er(pos) − f_er(neg)|_+`` of Eq. 1.

        ``positives`` and ``negatives`` are row-aligned ``(n, 3)`` index
        arrays.  Subclasses with a fused node override this and must stay
        bit-exact with the composition below.
        """
        return F.margin_ranking_loss(
            self.triple_scores(positives), self.triple_scores(negatives), margin
        )

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

    def local_relation_embedding(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """The relation representation that best explains ``(head, ?, tail)``.

        This is the "local optimum relation embedding" of Eq. 7: for each
        triple, the relation vector minimising ``f_er(h, r, t)``.  Models with
        a translational decoder return ``t − h``; RotatE returns the
        per-coordinate rotation.  The result lives in the same space as
        :meth:`entity_output`, so mean relation embeddings can be mapped with
        the entity mapping matrix ``A_ent`` as the paper prescribes.
        ``head`` and ``tail`` may also be ``(n, d)`` row blocks, one triple
        per row; overrides must keep that row-batched contract.
        """
        return tail - head

    # -------------------------------------------------------------- bookkeeping
    def renormalize(self) -> None:
        """Optional projection step after an optimiser update (no-op by default)."""


class TranslationalModel(KGEmbeddingModel):
    """A model decoded by ``f_er(h, r, t) = ||h + r − t||₂`` on its output space.

    TransE and CompGCN share this decoder, so they share its scores, its
    closed-form gradients and the fused margin-loss node.
    """

    def triple_scores(self, triples: np.ndarray) -> Tensor:
        triples = np.asarray(triples, dtype=np.int64)
        session = self.outputs()
        h = session.entities.gather_rows(triples[:, 0])
        r = session.relations.gather_rows(triples[:, 1])
        t = session.entities.gather_rows(triples[:, 2])
        return (h + r - t).norm(axis=1)

    def margin_loss(self, positives: np.ndarray, negatives: np.ndarray, margin: float) -> Tensor:
        session = self.outputs()
        return F.translation_margin_loss(
            session.entities, session.relations, positives, negatives, margin
        )

    def score_np(self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray) -> float:
        return float(np.linalg.norm(head + relation_vec - tail))

    def score_np_grad_tail(
        self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray
    ) -> np.ndarray:
        diff = tail - (head + relation_vec)
        norm = np.linalg.norm(diff)
        if norm < 1e-12:
            return np.zeros_like(tail)
        return diff / norm

    def score_np_grad_head(
        self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray
    ) -> np.ndarray:
        return -self.score_np_grad_tail(head, relation_vec, tail)
