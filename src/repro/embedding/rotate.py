"""RotatE (Sun et al., 2019): relations as rotations in complex space.

Entity embeddings are complex vectors of ``dim/2`` coordinates stored as
``[real | imaginary]`` halves of a real vector of size ``dim``.  Each relation
is a vector of phases; applying the relation rotates the head entity
element-wise, and the score is ``||h ∘ r − t||``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.embedding.base import KGEmbeddingModel
from repro.kg.graph import KnowledgeGraph
from repro.nn.layers import Embedding
from repro.nn.module import Parameter
from repro.utils.rng import RandomState


class RotatE(KGEmbeddingModel):
    """Rotation model: ``h ∘ r ≈ t`` with ``|r_i| = 1``."""

    def __init__(self, kg: KnowledgeGraph, dim: int = 32, rng: RandomState = None) -> None:
        if dim % 2 != 0:
            raise ValueError("RotatE requires an even embedding dimension")
        super().__init__(kg, dim, rng)
        rng = self.rng
        self.half = dim // 2
        self.entity_embeddings = Embedding(kg.num_entities, dim, rng=rng, name="entity")
        # one phase per complex coordinate per relation
        self.relation_phases = Parameter(
            rng.uniform(-np.pi, np.pi, size=(max(kg.num_relations, 1), self.half)), name="phases"
        )

    # ----------------------------------------------------------------- forward
    def _forward_outputs(self) -> tuple[Tensor, Tensor]:
        """Entity table plus the full ``[cos θ | sin θ]`` relation table.

        The trigonometry is evaluated once per parameter version over the
        whole (small) phase table; consumers gather rows, which is cheaper
        than re-deriving cos/sin for every triple of every loss term.
        """
        from repro.autograd.functional import concatenate

        return (
            self.entity_embeddings.all(),
            concatenate([_cos(self.relation_phases), _sin(self.relation_phases)], axis=1),
        )

    # ------------------------------------------------------------ complex math
    def _rotate(self, h: Tensor, rotations: Tensor) -> Tensor:
        """Element-wise complex multiplication of ``h`` by ``[cos θ | sin θ]`` rows."""
        h_re = h[:, : self.half]
        h_im = h[:, self.half :]
        cos_t = rotations[:, : self.half]
        sin_t = rotations[:, self.half :]
        out_re = h_re * cos_t - h_im * sin_t
        out_im = h_re * sin_t + h_im * cos_t
        from repro.autograd.functional import concatenate

        return concatenate([out_re, out_im], axis=1)

    # --------------------------------------------------------------- training
    def triple_scores(self, triples: np.ndarray) -> Tensor:
        triples = np.asarray(triples, dtype=np.int64)
        session = self.outputs()
        h = session.entities.gather_rows(triples[:, 0])
        t = session.entities.gather_rows(triples[:, 2])
        rotations = session.relations.gather_rows(triples[:, 1])
        return (self._rotate(h, rotations) - t).norm(axis=1)

    # ---------------------------------------------------------- inference view
    def _rotate_np(self, head: np.ndarray, relation_vec: np.ndarray) -> np.ndarray:
        """Apply a relation output vector ``[cos θ | sin θ]`` to a head embedding."""
        cos, sin = relation_vec[: self.half], relation_vec[self.half :]
        h_re, h_im = head[: self.half], head[self.half :]
        rot_re = h_re * cos - h_im * sin
        rot_im = h_re * sin + h_im * cos
        return np.concatenate([rot_re, rot_im])

    def score_np(self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray) -> float:
        return float(np.linalg.norm(self._rotate_np(head, relation_vec) - tail))

    def score_np_grad_tail(
        self, head: np.ndarray, relation_vec: np.ndarray, tail: np.ndarray
    ) -> np.ndarray:
        diff = tail - self._rotate_np(head, relation_vec)
        norm = np.linalg.norm(diff)
        if norm < 1e-12:
            return np.zeros_like(tail)
        return diff / norm

    def local_relation_embedding(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Per-coordinate rotation aligning ``head`` with ``tail``.

        The optimum phase for each complex coordinate is the angle difference
        between tail and head; the result is returned in the same
        ``[cos θ | sin θ]`` layout as :meth:`relation_output`, but scaled by
        the head/tail magnitudes like a translational difference so that
        weighted averages remain meaningful.
        """
        h = head[..., : self.half] + 1j * head[..., self.half :]
        t = tail[..., : self.half] + 1j * tail[..., self.half :]
        safe_h = np.where(np.abs(h) < 1e-9, 1e-9, h)
        rotation = t / safe_h
        rotation = rotation / np.maximum(np.abs(rotation), 1e-9)
        return np.concatenate([rotation.real, rotation.imag], axis=-1)

    # -------------------------------------------------------------- bookkeeping
    def renormalize(self) -> None:
        self.entity_embeddings.renormalize()


def _cos(x: Tensor) -> Tensor:
    """Differentiable cosine."""
    out_data = np.cos(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(-np.sin(x.data) * np.asarray(grad))

    return Tensor._make(out_data, (x,), backward)


def _sin(x: Tensor) -> Tensor:
    """Differentiable sine."""
    out_data = np.sin(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.cos(x.data) * np.asarray(grad))

    return Tensor._make(out_data, (x,), backward)
