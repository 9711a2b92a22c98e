"""A compact CompGCN-style graph convolutional embedding model.

CompGCN (Vashishth et al., 2020) composes entity and relation embeddings along
each edge, aggregates the composed messages into entity representations with
direction-specific weight matrices, and updates relation representations with
a linear map per layer.  This implementation keeps the parts DAAKG relies on:

* subtraction composition ``φ(e, r) = e − r`` (the TransE-style composition),
* separate weights for incoming edges, outgoing edges and self-loops,
* per-layer relation transformation, tanh non-linearity, mean aggregation,
* a translational decoder ``f_er(h, r, t) = ||h' + r' − t'||`` on the output
  representations (:class:`~repro.embedding.base.TranslationalModel`, shared
  with TransE), so the same fused margin loss (Eq. 1) and the same
  inference-view API as TransE apply.

The full forward pass computes representations for *all* entities at once (the
graphs in this reproduction have a few thousand edges).  Message passing runs
once per parameter version through the forward session of
:class:`~repro.embedding.base.KGEmbeddingModel`: every consumer
(``margin_loss``, ``entity_output``, the alignment losses, the similarity
engine) gathers rows of the same retained graph, so gradients from all loss
terms of an optimisation step flow into the base embeddings through a single
message-passing backward instead of one rebuild per call.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.functional import scatter_rows
from repro.autograd.tensor import Tensor
from repro.embedding.base import TranslationalModel
from repro.kg.graph import KnowledgeGraph
from repro.nn.layers import Embedding, Linear
from repro.utils.rng import RandomState


class CompGCN(TranslationalModel):
    """Composition-based multi-relational GCN with a translational decoder."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        dim: int = 32,
        num_layers: int = 2,
        rng: RandomState = None,
        share_weights_with: "CompGCN | None" = None,
    ) -> None:
        super().__init__(kg, dim, rng)
        if num_layers < 1:
            raise ValueError("CompGCN needs at least one layer")
        rng = self.rng
        self.num_layers = num_layers
        self.entity_embeddings = Embedding(kg.num_entities, dim, rng=rng, name="entity")
        self.relation_embeddings = Embedding(max(kg.num_relations, 1), dim, rng=rng, name="relation")
        if share_weights_with is not None:
            # GNN-based entity alignment conventionally applies one GNN to both
            # KGs; sharing the layer weights (but not the embedding tables)
            # lets seed matches propagate through structurally similar
            # neighbourhoods of the two graphs.
            if share_weights_with.dim != dim or share_weights_with.num_layers != num_layers:
                raise ValueError("shared CompGCN models must agree on dim and num_layers")
            self.w_in = share_weights_with.w_in
            self.w_out = share_weights_with.w_out
            self.w_self = share_weights_with.w_self
            self.w_rel = share_weights_with.w_rel
        else:
            self.w_in = [
                Linear(dim, dim, bias=False, rng=rng, name=f"w_in{layer}")
                for layer in range(num_layers)
            ]
            self.w_out = [
                Linear(dim, dim, bias=False, rng=rng, name=f"w_out{layer}")
                for layer in range(num_layers)
            ]
            self.w_self = [
                Linear(dim, dim, bias=False, rng=rng, name=f"w_self{layer}")
                for layer in range(num_layers)
            ]
            self.w_rel = [
                Linear(dim, dim, bias=False, rng=rng, name=f"w_rel{layer}")
                for layer in range(num_layers)
            ]

        # Pre-computed edge index arrays (static for a given KG).
        edges = kg.triple_array
        self._heads = edges[:, 0] if edges.size else np.empty(0, dtype=np.int64)
        self._rels = edges[:, 1] if edges.size else np.empty(0, dtype=np.int64)
        self._tails = edges[:, 2] if edges.size else np.empty(0, dtype=np.int64)
        in_deg = np.bincount(self._tails, minlength=kg.num_entities).astype(float)
        out_deg = np.bincount(self._heads, minlength=kg.num_entities).astype(float)
        self._in_norm = 1.0 / np.maximum(in_deg, 1.0)
        self._out_norm = 1.0 / np.maximum(out_deg, 1.0)

    # ----------------------------------------------------------------- forward
    def _forward_outputs(self) -> tuple[Tensor, Tensor]:
        """Representations of all entities and all relations after message passing."""
        x = self.entity_embeddings.all()
        z = self.relation_embeddings.all()
        n = self.kg.num_entities
        for layer in range(self.num_layers):
            if self._heads.size:
                head_x = x.gather_rows(self._heads)
                tail_x = x.gather_rows(self._tails)
                rel_z = z.gather_rows(self._rels)
                # composition: subtraction (TransE-style)
                forward_msg = self.w_in[layer](head_x - rel_z)  # message to the tail
                backward_msg = self.w_out[layer](tail_x - rel_z)  # message to the head
                agg_in = scatter_rows(forward_msg, self._tails, n) * Tensor(self._in_norm[:, None])
                agg_out = scatter_rows(backward_msg, self._heads, n) * Tensor(self._out_norm[:, None])
                x = (self.w_self[layer](x) + agg_in + agg_out).tanh()
            else:
                x = self.w_self[layer](x).tanh()
            z = self.w_rel[layer](z)
        return x, z
