"""Training parity of the autograd backward against its previous implementation.

The backward pass scatters embedding gradients with one flattened
``np.bincount`` and lets a leaf adopt its first gradient without a copy.
Neither may change a single bit of training.  The oracle below is the
implementation those replaced, patched in for one run:

* row scatters as one ``np.bincount`` per column for 1-D row indices and
  ``np.add.at`` otherwise (the ``scatter_rows`` forward was ``np.add.at``);
* ``Tensor._accumulate`` copying the first gradient a leaf receives;
* ``mean_relation_embeddings`` calling ``local_relation_embedding`` once per
  triple;
* the composed loss graphs in place of the fused loss nodes: the base-class
  ``KGEmbeddingModel.margin_loss`` (two ``triple_scores`` plus the margin
  ranking loss) for TransE and CompGCN, and from ``composed_losses`` the row
  cosine through row norms and log-softmax plus ``[:, 0]`` for the plain and
  focal pairwise softmax losses.

The fused nodes scatter into their gathered tables through
``Tensor._accumulate_rows``, which looks ``_scatter_add_rows`` up in
``repro.autograd.tensor`` at call time, so the scatter patch reaches them
too; a test below pins that.

Short TransE, RotatE and CompGCN fits (pretraining with a class scorer, joint
alignment rounds, one focal fine-tune) must end with byte-identical
parameters, Adam moments and loss histories on both implementations.  The
aliasing guards pin the invariant that makes the copy-free accumulate safe:
gradients handed to several leaves, or seeded by a caller, are never written
through.
"""

import importlib

import numpy as np
import pytest

import composed_losses as composed

import repro.alignment.model as alignment_model
import repro.autograd.functional as functional
from repro.alignment.model import JointAlignmentModel
from repro.alignment.trainer import AlignmentTrainingConfig, JointAlignmentTrainer
from repro.autograd import Tensor
from repro.autograd.tensor import _unbroadcast
from repro.embedding.base import KGEmbeddingModel, TranslationalModel
from repro.embedding.compgcn import CompGCN
from repro.embedding.entity_class import EntityClassScorer
from repro.embedding.rotate import RotatE
from repro.embedding.trainer import EmbeddingTrainingConfig, KGEmbeddingTrainer
from repro.embedding.transe import TransE
from repro.kg.elements import ElementKind

MODEL_CLASSES = {"transe": TransE, "rotate": RotatE, "compgcn": CompGCN}
# the package re-exports a ``tensor`` function that shadows the module name
tensor_module = importlib.import_module("repro.autograd.tensor")


# ------------------------------------------------------------------ oracle
def _oracle_gather_scatter(shape, indices, rows):
    """Previous ``gather_rows`` backward: a bincount per column, or np.add.at."""
    full = np.zeros(shape)
    if indices.size == 0:
        return full
    if indices.ndim != 1:
        np.add.at(full, indices, rows)
        return full
    indices = np.where(indices < 0, indices + shape[0], indices)
    flat_full = full.reshape(shape[0], -1)
    flat_rows = np.ascontiguousarray(np.asarray(rows).reshape(indices.shape[0], -1))
    for column in range(flat_full.shape[1]):
        flat_full[:, column] = np.bincount(
            indices, weights=flat_rows[:, column], minlength=shape[0]
        )
    return full


def _oracle_add_at(shape, indices, rows):
    """Previous ``scatter_rows`` forward."""
    full = np.zeros(shape)
    np.add.at(full, indices, rows)
    return full


def _oracle_accumulate(self, grad):
    grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad = self.grad + grad


def _oracle_mean_relation_embeddings(kg, model, entity_matrix, weights):
    dim = entity_matrix.shape[1] if entity_matrix.size else model.dim
    result = np.zeros((kg.num_relations, dim))
    for r in range(kg.num_relations):
        triples = kg.triples_of_relation(r)
        if triples.size == 0:
            continue
        locals_ = np.stack(
            [
                model.local_relation_embedding(entity_matrix[h], entity_matrix[t])
                for h, _, t in triples
            ]
        )
        w = np.minimum(weights[triples[:, 0]], weights[triples[:, 2]])
        total = w.sum()
        if total < 1e-9:
            result[r] = locals_.mean(axis=0)
        else:
            result[r] = (locals_ * w[:, None]).sum(axis=0) / total
    return result


@pytest.fixture
def use_oracle(monkeypatch):
    """Returns a switch that patches the previous implementation in."""

    def switch() -> None:
        monkeypatch.setattr(tensor_module, "_scatter_add_rows", _oracle_gather_scatter)
        monkeypatch.setattr(functional, "_scatter_add_rows", _oracle_add_at)
        monkeypatch.setattr(Tensor, "_accumulate", _oracle_accumulate)
        monkeypatch.setattr(
            alignment_model, "mean_relation_embeddings", _oracle_mean_relation_embeddings
        )
        monkeypatch.setattr(TranslationalModel, "margin_loss", KGEmbeddingModel.margin_loss)
        for name in (
            "cosine_similarity_rows", "pairwise_softmax_loss", "focal_pairwise_softmax_loss"
        ):
            monkeypatch.setattr(functional, name, getattr(composed, name))

    return switch


# ---------------------------------------------------------------- training
def _short_fit(pair, base_model: str) -> dict:
    """Pretrain both sides, train the joint model, fine-tune once; dump state."""
    cls = MODEL_CLASSES[base_model]
    m1, m2 = cls(pair.kg1, dim=8, rng=21), cls(pair.kg2, dim=8, rng=22)
    pretrain = EmbeddingTrainingConfig(epochs=3, batch_size=2)
    pretrainers = [
        KGEmbeddingTrainer(
            kg, model, EntityClassScorer(kg, entity_dim=8, class_dim=4, rng=seed),
            pretrain, seed=seed,
        )
        for kg, model, seed in ((pair.kg1, m1, 23), (pair.kg2, m2, 24))
    ]
    histories = [trainer.train() for trainer in pretrainers]

    model = JointAlignmentModel(pair, m1, m2, rng=25)
    trainer = JointAlignmentTrainer(
        model,
        AlignmentTrainingConfig(
            rounds=2, epochs_per_round=3, num_negatives=3,
            embedding_batches_per_round=2, embedding_batch_size=4,
        ),
        seed=26,
        semi_supervised=True,
    )
    trainer.add_matches(ElementKind.ENTITY, pair.entity_match_ids(pair.train_entity_pairs))
    trainer.add_matches(ElementKind.RELATION, [(0, 0)])
    trainer.train()
    new_matches = [tuple(p) for p in pair.entity_match_ids(pair.test_entity_pairs[:2])]
    trainer.fine_tune({ElementKind.ENTITY: new_matches}, epochs=3)

    state = {"loss": np.asarray(trainer.loss_history)}
    for i, history in enumerate(histories):
        state[f"pretrain{i}.er"] = np.asarray(history.er_loss)
        state[f"pretrain{i}.ec"] = np.asarray(history.ec_loss)
        for key, value in pretrainers[i].optimizer.state_dict().items():
            state[f"pretrain{i}.adam.{key}"] = value
    for key, value in trainer.optimizer.state_dict().items():
        state[f"adam.{key}"] = value
    for i, p in enumerate(model.parameters()):
        state[f"param.{i}"] = p.data.copy()
    return state


@pytest.mark.parametrize("base_model", sorted(MODEL_CLASSES))
def test_fit_is_byte_identical_to_oracle(tiny_pair, base_model, use_oracle):
    fast = _short_fit(tiny_pair, base_model)
    use_oracle()
    oracle = _short_fit(tiny_pair, base_model)
    assert fast.keys() == oracle.keys()
    assert any(key.startswith("adam.m.") for key in fast)
    for key in fast:
        assert fast[key].dtype == oracle[key].dtype, key
        assert fast[key].shape == oracle[key].shape, key
        assert fast[key].tobytes() == oracle[key].tobytes(), key


# ---------------------------------------------------------------- aliasing
def test_leaves_sharing_one_upstream_stay_independent():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    y = Tensor(np.ones((3, 2)), requires_grad=True)
    (x + y).sum().backward()
    y_before = y.grad.copy()
    (x * 3.0).sum().backward()  # a second accumulate into x only
    np.testing.assert_array_equal(x.grad, np.full((3, 2), 4.0))
    np.testing.assert_array_equal(y.grad, y_before)


def test_caller_seed_mutated_after_backward_leaves_grads_alone():
    upstream = np.arange(6.0).reshape(3, 2)
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    y = Tensor(np.zeros((3, 2)), requires_grad=True)
    (x + y).backward(upstream)
    leaf = Tensor(np.zeros((3, 2)), requires_grad=True)
    leaf.backward(upstream)
    upstream[...] = -7.0
    for t in (x, y, leaf):
        np.testing.assert_array_equal(t.grad, np.arange(6.0).reshape(3, 2))


@pytest.mark.parametrize("base_model", sorted(MODEL_CLASSES))
def test_repeated_backward_over_retained_session_matches_oracle(
    tiny_kg, base_model, use_oracle
):
    batch = tiny_kg.triple_array[:4]

    def grads() -> list[bytes]:
        model = MODEL_CLASSES[base_model](tiny_kg, dim=8, rng=7)
        loss_a = model.triple_scores(batch).sum()
        loss_b = model.triple_scores(batch[::-1]).sum()
        assert model.forward_count == 1  # both losses share one retained forward
        loss_a.backward()
        loss_b.backward()
        model.triple_scores(batch[:2]).sum().backward()
        return [p.grad.tobytes() for p in model.parameters()]

    fast = grads()
    use_oracle()
    assert fast == grads()


def test_scatter_patch_reaches_the_fused_nodes(tiny_kg, monkeypatch):
    """Every row scatter of a fused margin-loss backward runs the patched scatter."""
    calls = []

    def counting_scatter(shape, indices, rows):
        calls.append(indices.shape[0])
        return _oracle_gather_scatter(shape, indices, rows)

    monkeypatch.setattr(tensor_module, "_scatter_add_rows", counting_scatter)
    model = TransE(tiny_kg, dim=4, rng=3)
    batch = tiny_kg.triple_array[:3]
    model.margin_loss(batch, batch[::-1], 1.0).backward()
    assert calls == [3] * 6  # pos.h, pos.r, pos.t, neg.h, neg.r, neg.t
