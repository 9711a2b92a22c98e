"""Tests for the versioned forward-computation session.

The contract under test (``KGEmbeddingModel.outputs``):

* within one optimisation step every consumer shares a single full forward
  per model (the acceptance criterion: 1 GNN forward per
  ``JointAlignmentTrainer._step``, down from 10+ in legacy mode);
* any parameter mutation — optimiser step, ``renormalize``,
  ``load_state_dict`` — invalidates the cached forward;
* caching never changes training: loss histories are bit-identical to the
  uncached/legacy path wherever the computation graphs coincide, and extra
  cache reads interleaved with training leave histories untouched.

The legacy path is a test-local oracle (:func:`_forward_mode`), not a mode
of the library: it overrides ``outputs`` on one instance so that every call
runs a fresh full forward.
"""

import numpy as np
import pytest

from repro.alignment.model import JointAlignmentModel
from repro.alignment.trainer import AlignmentTrainingConfig, JointAlignmentTrainer
from repro.embedding.base import ForwardOutputs
from repro.embedding.compgcn import CompGCN
from repro.embedding.rotate import RotatE
from repro.embedding.transe import TransE
from repro.embedding.trainer import EmbeddingTrainingConfig, KGEmbeddingTrainer
from repro.kg.elements import ElementKind
from repro.nn.optim import Adam, parameter_version


MODEL_CLASSES = {"transe": TransE, "rotate": RotatE, "compgcn": CompGCN}


def _forward_mode(model, session: bool):
    """Keep ``model`` on the forward session, or give it the legacy oracle.

    The oracle is the behaviour the session replaced: one uncached full
    forward per ``outputs()`` call, so every consumer builds its own graph.
    """
    if not session:

        def legacy_outputs() -> ForwardOutputs:
            entities, relations = model._forward_outputs()
            model.forward_count += 1
            return ForwardOutputs(entities, relations, model.parameter_token())

        model.outputs = legacy_outputs
    return model


def _make_trainer(pair, base_model: str, session: bool, epochs: int = 4, rounds: int = 1):
    """A joint trainer over ``pair`` built deterministically from fixed seeds."""
    cls = MODEL_CLASSES[base_model]
    m1 = _forward_mode(cls(pair.kg1, dim=8, rng=11), session)
    m2 = _forward_mode(cls(pair.kg2, dim=8, rng=12), session)
    model = JointAlignmentModel(pair, m1, m2, use_structural_channel=False, rng=13)
    trainer = JointAlignmentTrainer(
        model,
        AlignmentTrainingConfig(
            rounds=rounds,
            epochs_per_round=epochs,
            num_negatives=3,
            embedding_batches_per_round=2,
            embedding_batch_size=8,
        ),
        seed=14,
    )
    trainer.add_matches(ElementKind.ENTITY, pair.entity_match_ids(pair.train_entity_pairs))
    trainer.add_matches(ElementKind.RELATION, [(0, 0)])
    return trainer


class TestForwardCounts:
    def test_one_gnn_forward_per_alignment_step(self, tiny_pair):
        """The acceptance criterion: each ``_step`` runs one forward per model."""
        trainer = _make_trainer(tiny_pair, "compgcn", session=True)
        trainer._refresh_round_state()
        m1, m2 = trainer.model.model1, trainer.model.model2
        for _ in range(3):
            before = (m1.forward_count, m2.forward_count)
            assert trainer._step() is not None
            assert m1.forward_count - before[0] == 1
            assert m2.forward_count - before[1] == 1

    def test_legacy_mode_runs_many_forwards_per_step(self, tiny_pair):
        """Without the session the same step issues 10+ forwards (the old cost)."""
        trainer = _make_trainer(tiny_pair, "compgcn", session=False)
        trainer._refresh_round_state()
        m1 = trainer.model.model1
        before = m1.forward_count
        trainer._step()
        assert m1.forward_count - before >= 10

    def test_embedding_trainer_shares_forward_within_batch(self, tiny_kg):
        model = CompGCN(tiny_kg, dim=8, rng=3)
        trainer = KGEmbeddingTrainer(
            tiny_kg, model, config=EmbeddingTrainingConfig(epochs=2, batch_size=4)
        )
        before = model.forward_count
        trainer.train()
        batches_per_epoch = -(-tiny_kg.triple_array.shape[0] // 4)
        # one forward per batch (positives + negatives share it), instead of two
        assert model.forward_count - before == 2 * batches_per_epoch

    def test_refresh_statistics_uses_one_forward_per_model(self, tiny_pair):
        from repro.nn.optim import bump_parameter_version

        trainer = _make_trainer(tiny_pair, "compgcn", session=True)
        m1 = trainer.model.model1
        bump_parameter_version()  # invalidate the forward cached at construction
        before = m1.forward_count
        trainer.model.refresh_statistics()
        # entity_matrix computes, relation_matrix and the engine seed reuse it
        assert m1.forward_count - before == 1


class TestInvalidation:
    @pytest.mark.parametrize("base_model", ["transe", "rotate", "compgcn"])
    def test_same_version_serves_same_outputs(self, tiny_kg, base_model):
        model = MODEL_CLASSES[base_model](tiny_kg, dim=8, rng=0)
        first = model.outputs()
        assert model.outputs() is first

    def test_optimizer_step_invalidates(self, tiny_kg):
        model = CompGCN(tiny_kg, dim=8, rng=0)
        optimizer = Adam(model.parameters(), lr=0.05)
        first = model.outputs()
        loss = model.triple_scores(tiny_kg.triple_array[:3]).sum()
        loss.backward()
        optimizer.step()
        second = model.outputs()
        assert second is not first
        assert not np.array_equal(second.entities.numpy(), first.entities.numpy())

    def test_renormalize_invalidates(self, tiny_kg):
        model = TransE(tiny_kg, dim=8, rng=0)
        first = model.outputs()
        version = parameter_version()
        model.entity_embeddings.weight.data *= 3.0
        model.renormalize()
        assert parameter_version() > version
        assert model.outputs() is not first

    def test_load_state_dict_invalidates(self, tiny_kg):
        model = CompGCN(tiny_kg, dim=8, rng=0)
        donor = CompGCN(tiny_kg, dim=8, rng=1)
        first = model.outputs()
        model.load_state_dict(donor.state_dict())
        second = model.outputs()
        assert second is not first
        assert np.array_equal(second.entities.numpy(), donor.outputs().entities.numpy())

    def test_no_grad_entry_upgraded_for_training(self, tiny_kg):
        from repro.autograd.tensor import no_grad

        model = CompGCN(tiny_kg, dim=8, rng=0)
        with no_grad():
            frozen = model.outputs()
        assert not frozen.differentiable
        live = model.outputs()
        assert live is not frozen
        assert live.differentiable
        # values agree bit-for-bit and the frozen entry is replaced
        assert np.array_equal(live.entities.numpy(), frozen.entities.numpy())
        assert model.outputs() is live

    def test_second_backward_at_same_version_does_not_double_count(self, tiny_kg):
        batch = tiny_kg.triple_array[:4]
        grads = []
        for session in (True, False):
            model = _forward_mode(CompGCN(tiny_kg, dim=8, rng=7), session)
            model.triple_scores(batch).sum().backward()
            model.triple_scores(batch[::-1]).sum().backward()
            grads.append([p.grad.copy() for p in model.parameters()])
        for cached, legacy in zip(*grads):
            np.testing.assert_array_equal(cached, legacy)

    def test_two_losses_built_then_backwarded_do_not_double_count(self, tiny_kg):
        """Both graphs share the retained forward; the first backward must not
        leave interior grads behind for the second to re-propagate."""
        batch = tiny_kg.triple_array[:4]
        grads = []
        for session in (True, False):
            model = _forward_mode(CompGCN(tiny_kg, dim=8, rng=7), session)
            loss_a = model.triple_scores(batch).sum()
            loss_b = model.triple_scores(batch[::-1]).sum()
            loss_a.backward()
            loss_b.backward()
            grads.append([p.grad.copy() for p in model.parameters()])
        for cached, legacy in zip(*grads):
            np.testing.assert_array_equal(cached, legacy)


class TestTrainingParity:
    def test_transe_loss_history_bit_exact_vs_legacy(self, tiny_pair):
        """For TransE the session graph equals the per-call graph node for node."""
        cached = _make_trainer(tiny_pair, "transe", session=True, epochs=6, rounds=2)
        legacy = _make_trainer(tiny_pair, "transe", session=False, epochs=6, rounds=2)
        assert cached.train() == legacy.train()

    def test_compgcn_single_step_loss_bit_exact_vs_legacy(self, tiny_pair):
        """Forward values are version-pure, so the first step's loss is identical."""
        cached = _make_trainer(tiny_pair, "compgcn", session=True)
        legacy = _make_trainer(tiny_pair, "compgcn", session=False)
        cached._refresh_round_state()
        legacy._refresh_round_state()
        assert cached._step() == legacy._step()

    def test_compgcn_history_unchanged_by_interleaved_cache_reads(self, tiny_pair):
        """Serving cached forwards to other consumers must not perturb training."""
        plain = _make_trainer(tiny_pair, "compgcn", session=True, epochs=3, rounds=2)
        read = _make_trainer(tiny_pair, "compgcn", session=True, epochs=3, rounds=2)
        history_plain = plain.train()
        history_read = []
        for _ in range(2):
            read._refresh_round_state()
            for _ in range(3):
                read.model.model1.entity_matrix()
                read.model.similarity.matrix(ElementKind.ENTITY)
                history_read.append(read._step())
                read.model.model2.relation_matrix()
        assert history_plain == history_read

    def test_compgcn_history_close_to_legacy(self, tiny_pair):
        """Sharing one backward re-orders gradient accumulation, so legacy parity
        for GNNs is exact in value only up to float associativity."""
        cached = _make_trainer(tiny_pair, "compgcn", session=True, epochs=5)
        legacy = _make_trainer(tiny_pair, "compgcn", session=False, epochs=5)
        np.testing.assert_allclose(cached.train(), legacy.train(), rtol=1e-7, atol=1e-9)

    def _pretraining_histories(self, kg, base_model):
        histories = []
        for session in (True, False):
            model = _forward_mode(MODEL_CLASSES[base_model](kg, dim=8, rng=5), session)
            trainer = KGEmbeddingTrainer(
                kg, model, config=EmbeddingTrainingConfig(epochs=4, batch_size=4), seed=6
            )
            history = trainer.train()
            histories.append((history.er_loss, history.ec_loss))
        return histories

    def test_pretraining_history_bit_exact_vs_legacy_transe(self, tiny_kg):
        cached, legacy = self._pretraining_histories(tiny_kg, "transe")
        assert cached == legacy

    @pytest.mark.parametrize("base_model", ["rotate", "compgcn"])
    def test_pretraining_history_close_vs_legacy(self, tiny_kg, base_model):
        """Positives and negatives share one forward graph per batch, so the
        accumulated gradient is mathematically identical but float-reordered."""
        cached, legacy = self._pretraining_histories(tiny_kg, base_model)
        np.testing.assert_allclose(cached[0], legacy[0], rtol=1e-7, atol=1e-9)
