"""Tests for the KG embedding models and their trainer."""

import numpy as np
import pytest

from repro.embedding import (
    CompGCN,
    EmbeddingTrainingConfig,
    EntityClassScorer,
    KGEmbeddingTrainer,
    MODEL_REGISTRY,
    RotatE,
    TransE,
    create_embedding_model,
)

MODELS = ["transe", "rotate", "compgcn"]


@pytest.fixture(scope="module")
def train_kg(tiny_pair):
    # session-scoped tiny_pair comes from conftest; reuse its first KG augmented
    return tiny_pair.kg1.with_inverse_relations()


# NB: tiny_pair is session-scoped, so redefine a module fixture indirection.
@pytest.fixture(scope="module")
def models(train_kg):
    return {name: create_embedding_model(name, train_kg, dim=8, rng=0) for name in MODELS}


class TestRegistry:
    def test_registry_contains_paper_models(self):
        assert set(MODEL_REGISTRY) == {"transe", "rotate", "compgcn"}

    def test_unknown_model_raises(self, train_kg):
        with pytest.raises(KeyError):
            create_embedding_model("nope", train_kg)


@pytest.mark.parametrize("name", MODELS)
class TestModelInterface:
    def test_triple_scores_shape_and_nonnegative(self, models, train_kg, name):
        scores = models[name].triple_scores(train_kg.triple_array)
        assert scores.shape == (train_kg.num_triples,)
        assert np.all(scores.numpy() >= 0)

    def test_entity_outputs_shape(self, models, train_kg, name):
        out = models[name].all_entity_outputs()
        assert out.shape[0] == train_kg.num_entities

    def test_relation_outputs_shape(self, models, train_kg, name):
        out = models[name].all_relation_outputs()
        assert out.shape[0] == train_kg.num_relations

    def test_entity_matrix_is_detached_copy(self, models, name):
        matrix = models[name].entity_matrix()
        matrix[0, 0] = 123.0
        assert models[name].entity_matrix()[0, 0] != 123.0

    def test_gradients_flow_through_triple_scores(self, models, train_kg, name):
        model = models[name]
        loss = model.triple_scores(train_kg.triple_array[:3]).sum()
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())


class TestTransESpecifics:
    def test_local_relation_embedding_is_difference(self, models):
        model = models["transe"]
        h, t = np.ones(8), np.full(8, 3.0)
        assert np.allclose(model.local_relation_embedding(h, t), 2.0)

    def test_renormalize_unit_norm(self, models):
        model = models["transe"]
        model.entity_embeddings.weight.data *= 5
        model.renormalize()
        norms = np.linalg.norm(model.entity_embeddings.weight.data, axis=1)
        assert np.allclose(norms, 1.0)


class TestRotatESpecifics:
    def test_requires_even_dimension(self, train_kg):
        with pytest.raises(ValueError):
            RotatE(train_kg, dim=7)

    def test_rotation_preserves_norm(self, models):
        model = models["rotate"]
        head = model.entity_matrix()[0]
        relation = model.relation_matrix()[0]
        rotated = model._rotate_np(head, relation)
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(head), rel=1e-6)

    def test_local_relation_embedding_unit_modulus(self, models):
        model = models["rotate"]
        h, t = model.entity_matrix()[0], model.entity_matrix()[1]
        local = model.local_relation_embedding(h, t)
        half = model.half
        modulus = np.sqrt(local[:half] ** 2 + local[half:] ** 2)
        assert np.allclose(modulus, 1.0, atol=1e-6)


class TestCompGCNSpecifics:
    def test_shared_weights_reuse_layer_objects(self, train_kg):
        base = CompGCN(train_kg, dim=8, num_layers=1, rng=0)
        shared = CompGCN(train_kg, dim=8, num_layers=1, rng=1, share_weights_with=base)
        assert shared.w_in[0] is base.w_in[0]

    def test_shared_weights_dimension_mismatch_raises(self, train_kg):
        base = CompGCN(train_kg, dim=8, num_layers=1, rng=0)
        with pytest.raises(ValueError):
            CompGCN(train_kg, dim=16, num_layers=1, rng=1, share_weights_with=base)

    def test_layer_count_validation(self, train_kg):
        with pytest.raises(ValueError):
            CompGCN(train_kg, dim=8, num_layers=0)


class TestEntityClassScorer:
    def test_scores_shape(self, models, train_kg):
        scorer = EntityClassScorer(train_kg, entity_dim=8, class_dim=4, rng=0)
        embeddings = models["transe"].entity_output(np.array([0, 1, 2]))
        scores = scorer.scores(embeddings, np.array([0, 1, 0]))
        assert scores.shape == (3,)
        assert np.all(scores.numpy() >= 0)

    def test_class_embeddings_shape(self, train_kg):
        scorer = EntityClassScorer(train_kg, entity_dim=8, class_dim=4, rng=0)
        assert scorer.all_class_embeddings().shape == (train_kg.num_classes, 8)
        assert scorer.class_embedding_dim == 8

    def test_invalid_class_dim(self, train_kg):
        with pytest.raises(ValueError):
            EntityClassScorer(train_kg, entity_dim=8, class_dim=0)


class TestTrainer:
    @pytest.mark.parametrize("name", MODELS)
    def test_training_reduces_losses(self, train_kg, name):
        model = create_embedding_model(name, train_kg, dim=8, rng=0)
        scorer = EntityClassScorer(train_kg, entity_dim=8, class_dim=4, rng=0)
        trainer = KGEmbeddingTrainer(
            train_kg, model, scorer, EmbeddingTrainingConfig(epochs=6, batch_size=64), seed=0
        )
        history = trainer.train()
        assert len(history.er_loss) == 6
        assert history.er_loss[-1] <= history.er_loss[0]
        assert history.ec_loss[-1] <= history.ec_loss[0] + 1e-6

    def test_training_without_class_scorer(self, train_kg):
        model = TransE(train_kg, dim=8, rng=0)
        trainer = KGEmbeddingTrainer(
            train_kg, model, None, EmbeddingTrainingConfig(epochs=2, batch_size=64), seed=0
        )
        history = trainer.train()
        assert all(value == 0.0 for value in history.ec_loss)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTrainingConfig(epochs=0)
