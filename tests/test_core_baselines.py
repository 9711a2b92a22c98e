"""Integration tests for the DAAKG facade and the baseline methods."""

import numpy as np
import pytest

from repro import DAAKG, DAAKGConfig, ElementKind
from repro.baselines import (
    BASELINE_REGISTRY,
    LexicalMatcher,
    MTransE,
    PARIS,
    ParisConfig,
    create_baseline,
)
from repro.alignment import gold_match_ids
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.baselines.lexical import character_ngrams, ngram_jaccard
from repro.core.daakg import _classes_as_entities
from repro.datasets import make_benchmark
from repro.embedding.trainer import EmbeddingTrainingConfig
from matching_oracle import greedy_walk_matrix


class TestDAAKGConfig:
    def test_default_config_valid(self):
        config = DAAKGConfig()
        assert config.base_model == "compgcn"

    def test_invalid_base_model(self):
        with pytest.raises(ValueError):
            DAAKGConfig(base_model="bert")

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            DAAKGConfig(entity_dim=0)

    @pytest.mark.parametrize(
        "name,attribute",
        [
            ("class_embeddings", "use_class_embeddings"),
            ("mean_embeddings", "use_mean_embeddings"),
            ("semi_supervision", "use_semi_supervision"),
        ],
    )
    def test_with_ablation_switches_one_component(self, name, attribute):
        config = DAAKGConfig().with_ablation(name)
        assert getattr(config, attribute) is False

    def test_with_ablation_full_is_identity(self):
        config = DAAKGConfig()
        assert config.with_ablation("full") is config

    def test_with_ablation_unknown(self):
        with pytest.raises(ValueError):
            DAAKGConfig().with_ablation("nope")


class TestClassesAsEntities:
    def test_augmentation_adds_pseudo_entities(self, tiny_pair):
        kg, class_map = _classes_as_entities(tiny_pair.kg1)
        assert kg.num_entities == tiny_pair.kg1.num_entities + tiny_pair.kg1.num_classes
        assert "__type__" in kg.relations
        assert class_map.shape == (tiny_pair.kg1.num_classes,)
        for c, entity_idx in enumerate(class_map):
            assert kg.entity_name(int(entity_idx)) == f"__class__:{tiny_pair.kg1.class_name(c)}"


class TestDAAKGPipeline:
    def test_fit_and_evaluate(self, fitted_pipeline):
        assert fitted_pipeline.is_fitted
        scores = fitted_pipeline.evaluate()
        assert set(scores) == {"entity", "relation", "class"}
        for value in scores.values():
            for metric in value.as_dict().values():
                assert 0.0 <= metric <= 1.0
        # structure-based alignment should clearly beat random guessing
        assert scores["relation"].hits_at_1 > 0.2
        assert scores["entity"].hits_at_1 > 0.05

    def test_predict_matches_names(self, fitted_pipeline):
        predicted = fitted_pipeline.predict_matches(ElementKind.RELATION, threshold=0.3)
        assert predicted
        for left, right in predicted:
            assert left in fitted_pipeline.kg1.relation_index
            assert right in fitted_pipeline.kg2.relation_index

    @pytest.mark.parametrize("kind", list(ElementKind))
    def test_predict_matches_equals_greedy_match(self, fitted_pipeline, kind):
        # the threshold scan + greedy_match path picks the set the
        # sequential walk picks over the full matrix
        names = {
            ElementKind.ENTITY: (fitted_pipeline.kg1.entities, fitted_pipeline.kg2.entities),
            ElementKind.RELATION: (fitted_pipeline.kg1.relations, fitted_pipeline.kg2.relations),
            ElementKind.CLASS: (fitted_pipeline.kg1.classes, fitted_pipeline.kg2.classes),
        }[kind]
        matrix = fitted_pipeline.model.similarity_matrix(kind)
        expected = [(names[0][i], names[1][j]) for i, j in greedy_walk_matrix(matrix, 0.3)]
        assert expected
        assert fitted_pipeline.predict_matches(kind, threshold=0.3) == expected

    def test_match_probabilities_are_probabilities(self, fitted_pipeline):
        probabilities = fitted_pipeline.match_probabilities(ElementKind.ENTITY)
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_parameter_summary(self, fitted_pipeline):
        summary = fitted_pipeline.parameter_summary()
        assert summary["embedding_model_1"] > 0

    def test_training_seeds_become_labels(self, fitted_pipeline):
        labelled = fitted_pipeline.trainer.labels.matches[ElementKind.ENTITY]
        assert len(labelled) == len(fitted_pipeline.pair.train_entity_pairs)

    def test_ablation_without_class_embeddings_builds(self, small_benchmark, fast_config):
        config = fast_config.with_ablation("class_embeddings")
        pipeline = DAAKG(small_benchmark, config)
        assert pipeline.model.use_class_embeddings is False
        assert pipeline.model.class_entity_maps is not None
        # class similarity is still defined through the entity channel
        matrix = pipeline.model.class_similarity_matrix()
        assert matrix.shape == (
            small_benchmark.kg1.num_classes, small_benchmark.kg2.num_classes
        )

    def test_build_pool_and_estimator(self, fitted_pipeline):
        pool = fitted_pipeline.build_pool()
        graph, estimator = fitted_pipeline.build_inference_estimator(pool)
        assert graph.num_edges() >= 0
        assert estimator.config is fitted_pipeline.config.inference


class TestBaselines:
    def test_registry(self):
        assert set(BASELINE_REGISTRY) == {"paris", "mtranse", "gcn-align", "bootea", "lexical"}
        with pytest.raises(KeyError):
            create_baseline("nope")

    def test_paris_on_tiny_pair(self, tiny_pair):
        paris = PARIS(ParisConfig(iterations=3)).fit(tiny_pair)
        scores = paris.evaluate(test_only=False)
        assert scores["entity"].hits_at_1 >= 0.0
        entity_sim = paris.entity_similarity_matrix()
        assert entity_sim.shape == (tiny_pair.kg1.num_entities, tiny_pair.kg2.num_entities)
        # seeds keep probability 1
        seed = tiny_pair.entity_match_ids(tiny_pair.train_entity_pairs)[0]
        assert entity_sim[seed[0], seed[1]] == pytest.approx(1.0)

    def test_paris_config_validation(self):
        with pytest.raises(ValueError):
            ParisConfig(iterations=0)

    def test_lexical_matcher_shared_vocabulary(self, tiny_pair):
        # tiny_pair uses different local names, so lexical should be weak there;
        # check the mechanics on a dataset with shared names instead.
        lexical = LexicalMatcher().fit(tiny_pair)
        matrix = lexical.entity_similarity_matrix()
        assert matrix.shape == (tiny_pair.kg1.num_entities, tiny_pair.kg2.num_entities)

    def test_ngram_helpers(self):
        assert character_ngrams("ab", n=3) == {"ab"}
        assert ngram_jaccard("birthplace", "birthplace") == 1.0
        assert ngram_jaccard("birthplace", "xyzq") == 0.0
        assert 0.0 < ngram_jaccard("birthplace", "placeofbirth") < 1.0

    def test_lexical_rejects_bad_ngram_size(self):
        with pytest.raises(ValueError):
            LexicalMatcher(ngram_size=0)

    def test_evaluate_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LexicalMatcher().evaluate()

    def test_mtranse_runs_on_small_benchmark(self, small_benchmark):
        from repro.baselines.embedding import EmbeddingBaselineConfig

        baseline = MTransE(EmbeddingBaselineConfig(entity_dim=16, pretrain_epochs=2,
                                                   rounds=1, epochs_per_round=5))
        baseline.fit(small_benchmark)
        scores = baseline.evaluate()
        assert 0.0 <= scores["entity"].hits_at_1 <= 1.0
        assert baseline.training_time.elapsed > 0


class TestEndToEndComparison:
    def test_daakg_schema_alignment_beats_lexical_on_obfuscated_names(
        self, fitted_pipeline, small_benchmark
    ):
        """On a cross-vocabulary dataset the structural method must beat name matching."""
        lexical = LexicalMatcher().fit(small_benchmark)
        lexical_scores = lexical.evaluate()
        daakg_scores = fitted_pipeline.evaluate()
        assert daakg_scores["relation"].hits_at_1 >= lexical_scores["relation"].hits_at_1
        assert daakg_scores["entity"].hits_at_1 >= lexical_scores["entity"].hits_at_1


class TestEmptyTestSplit:
    """Every evaluator scores all gold entity matches when the test split is empty.

    ``PartitionedCampaign.evaluate`` is covered by
    ``test_partition_campaign.py::test_campaign_evaluates_every_match_without_split``.
    """

    @pytest.fixture(scope="class")
    def split_less(self):
        pair = make_benchmark("D-W", scale=0.1, seed=0)
        pair.test_entity_pairs = []
        config = DAAKGConfig(
            base_model="transe", entity_dim=8,
            pretrain=EmbeddingTrainingConfig(epochs=2),
            alignment=AlignmentTrainingConfig(rounds=1, epochs_per_round=3), seed=0,
        )
        return DAAKG(pair, config).fit()

    def test_gold_is_every_match(self, split_less):
        gold = gold_match_ids(split_less.pair)
        np.testing.assert_array_equal(
            gold[ElementKind.ENTITY], split_less.pair.entity_match_ids()
        )
        np.testing.assert_array_equal(
            gold[ElementKind.RELATION], split_less.pair.relation_match_ids()
        )

    def test_loop_scores_like_the_pipeline(self, split_less):
        scores = split_less.evaluate()
        assert scores["entity"].hits_at_1 > 0
        assert split_less.evaluate(test_only=False) == scores
        loop = split_less.active_learning("uncertainty")
        assert loop.evaluate() == (scores["entity"], scores["relation"], scores["class"])

    def test_baseline_scores_every_match(self, split_less):
        baseline = LexicalMatcher().fit(split_less.pair)
        assert baseline.evaluate() == baseline.evaluate(test_only=False)
