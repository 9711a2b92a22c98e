"""Tests for the synthetic benchmark dataset generators."""

import pytest

from repro.datasets import (
    BENCHMARK_CONFIGS,
    ViewConfig,
    WorldConfig,
    available_benchmarks,
    derive_aligned_pair,
    derive_view,
    generate_world,
    make_benchmark,
)


@pytest.fixture(scope="module")
def small_world():
    return generate_world(WorldConfig(num_entities=120, num_classes=8, num_relations=12, seed=1))


class TestWorld:
    def test_world_sizes(self, small_world):
        kg = small_world.kg
        assert kg.num_entities == 120
        assert kg.num_classes == 8
        assert kg.num_relations == 12
        assert kg.num_triples > 0

    def test_every_entity_has_a_class(self, small_world):
        kg = small_world.kg
        assert all(kg.classes_of(e) for e in range(kg.num_entities))

    def test_every_class_has_a_member(self, small_world):
        kg = small_world.kg
        assert all(kg.entities_of_class(c) for c in range(kg.num_classes))

    def test_functional_relations_have_unique_tails_per_head(self, small_world):
        kg = small_world.kg
        for relation in small_world.functional_relations:
            rows = kg.triples_of_relation(kg.relation_id(relation))
            heads = rows[:, 0]
            assert len(heads) == len(set(heads.tolist()))

    def test_generation_is_deterministic(self):
        config = WorldConfig(num_entities=60, num_classes=5, num_relations=8, seed=3)
        a = generate_world(config).kg
        b = generate_world(config).kg
        assert [t.as_tuple() for t in a.triples] == [t.as_tuple() for t in b.triples]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(num_entities=0)
        with pytest.raises(ValueError):
            WorldConfig(functional_relation_fraction=2.0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_classes_per_entity"):
                WorldConfig(max_classes_per_entity=bad)


class TestViews:
    def test_view_respects_keep_fractions(self, small_world):
        view, ent_map, rel_map, cls_map = derive_view(
            small_world, ViewConfig(prefix="v", relation_keep_fraction=0.5), seed=0
        )
        assert view.num_relations <= max(1, int(0.5 * small_world.kg.num_relations)) + 1
        assert all(name.startswith("v:") for name in view.entities)

    def test_view_obfuscation_hides_world_names(self, small_world):
        view, ent_map, *_ = derive_view(
            small_world, ViewConfig(prefix="v", obfuscate_names=True), seed=0
        )
        assert all("ent_" not in name for name in view.entities)

    def test_view_config_validation(self):
        with pytest.raises(ValueError):
            ViewConfig(prefix="v", triple_keep_fraction=0.0)

    def test_derive_aligned_pair_gold_matches_are_valid(self, small_world):
        pair = derive_aligned_pair(
            small_world,
            "test",
            ViewConfig(prefix="a"),
            ViewConfig(prefix="b", entity_keep_fraction=0.7),
            seed=0,
        )
        # every gold match references elements present in the KGs (validated on construction)
        assert len(pair.entity_alignment) > 0
        assert len(pair.relation_alignment) > 0
        # KG2 keeps roughly 70% of the entities
        assert pair.kg2.num_entities < pair.kg1.num_entities

    def test_gold_matches_share_world_identity(self, small_world):
        pair = derive_aligned_pair(
            small_world, "test", ViewConfig(prefix="a"), ViewConfig(prefix="b"), seed=1
        )
        for left, right in pair.entity_alignment.pairs[:20]:
            assert left.split(":", 1)[1] == right.split(":", 1)[1]


class TestBenchmarks:
    def test_registry_contains_paper_datasets(self):
        assert set(available_benchmarks()) == {"D-W", "D-Y", "EN-DE", "EN-FR"}

    def test_make_benchmark_small_scale(self):
        pair = make_benchmark("D-W", scale=0.1, seed=0)
        assert pair.kg1.num_entities < 200
        assert len(pair.entity_alignment) > 0
        assert len(pair.train_entity_pairs) > 0

    def test_make_benchmark_unknown_name(self):
        with pytest.raises(KeyError):
            make_benchmark("nope")

    def test_make_benchmark_is_case_insensitive(self):
        pair = make_benchmark("d-y", scale=0.1, seed=0)
        assert pair.name == "D-Y"

    def test_dy_has_smaller_class_vocabulary_than_dw(self):
        assert (
            BENCHMARK_CONFIGS["D-Y"].world.num_classes < BENCHMARK_CONFIGS["D-W"].world.num_classes
        )

    def test_kg2_is_dangling_reduced(self):
        pair = make_benchmark("D-W", scale=0.2, seed=0)
        assert pair.kg2.num_entities < pair.kg1.num_entities
        assert len(pair.dangling_entities_kg1()) > 0

    def test_scaled_config(self):
        config = BENCHMARK_CONFIGS["D-W"].scaled(0.5)
        assert config.world.num_entities == 500
        with pytest.raises(ValueError):
            BENCHMARK_CONFIGS["D-W"].scaled(0)

    def test_same_seed_gives_same_dataset(self):
        a = make_benchmark("EN-DE", scale=0.1, seed=5)
        b = make_benchmark("EN-DE", scale=0.1, seed=5)
        assert a.summary() == b.summary()
        assert a.train_entity_pairs == b.train_entity_pairs

    def test_different_seeds_give_different_splits(self):
        a = make_benchmark("EN-DE", scale=0.1, seed=5)
        b = make_benchmark("EN-DE", scale=0.1, seed=6)
        assert a.train_entity_pairs != b.train_entity_pairs

    def test_cross_vocabulary_datasets_obfuscate_names(self):
        pair = make_benchmark("D-W", scale=0.1, seed=0)
        lefts = {a.split(":", 1)[1] for a, _ in pair.entity_alignment.pairs}
        rights = {b.split(":", 1)[1] for _, b in pair.entity_alignment.pairs}
        assert not lefts & rights

    def test_monolingual_dataset_keeps_shared_names(self):
        pair = make_benchmark("D-Y", scale=0.1, seed=0)
        left, right = pair.entity_alignment.pairs[0]
        assert left.split(":", 1)[1] == right.split(":", 1)[1]
