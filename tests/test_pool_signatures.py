"""Schema signatures (Eq. 24) as sparse products, against the per-entity loop.

``signature_oracle`` keeps the loop the products replaced.  Both sum a row's
weighted embeddings in the same order, but the loop's total weight is NumPy's
pairwise sum, which adds 8 or more terms in another order: rows with fewer
than 8 incident relations (and classes) must match exactly, the rest to
within ``1e-12`` of the row's largest entry.
"""

import numpy as np
import pytest

import signature_oracle as oracle
from repro import DAAKG, DAAKGConfig, make_benchmark
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig, build_pool, schema_signatures
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair, GoldAlignment

PAIRWISE_FROM = 8  # NumPy sums 8 or more terms pairwise
TOLERANCE = 1e-12


def _signature_inputs(model):
    engine, snap = model.similarity, model.similarity.snapshot
    relations_1, relations_2 = engine.row_col_max(ElementKind.RELATION)
    classes_1, classes_2 = engine.row_col_max(ElementKind.CLASS)
    return [
        (model.kg1, relations_1, classes_1, snap.mean_relations_1, snap.mean_classes_1),
        (model.kg2, relations_2, classes_2, snap.mean_relations_2, snap.mean_classes_2),
    ]


def _incident_counts(kg) -> np.ndarray:
    return np.array(
        [max(len(kg.relations_of_entity(e)), len(kg.classes_of(e))) for e in range(kg.num_entities)]
    )


def test_products_match_the_loop_on_a_fitted_model(fitted_pipeline):
    checked_inexact = 0
    for inputs in _signature_inputs(fitted_pipeline.model):
        products = schema_signatures(*inputs)
        reference = oracle.schema_signatures(*inputs)
        assert products.shape == reference.shape
        few = _incident_counts(inputs[0]) < PAIRWISE_FROM
        assert few.any()
        np.testing.assert_array_equal(products[few], reference[few])
        scale = np.abs(reference[~few]).max(axis=1, keepdims=True)
        assert np.all(np.abs(products[~few] - reference[~few]) <= TOLERANCE * scale)
        checked_inexact += int((~few).sum())
    assert checked_inexact, "the fixture should hold entities with 8 or more relations"


def _kg(triples, type_triples, entities=None, classes=None) -> KnowledgeGraph:
    """A KG whose vocabularies keep the given order (so class ids are known)."""
    kg = KnowledgeGraph.from_triples("kg", triples=triples, type_triples=type_triples)
    if entities is None and classes is None:
        return kg
    return KnowledgeGraph(
        "kg",
        entities=entities or kg.entities,
        relations=kg.relations,
        classes=classes or kg.classes,
        triples=kg.triples,
        type_triples=kg.type_triples,
    )


def _check(kg, relation_weights, class_weights, mean_relations, mean_classes):
    inputs = (kg, relation_weights, class_weights, mean_relations, mean_classes)
    products = schema_signatures(*inputs)
    np.testing.assert_array_equal(products, oracle.schema_signatures(*inputs))
    return products


def test_entity_without_evidence_gets_zeros():
    kg = _kg([("a", "r", "b")], [("a", "C")], entities=["a", "b", "lonely"])
    signatures = _check(kg, np.ones(1), np.ones(1), np.full((1, 2), 0.5), np.full((1, 3), 2.0))
    assert signatures.shape == (3, 5)
    assert signatures[2].tolist() == [0.0] * 5
    assert signatures[1, 2:].tolist() == [0.0] * 3  # "b" has a relation but no class


def test_all_zero_weights_fall_back_to_the_plain_mean():
    kg = _kg([("a", "r", "b"), ("a", "s", "c")], [("a", "C"), ("a", "D")])
    relations = np.array([[1.0, 2.0], [3.0, 5.0]])
    classes = np.array([[2.0], [7.0]])
    signatures = _check(kg, np.zeros(2), np.zeros(2), relations, classes)
    a = kg.entity_id("a")
    assert signatures[a].tolist() == [2.0, 3.5, 4.5]


def test_duplicated_type_triple_counts_twice():
    kg = _kg([("a", "r", "b")], [("a", "C"), ("a", "D"), ("a", "C")])
    assert kg.classes_of(kg.entity_id("a")) == [0, 1, 0]
    classes = np.array([[3.0], [6.0]])
    signatures = _check(kg, np.ones(1), np.ones(2), np.ones((1, 1)), classes)
    assert signatures[kg.entity_id("a"), 1] == 4.0  # (3 + 6 + 3) / 3


def test_classes_listed_out_of_index_order_keep_type_triple_order():
    # a sum whose result depends on the order of its terms:
    # (1 + big) - big is 0.0, (big - big) + 1 is 1.0
    big = 1e16
    kg = _kg(
        [("a", "r", "b")],
        [("a", "One"), ("a", "Big"), ("a", "MinusBig")],
        classes=["Big", "MinusBig", "One"],
    )
    assert kg.classes_of(kg.entity_id("a")) == [2, 0, 1]
    classes = np.array([[big], [-big], [1.0]])
    signatures = _check(kg, np.ones(1), np.ones(3), np.ones((1, 1)), classes)
    assert signatures[kg.entity_id("a"), 1] == ((1.0 + big) - big) / 3 == 0.0
    assert ((big - big) + 1.0) / 3 != 0.0  # what sorted class columns would give


def _without_classes(pair: AlignedKGPair) -> AlignedKGPair:
    """``pair`` with every class and type triple of KG2 removed."""
    kg2 = pair.kg2
    stripped = KnowledgeGraph(
        kg2.name, entities=kg2.entities, relations=kg2.relations, triples=kg2.triples
    )
    return AlignedKGPair(
        name=pair.name,
        kg1=pair.kg1,
        kg2=stripped,
        entity_alignment=pair.entity_alignment,
        relation_alignment=pair.relation_alignment,
        class_alignment=GoldAlignment(ElementKind.CLASS, []),
        train_entity_pairs=list(pair.train_entity_pairs),
        valid_entity_pairs=list(pair.valid_entity_pairs),
        test_entity_pairs=list(pair.test_entity_pairs),
    )


@pytest.fixture(scope="module")
def one_sided_classes():
    pair = _without_classes(make_benchmark("D-W", scale=0.1, seed=0))
    assert pair.kg1.num_classes > 0 and pair.kg2.num_classes == 0
    config = DAAKGConfig(
        base_model="transe",
        entity_dim=8,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=1),
        alignment=AlignmentTrainingConfig(
            rounds=1, epochs_per_round=2, num_negatives=4,
            embedding_batches_per_round=1, embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=10),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=0,
    )
    return DAAKG(pair, config).fit()


def test_one_sided_classes_give_signatures_of_one_width(one_sided_classes):
    (kg1, *rest_1), (kg2, *rest_2) = _signature_inputs(one_sided_classes.model)
    assert schema_signatures(kg1, *rest_1).shape[1] == schema_signatures(kg2, *rest_2).shape[1]
    pool = build_pool(one_sided_classes.model, one_sided_classes.config.pool)
    assert len(pool.sides(ElementKind.ENTITY)) > 0
    assert len(pool.sides(ElementKind.CLASS)) == 0


def test_one_sided_classes_run_an_active_batch(one_sided_classes):
    loop = one_sided_classes.active_learning(
        "daakg",
        ActiveLearningConfig(
            batch_size=5, num_batches=1, fine_tune_epochs=1,
            pool=one_sided_classes.config.pool, inference=one_sided_classes.config.inference,
        ),
    )
    records = loop.run()
    assert len(records) == 1 and len(records[0].selected) == 5
