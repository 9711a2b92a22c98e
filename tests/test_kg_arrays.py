"""Array-built KGs against the name-built KGs they replaced.

Every derivation — :meth:`KnowledgeGraph.from_arrays`, inverse relations,
subgraphs, checkpoint decoding, delta application and the classes-as-entities
ablation — builds its KG from index arrays.  The ``*_by_names`` functions
below are the previous implementations, which built each KG from ``Triple``
objects; they are kept here as oracles.  Every array-built KG must equal its
oracle byte for byte: vocabularies, ``triple_array``/``type_array``, the ten
CSR arrays and the ``triples``/``type_triples`` read views built from the
arrays on first read.  A delta that the oracle refuses must be refused with
the same message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.daakg import _classes_as_entities
from repro.datasets import make_large_world_pair
from repro.kg.elements import INVERSE_SUFFIX, Triple, TypeTriple
from repro.kg.graph import KGError, KnowledgeGraph
from repro.persistence.codec import kg_from_arrays, kg_to_arrays, pair_from_arrays, pair_to_arrays
from repro.updates.delta import DeltaError, KGDelta, _apply_kg_delta

CSR_ARRAYS = (
    "out_ptr", "out_order", "in_ptr", "in_order", "relation_ptr", "relation_order",
    "type_ptr", "type_order", "member_ptr", "member_order",
)


# -------------------------------------------------------------------- oracles
def inverse_by_names(kg: KnowledgeGraph) -> KnowledgeGraph:
    relations = list(kg.relations)
    seen = {t.as_tuple() for t in kg.triples}
    triples = list(kg.triples)
    for triple in kg.triples:
        if triple.relation.endswith(INVERSE_SUFFIX):
            continue
        reverse = triple.reversed(INVERSE_SUFFIX)
        if reverse.relation not in relations:
            relations.append(reverse.relation)
        if reverse.as_tuple() not in seen:
            seen.add(reverse.as_tuple())
            triples.append(reverse)
    return KnowledgeGraph(
        kg.name, list(kg.entities), relations, list(kg.classes), triples, list(kg.type_triples)
    )


def subgraph_by_names(kg: KnowledgeGraph, keep) -> KnowledgeGraph:
    keep_set = set(keep)
    triples = [t for t in kg.triples if t.head in keep_set and t.tail in keep_set]
    type_triples = [tt for tt in kg.type_triples if tt.entity in keep_set]
    used_relations = {t.relation for t in triples}
    used_classes = {tt.cls for tt in type_triples}
    return KnowledgeGraph(
        name=kg.name,
        entities=[e for e in kg.entities if e in keep_set],
        relations=[r for r in kg.relations if r in used_relations],
        classes=[c for c in kg.classes if c in used_classes],
        triples=triples,
        type_triples=type_triples,
    )


def classes_as_entities_by_names(kg: KnowledgeGraph) -> KnowledgeGraph:
    triples = list(kg.triples) + [
        Triple(tt.entity, "__type__", f"__class__:{tt.cls}") for tt in kg.type_triples
    ]
    return KnowledgeGraph(
        name=kg.name,
        entities=list(kg.entities) + [f"__class__:{c}" for c in kg.classes],
        relations=list(kg.relations) + ["__type__"],
        classes=list(kg.classes),
        triples=triples,
        type_triples=list(kg.type_triples),
    )


def delta_by_names(kg, added_entities, added_triples, removed_triples, side):
    for entity in added_entities:
        if entity in kg.entity_index:
            raise DeltaError(f"added entity {entity!r} already exists in KG{side}")
    known = set(kg.entities)
    known.update(added_entities)
    existing = {t.as_tuple() for t in kg.triples}
    removed = set(removed_triples)
    for triple in removed_triples:
        if triple not in existing:
            raise DeltaError(f"removed triple {triple!r} does not exist in KG{side}")
    relations = list(kg.relations)
    seen_relations = set(relations)
    for head, relation, tail in added_triples:
        if head not in known or tail not in known:
            missing = head if head not in known else tail
            raise DeltaError(
                f"added triple ({head!r}, {relation!r}, {tail!r}) references "
                f"unknown KG{side} entity {missing!r}"
            )
        if (head, relation, tail) in existing:
            raise DeltaError(f"added triple ({head!r}, {relation!r}, {tail!r}) already present")
        if relation not in seen_relations:
            seen_relations.add(relation)
            relations.append(relation)
    triples = [t for t in kg.triples if t.as_tuple() not in removed]
    triples.extend(Triple(head, relation, tail) for head, relation, tail in added_triples)
    return KnowledgeGraph(
        name=kg.name,
        entities=list(kg.entities) + list(added_entities),
        relations=relations,
        classes=list(kg.classes),
        triples=triples,
        type_triples=list(kg.type_triples),
    )


def assert_same_kg(built: KnowledgeGraph, oracle: KnowledgeGraph) -> None:
    """``built`` (array path) equals ``oracle`` (name path) byte for byte."""
    assert built._triples is None and built._type_triples is None  # nothing read yet
    assert built.name == oracle.name
    for vocabulary in ("entities", "relations", "classes"):
        assert getattr(built, vocabulary) == getattr(oracle, vocabulary)
        assert all(type(name) is str for name in getattr(built, vocabulary))
    for name in ("triple_array", "type_array") + CSR_ARRAYS:
        ours, theirs = getattr(built, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert built.num_triples == oracle.num_triples
    assert built.num_type_triples == oracle.num_type_triples
    assert built.triples == oracle.triples
    assert built.type_triples == oracle.type_triples
    assert built == oracle


# ------------------------------------------------------------------- fixtures
def drift_pair():
    return make_large_world_pair(
        600, num_relations=10, mean_out_degree=5.0, seed=0,
        shared_topology=True, num_communities=4, inter_community_fraction=0.05,
    )


@pytest.fixture(scope="module", params=["D-W", "drift"])
def pair(request, small_benchmark):
    return small_benchmark if request.param == "D-W" else drift_pair()


def sides(pair):
    return ((1, pair.kg1), (2, pair.kg2))


# ---------------------------------------------------------------------- tests
class TestArrayParity:
    def test_from_arrays_equals_name_build(self, pair):
        for _, kg in sides(pair):
            built = KnowledgeGraph.from_arrays(
                kg.name, list(kg.entities), list(kg.relations), list(kg.classes),
                kg.triple_array, kg.type_array,
            )
            assert_same_kg(built, kg)
            # the KG owns its arrays: the caller's stay untouched and unshared
            assert not np.shares_memory(built.triple_array, kg.triple_array)

    def test_with_inverse_relations_and_idempotence(self, pair):
        for _, kg in sides(pair):
            inverse = kg.with_inverse_relations()
            assert_same_kg(inverse, inverse_by_names(kg))
            again = inverse.with_inverse_relations()
            assert_same_kg(again, inverse_by_names(inverse_by_names(kg)))
            assert again == inverse

    def test_codec_round_trip(self, pair):
        for _, kg in sides(pair):
            arrays: dict[str, np.ndarray] = {}
            kg_to_arrays(kg.with_inverse_relations(), "kg", arrays)
            assert_same_kg(kg_from_arrays("kg", arrays), inverse_by_names(kg))
        arrays = {}
        pair_to_arrays(pair, "dataset", arrays)
        restored = pair_from_arrays("dataset", arrays)
        assert_same_kg(restored.kg1, pair.kg1)
        assert_same_kg(restored.kg2, pair.kg2)

    def test_subgraph_of_entities(self, pair):
        for _, kg in sides(pair):
            keep = kg.entities[::3] + kg.entities[1:40:2]
            assert_same_kg(kg.subgraph_of_entities(keep), subgraph_by_names(kg, keep))
            assert_same_kg(kg.subgraph_of_entities([]), subgraph_by_names(kg, []))

    def test_classes_as_entities(self, pair):
        for _, kg in sides(pair):
            augmented = kg.with_inverse_relations()
            built, class_map = _classes_as_entities(augmented)
            oracle = classes_as_entities_by_names(augmented)
            assert_same_kg(built, oracle)
            expected = [oracle.entity_id(f"__class__:{c}") for c in augmented.classes]
            assert class_map.dtype == np.int64 and class_map.tolist() == expected

    def test_delta_with_adds_removals_and_a_new_relation(self, pair):
        for side, kg in sides(pair):
            new = (f"new{side}:a", f"new{side}:b")
            removed = tuple(t.as_tuple() for t in kg.triples[1:60:7])
            added = (
                (new[0], kg.relations[0], kg.entities[2]),
                (kg.entities[5], "brand_new_relation", new[1]),
                (new[1], kg.relations[-1], new[0]),
                (kg.entities[0], "another_new_relation", kg.entities[9]),
                (kg.entities[3], "brand_new_relation", kg.entities[4]),
            )
            built = _apply_kg_delta(kg, new, added, removed, side)
            assert_same_kg(built, delta_by_names(kg, new, added, removed, side))
            assert built.relations[-2:] == ["brand_new_relation", "another_new_relation"]
            # a removed triple goes with all its copies; the input KG is untouched
            doubled = KnowledgeGraph(
                kg.name, list(kg.entities), list(kg.relations), list(kg.classes),
                kg.triples[:10] + kg.triples[:3], list(kg.type_triples),
            )
            victims = tuple(t.as_tuple() for t in kg.triples[:2])
            assert_same_kg(
                _apply_kg_delta(doubled, (), (), victims, side),
                delta_by_names(doubled, (), (), victims, side),
            )
            assert doubled.num_triples == 13

    def test_delta_errors_keep_their_messages(self, small_benchmark):
        kg = small_benchmark.kg1
        e, r = kg.entities, kg.relations
        first = kg.triples[0].as_tuple()
        cases = [
            ((e[0],), (), ()),  # added entity already exists
            ((), (), (("no", "such", "triple"),)),
            ((), (), ((e[0], "no_such_relation", e[1]),)),
            (("x:new",), (), (("x:new", r[0], e[1]),)),  # removal names a new entity
            ((), (), ((first[2], first[1], first[0] + "?"),)),
            ((), ((e[0], r[0], "ghost"),), ()),  # unknown tail
            ((), (("ghost", "fresh_relation", e[0]),), ()),  # unknown head, new relation
            ((), (first,), ()),  # already present
            ((), ((e[1], "fresh_relation", e[2]), first), ()),
            (("x:new",), (("x:new", r[0], e[0]), ("ghost", r[0], e[0]), first), ()),
            ((), (first,), (("no", "such", "triple"),)),  # removals are checked first
        ]
        for added_entities, added, removed in cases:
            with pytest.raises(DeltaError) as expected:
                delta_by_names(kg, added_entities, added, removed, 1)
            with pytest.raises(DeltaError) as raised:
                _apply_kg_delta(kg, added_entities, added, removed, 1)
            assert str(raised.value) == str(expected.value)

    def test_pair_apply_delta_is_array_built(self, small_benchmark):
        kg1 = small_benchmark.kg1
        delta = KGDelta(
            added_entities_1=("x:new",),
            added_triples_1=(("x:new", kg1.relations[0], kg1.entities[0]),),
        )
        updated = small_benchmark.apply_delta(delta)
        for kg in (updated.kg1, updated.kg2):
            assert kg._triples is None and kg._type_triples is None


class TestArrayValidation:
    VOCAB = (["a", "b", "c"], ["r", "s"], ["X"])

    def build(self, triples, types=((0, 0),), vocab=None):
        entities, relations, classes = vocab or self.VOCAB
        return KnowledgeGraph.from_arrays(
            "t", list(entities), list(relations), list(classes),
            np.array(triples, dtype=np.int64).reshape(-1, 3),
            np.array(types, dtype=np.int64).reshape(-1, 2),
        )

    def test_valid_arrays_build(self):
        kg = self.build([(0, 0, 1), (2, 1, 0)])
        assert kg.triples == [Triple("a", "r", "b"), Triple("c", "s", "a")]
        assert kg.type_triples == [TypeTriple("a", "X")]
        assert self.build([]).num_triples == 0

    @pytest.mark.parametrize(
        "triples, types",
        [
            ([(0, 0, 3)], [(0, 0)]),  # tail out of range
            ([(-1, 0, 1)], [(0, 0)]),  # negative head
            ([(0, 2, 1)], [(0, 0)]),  # relation out of range
            ([(0, 0, 1)], [(3, 0)]),  # typed entity out of range
            ([(0, 0, 1)], [(0, 1)]),  # class out of range
            ([(0, 0, 1)], [(0, -1)]),
        ],
    )
    def test_out_of_range_raises(self, triples, types):
        with pytest.raises(KGError, match="out of range"):
            self.build(triples, types)

    @pytest.mark.parametrize(
        "vocab",
        [
            (["a", "a", "c"], ["r", "s"], ["X"]),
            (["a", "b", "c"], ["r", "r"], ["X"]),
            (["a", "b", "c"], ["r", "s"], ["X", "X"]),
        ],
    )
    def test_duplicate_vocabulary_raises(self, vocab):
        with pytest.raises(KGError, match="duplicate"):
            self.build([(0, 0, 1)], vocab=vocab)

    def test_bad_shapes_and_dtypes_raise(self):
        entities, relations, classes = self.VOCAB
        for triples, types in [
            (np.zeros((2, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)),
            (np.zeros(3, dtype=np.int64), np.zeros((0, 2), dtype=np.int64)),
            (np.zeros((1, 3)), np.zeros((0, 2), dtype=np.int64)),
            (np.zeros((1, 3), dtype=np.int64), np.zeros((1, 3), dtype=np.int64)),
        ]:
            with pytest.raises(KGError):
                KnowledgeGraph.from_arrays(
                    "t", list(entities), list(relations), list(classes), triples, types
                )
