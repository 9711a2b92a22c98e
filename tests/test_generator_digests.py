"""Golden digests of the synthetic dataset generators.

``test_datasets.py`` checks that two runs of the generator agree with each
other; these digests pin what the generator draws.  Each is a sha256 over the
vocabularies, ``triple_array`` and ``type_array`` of both KGs, the gold ids
per element kind and the train/valid/test splits, so any change to the random
stream, to the order of a loop or to the names shows up here.  A change that
is meant to alter the generated data must update the digests and say why.

The grid cases reach the generator's edge paths: entities whose classes are
no relation's domain, one-member classes, entity dropping, kept world names
and obfuscated names.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    ViewConfig,
    WorldConfig,
    derive_aligned_pair,
    generate_world,
    make_benchmark,
)


def _update_strings(h, values) -> None:
    h.update(b"\x00".join(v.encode() for v in values))
    h.update(b"\x01")


def _update_array(h, array) -> None:
    array = np.ascontiguousarray(array, dtype=np.int64)
    h.update(repr(array.shape).encode())
    h.update(array.tobytes())


def pair_digest(pair) -> str:
    h = hashlib.sha256()
    for kg in (pair.kg1, pair.kg2):
        for vocabulary in (kg.entities, kg.relations, kg.classes):
            _update_strings(h, vocabulary)
        _update_array(h, kg.triple_array)
        _update_array(h, kg.type_array)
    _update_array(h, pair.entity_match_ids())
    _update_array(h, pair.relation_match_ids())
    _update_array(h, pair.class_match_ids())
    for split in (pair.train_entity_pairs, pair.valid_entity_pairs, pair.test_entity_pairs):
        _update_array(h, pair.entity_match_ids(split).reshape(-1, 2))
    return h.hexdigest()


def world_digest(world) -> str:
    h = hashlib.sha256()
    kg = world.kg
    for vocabulary in (kg.entities, kg.relations, kg.classes):
        _update_strings(h, vocabulary)
    _update_array(h, kg.triple_array)
    _update_array(h, kg.type_array)
    for r in kg.relations:
        _update_strings(h, [world.relation_domains[r], world.relation_ranges[r]])
    _update_strings(h, sorted(world.functional_relations))
    for e in kg.entities:
        _update_strings(h, world.entity_classes[e])
    return h.hexdigest()


BENCHMARK_DIGESTS = {
    ("D-W", 0.1, 0): "7f98cca6f492ccb3058fe7498f4556f94b48a3869fffc2fd1a7c8459d460f297",
    ("D-W", 0.1, 1): "bc03c2f32f8e808d7e54ad6346ce60acf0644aaa2940ed4819f4b834cea0e06f",
    ("D-W", 1.0, 0): "e6f233e0f5663bd12e5e1a8d480ab5841c3b3a6239003c4b0c1b76d9026c7b83",
    ("D-W", 1.0, 1): "620abf6c29ac82615068ffc8bc5e236e31e90c016868cc68681776abba9e3b3a",
    ("D-Y", 0.1, 0): "e68877248f1e0115c78fbe6eda3d7719dfe6b64e912289c35e747c1060402a9a",
    ("D-Y", 0.1, 1): "83458bbd86cfac07e3f733e206f53b1ce08ea214d88585e14a9adcd8ebd22933",
    ("D-Y", 1.0, 0): "c02609c72d5ab650342d7d65b7a484d6bc7ec7fbe292da489d67a6b9ee4bd2b3",
    ("D-Y", 1.0, 1): "b7cad67649cde4db44f5c22ed8a223aa69ec5a8bb93f23e79a122da82b9dd170",
    ("EN-DE", 0.1, 0): "c62740227fa2d7fdd7ef64f6df93ccd686a5f72107b7ebbe2a421091c06248a9",
    ("EN-DE", 0.1, 1): "18711731a48483cb9b2a767ce478bf1422e87ac605ec9b96002a5a95146b5658",
    ("EN-DE", 1.0, 0): "07b953a8d2c7822786d4c2e6f449f535ef2793903d0792f6bf993faa19ba2646",
    ("EN-DE", 1.0, 1): "719d9c5e7b81610172b9e58e2afe7b9ec08902203230cd055c4d721ddc530f84",
    ("EN-FR", 0.1, 0): "8ad682cef59dc4c055bfe0a76527579b98515ba10d7485354a3d8073873bf2e2",
    ("EN-FR", 0.1, 1): "8f7d6e253710f912a0923835b0c4fb8c4ec7a6636f98ad3a6e2d45a42d71a375",
    ("EN-FR", 1.0, 0): "dd29fe5c570d78a301c7624f47bfccae4c5d5ce8e3d4bc8633110ae917924f8a",
    ("EN-FR", 1.0, 1): "f1a73484e20d1cadc01017a4e6f571e1a450ab5f168cb547d258d2a715797420",
}


@pytest.mark.parametrize("name,scale,seed", sorted(BENCHMARK_DIGESTS))
def test_benchmark_digest(name, scale, seed):
    pair = make_benchmark(name, scale=scale, seed=seed)
    assert pair_digest(pair) == BENCHMARK_DIGESTS[(name, scale, seed)]


# Few relations over many classes leaves entities outside every relation's
# domain (their out-edges fall back to all relations); more classes than the
# class law fills gives one-member classes; and ``max_classes_per_entity``
# above ``num_classes`` caps the draw at the class count.
GRID_WORLDS = {
    "undomained": WorldConfig(
        num_entities=80, num_classes=16, num_relations=3, max_classes_per_entity=1, seed=5
    ),
    "one_member_classes": WorldConfig(
        num_entities=40, num_classes=30, num_relations=6, mean_out_degree=3.0, seed=7
    ),
    "capped_classes": WorldConfig(
        num_entities=60, num_classes=2, num_relations=5, max_classes_per_entity=4,
        functional_relation_fraction=1.0, popularity_exponent=0.5, seed=9
    ),
}
GRID_VIEWS = {
    "dropped_renamed": (
        ViewConfig(prefix="a", triple_keep_fraction=0.8),
        ViewConfig(prefix="b", entity_keep_fraction=0.6, relation_keep_fraction=0.5,
                   class_keep_fraction=0.5, type_keep_fraction=0.7),
    ),
    "kept_names": (
        ViewConfig(prefix="a", rename_entities=False),
        ViewConfig(prefix="b", rename_entities=False, entity_keep_fraction=0.7),
    ),
    "obfuscated": (
        ViewConfig(prefix="a", obfuscate_names=True, triple_keep_fraction=1.0,
                   type_keep_fraction=1.0),
        ViewConfig(prefix="b", obfuscate_names=True, entity_keep_fraction=0.5),
    ),
}
WORLD_DIGESTS = {
    "undomained": "bfcb77cea527de39cc03745f014414eee4618dcc02836b5fb53650b49a71f0bf",
    "one_member_classes": "020bed6a71ef8fd9c0fd718e72e00488be4743039e07803c5c02a7ca8c297834",
    "capped_classes": "8f3a7c6681dc0670c15bd4b1383eb3c8b97eae6faf4015916903ebb70bb00180",
}
GRID_DIGESTS = {
    ("undomained", "dropped_renamed"): "483bd67d9b985e2f3a829d4e2fd113e6037c6ce0d8455cc0865a6f7c17cd0ab1",
    ("undomained", "kept_names"): "96fb1f842a7d15e4061c2a0a179d8019b725a3bbf2d38be54c3522fec77bf345",
    ("undomained", "obfuscated"): "b8f4c046834731402a072cb1198f2478b997a407f01a9c583cfe2cbeefd030b6",
    ("one_member_classes", "dropped_renamed"): "84e6a72a284a9bf1314dfec7550b9c4f5a769ddff008c34c4e722540c5ca7800",
    ("one_member_classes", "kept_names"): "169aea91b80df595a789f770ced4951fe7d110778ea8f8ace763d84e5ebfa608",
    ("one_member_classes", "obfuscated"): "552642d967742c2b505079a984c5983a5688986c4765957eeaea8ad500a942dd",
    ("capped_classes", "dropped_renamed"): "ca7accbb7534b4892d2c6ea9532995d1eb175fc56ae61378076a636bcc5b5746",
    ("capped_classes", "kept_names"): "6f76e63e6cc74489d76e8570e56e4070751a5a3068f70bf8dc9e7e2a05e279ac",
    ("capped_classes", "obfuscated"): "4d14085a704834ab27db1e64f43735b67336b07bb17b71437502292b1d9b137d",
}


def test_grid_reaches_the_edge_paths():
    world = generate_world(GRID_WORLDS["undomained"])
    domains = set(world.relation_domains.values())
    assert any(not domains & set(c) for c in world.entity_classes.values())
    world = generate_world(GRID_WORLDS["one_member_classes"])
    kg = world.kg
    assert any(len(kg.entities_of_class(c)) == 1 for c in range(kg.num_classes))
    world = generate_world(GRID_WORLDS["capped_classes"])
    assert max(len(c) for c in world.entity_classes.values()) == 2


@pytest.mark.parametrize("world_name", sorted(WORLD_DIGESTS))
def test_world_digest(world_name):
    assert world_digest(generate_world(GRID_WORLDS[world_name])) == WORLD_DIGESTS[world_name]


@pytest.mark.parametrize("world_name,views_name", sorted(GRID_DIGESTS))
def test_grid_digest(world_name, views_name):
    world = generate_world(GRID_WORLDS[world_name])
    view1, view2 = GRID_VIEWS[views_name]
    pair = derive_aligned_pair(world, f"{world_name}/{views_name}", view1, view2, seed=3)
    pair.split_entity_matches(seed=4)
    assert pair_digest(pair) == GRID_DIGESTS[(world_name, views_name)]
