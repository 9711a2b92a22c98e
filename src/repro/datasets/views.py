"""Deriving two heterogeneous KG views from a world KG.

Each view renames the world's schema into its own namespace (so relation and
class names carry no trivial string overlap, like DBpedia vs. Wikidata), keeps
only a subset of relations/classes (producing dangling schema elements), drops
a fraction of triples and type assertions (structural heterogeneity), and can
drop a fraction of entities entirely (the paper removes 30% of KG2's entities
to create dangling entities).

Gold matches are the world elements that survive in both views.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.datasets.world import WorldKG
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair, GoldAlignment
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class ViewConfig:
    """Parameters controlling how one view is carved out of the world KG."""

    prefix: str
    entity_keep_fraction: float = 1.0
    relation_keep_fraction: float = 1.0
    class_keep_fraction: float = 1.0
    triple_keep_fraction: float = 0.85
    type_keep_fraction: float = 0.9
    rename_entities: bool = True
    obfuscate_names: bool = False

    def __post_init__(self) -> None:
        for field_name in (
            "entity_keep_fraction",
            "relation_keep_fraction",
            "class_keep_fraction",
            "triple_keep_fraction",
            "type_keep_fraction",
        ):
            value = getattr(self, field_name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{field_name} must be in (0, 1], got {value}")


def _keep_mask(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """A mask keeping ``round(fraction * n)`` (at least one) of ``n`` items."""
    n_keep = max(1, int(round(fraction * n)))
    if n_keep >= n:
        return np.ones(n, dtype=bool)
    keep = np.zeros(n, dtype=bool)
    keep[rng.choice(n, size=n_keep, replace=False)] = True
    return keep


def derive_view(
    world: WorldKG, config: ViewConfig, seed: RandomState = None
) -> tuple[KnowledgeGraph, dict[str, str], dict[str, str], dict[str, str]]:
    """Derive one KG view.

    Returns the view KG and three maps from world names to view names for
    entities, relations and classes (only for elements kept in this view).
    """
    rng = ensure_rng(seed)
    kg = world.kg

    kept_entities = _keep_mask(kg.num_entities, config.entity_keep_fraction, rng)
    kept_relations = _keep_mask(kg.num_relations, config.relation_keep_fraction, rng)
    kept_classes = _keep_mask(kg.num_classes, config.class_keep_fraction, rng)

    # One keep coin per candidate row, drawn in row order.
    triples = kg.triple_array
    triples = triples[
        kept_entities[triples[:, 0]] & kept_relations[triples[:, 1]] & kept_entities[triples[:, 2]]
    ]
    triples = triples[rng.random(len(triples)) <= config.triple_keep_fraction]
    types = kg.type_array
    types = types[kept_entities[types[:, 0]] & kept_classes[types[:, 1]]]
    types = types[rng.random(len(types)) <= config.type_keep_fraction]

    def local_name(world_name: str) -> str:
        """The view-local identifier of a world element.

        ``obfuscate_names`` simulates cross-lingual / cross-vocabulary datasets
        (D-W, EN-DE, EN-FR): names carry no lexical overlap with the other
        view, so purely lexical matchers get no signal, as in the paper.
        """
        if config.obfuscate_names:
            return hashlib.md5(f"{config.prefix}:{world_name}".encode()).hexdigest()[:10]
        return world_name

    def view_name(world_name: str) -> str:
        return f"{config.prefix}:{local_name(world_name)}"

    def ent_name(world_name: str) -> str:
        return view_name(world_name) if config.rename_entities else world_name

    # Drop elements that end up unused (mirrors how OpenEA samples are built:
    # the vocabularies are exactly what the triples mention).
    def used(size: int, *columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World ids in use, ascending, and the world-to-view id map."""
        mask = np.zeros(size, dtype=bool)
        for column in columns:
            mask[column] = True
        return np.flatnonzero(mask), np.cumsum(mask) - 1

    entity_ids, entity_view = used(kg.num_entities, triples[:, 0], triples[:, 2], types[:, 0])
    relation_ids, relation_view = used(kg.num_relations, triples[:, 1])
    class_ids, class_view = used(kg.num_classes, types[:, 1])
    entity_map = {kg.entities[i]: ent_name(kg.entities[i]) for i in entity_ids}
    relation_map = {kg.relations[i]: view_name(kg.relations[i]) for i in relation_ids}
    class_map = {kg.classes[i]: view_name(kg.classes[i]) for i in class_ids}

    view_kg = KnowledgeGraph.from_arrays(
        config.prefix,
        list(entity_map.values()),
        list(relation_map.values()),
        list(class_map.values()),
        np.stack(
            [entity_view[triples[:, 0]], relation_view[triples[:, 1]], entity_view[triples[:, 2]]],
            axis=1,
        ),
        np.stack([entity_view[types[:, 0]], class_view[types[:, 1]]], axis=1),
    )
    return view_kg, entity_map, relation_map, class_map


def derive_aligned_pair(
    world: WorldKG,
    name: str,
    view1: ViewConfig,
    view2: ViewConfig,
    seed: RandomState = None,
) -> AlignedKGPair:
    """Derive an :class:`AlignedKGPair` (two views + gold matches) from a world KG."""
    rng = ensure_rng(seed)
    seed1 = int(rng.integers(0, 2**31 - 1))
    seed2 = int(rng.integers(0, 2**31 - 1))
    kg1, ent_map1, rel_map1, cls_map1 = derive_view(world, view1, seed1)
    kg2, ent_map2, rel_map2, cls_map2 = derive_view(world, view2, seed2)

    entity_pairs = [
        (ent_map1[w], ent_map2[w]) for w in ent_map1 if w in ent_map2
    ]
    relation_pairs = [
        (rel_map1[w], rel_map2[w]) for w in rel_map1 if w in rel_map2
    ]
    class_pairs = [
        (cls_map1[w], cls_map2[w]) for w in cls_map1 if w in cls_map2
    ]

    return AlignedKGPair(
        name=name,
        kg1=kg1,
        kg2=kg2,
        entity_alignment=GoldAlignment(ElementKind.ENTITY, entity_pairs),
        relation_alignment=GoldAlignment(ElementKind.RELATION, relation_pairs),
        class_alignment=GoldAlignment(ElementKind.CLASS, class_pairs),
    )
