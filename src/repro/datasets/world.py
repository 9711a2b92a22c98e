"""Synthetic "world" KG generation.

The generator produces a single coherent knowledge graph with the structural
properties the DAAKG method relies on:

* a class vocabulary with skewed class sizes (few large classes such as
  *Person*/*Place*, many small ones), and entities that may belong to several
  classes (the many-to-one problem of Sect. 4.1),
* relations with class-typed domains and ranges, so relation usage correlates
  with entity types (this is what schema signatures exploit),
* a mix of highly *functional* relations (``birthPlace``-like, at most one
  object per subject) and multi-valued relations, because functional relations
  carry most of the structure-based inference power (Example 1.1),
* skewed entity popularity, so some entities are hubs (``United States``-like)
  and most are in the long tail.

Two heterogeneous views of this world (see :mod:`repro.datasets.views`) play
the role of the two KGs to align.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kg.elements import Triple, TypeTriple
from repro.kg.graph import KnowledgeGraph
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of the synthetic world KG."""

    num_entities: int = 1000
    num_classes: int = 20
    num_relations: int = 30
    mean_out_degree: float = 4.0
    max_classes_per_entity: int = 3
    functional_relation_fraction: float = 0.4
    popularity_exponent: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_entities <= 0 or self.num_classes <= 0 or self.num_relations <= 0:
            raise ValueError("world sizes must be positive")
        if not 0.0 <= self.functional_relation_fraction <= 1.0:
            raise ValueError("functional_relation_fraction must be in [0, 1]")
        if self.mean_out_degree <= 0:
            raise ValueError("mean_out_degree must be positive")


@dataclass
class WorldKG:
    """The generated world: a KG plus the schema metadata used to generate it."""

    kg: KnowledgeGraph
    config: WorldConfig
    relation_domains: dict[str, str] = field(default_factory=dict)
    relation_ranges: dict[str, str] = field(default_factory=dict)
    functional_relations: set[str] = field(default_factory=set)
    entity_classes: dict[str, list[str]] = field(default_factory=dict)


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def generate_world(config: WorldConfig | None = None, seed: RandomState = None) -> WorldKG:
    """Generate a :class:`WorldKG` according to ``config``.

    ``seed`` overrides ``config.seed`` when provided, which lets benchmarks
    reuse one config with several random worlds.
    """
    config = config or WorldConfig()
    rng = ensure_rng(config.seed if seed is None else seed)

    entities = [f"ent_{i:05d}" for i in range(config.num_entities)]
    classes = [f"cls_{i:03d}" for i in range(config.num_classes)]
    relations = [f"rel_{i:03d}" for i in range(config.num_relations)]

    # ------------------------------------------------------------- class sizes
    class_probs = _zipf_probabilities(config.num_classes, 1.2)
    entity_classes: dict[str, list[str]] = {}
    class_members: dict[str, list[str]] = {c: [] for c in classes}
    for e in entities:
        n_classes = int(rng.integers(1, config.max_classes_per_entity + 1))
        chosen = rng.choice(
            config.num_classes, size=min(n_classes, config.num_classes), replace=False, p=class_probs
        )
        names = [classes[int(c)] for c in chosen]
        entity_classes[e] = names
        for c in names:
            class_members[c].append(e)
    # Guarantee every class has at least one member so that classes are alignable.
    for ci, c in enumerate(classes):
        if not class_members[c]:
            e = entities[int(rng.integers(0, config.num_entities))]
            class_members[c].append(e)
            entity_classes[e].append(c)

    # --------------------------------------------------------- relation schema
    relation_domains: dict[str, str] = {}
    relation_ranges: dict[str, str] = {}
    functional: set[str] = set()
    for i, r in enumerate(relations):
        relation_domains[r] = classes[int(rng.choice(config.num_classes, p=class_probs))]
        relation_ranges[r] = classes[int(rng.choice(config.num_classes, p=class_probs))]
        if rng.random() < config.functional_relation_fraction:
            functional.add(r)

    # ------------------------------------------------------------------ triples
    entity_popularity = _zipf_probabilities(config.num_entities, config.popularity_exponent)
    # Shuffle popularity so hub entities are spread across classes.
    entity_popularity = entity_popularity[rng.permutation(config.num_entities)]

    relations_by_domain: dict[str, list[str]] = {c: [] for c in classes}
    for r in relations:
        relations_by_domain[relation_domains[r]].append(r)

    triples: list[Triple] = []
    seen: set[tuple[str, str, str]] = set()
    functional_used: set[tuple[str, str]] = set()
    for e in entities:
        out_degree = int(rng.poisson(config.mean_out_degree))
        candidate_relations: list[str] = []
        for c in entity_classes[e]:
            candidate_relations.extend(relations_by_domain[c])
        if not candidate_relations:
            candidate_relations = relations
        for _ in range(out_degree):
            r = candidate_relations[int(rng.integers(0, len(candidate_relations)))]
            if r in functional and (e, r) in functional_used:
                continue
            range_class = relation_ranges[r]
            members = class_members[range_class]
            if members:
                # weight members by global popularity so hubs attract more edges
                weights = np.array(
                    [entity_popularity[int(m.split("_")[1])] for m in members], dtype=float
                )
                weights = weights / weights.sum()
                tail = members[int(rng.choice(len(members), p=weights))]
            else:
                tail = entities[int(rng.choice(config.num_entities, p=entity_popularity))]
            if tail == e:
                continue
            key = (e, r, tail)
            if key in seen:
                continue
            seen.add(key)
            functional_used.add((e, r))
            triples.append(Triple(e, r, tail))

    type_triples = [
        TypeTriple(e, c) for e in entities for c in entity_classes[e]
    ]

    kg = KnowledgeGraph(
        name="world",
        entities=entities,
        relations=relations,
        classes=classes,
        triples=triples,
        type_triples=type_triples,
    )
    return WorldKG(
        kg=kg,
        config=config,
        relation_domains=relation_domains,
        relation_ranges=relation_ranges,
        functional_relations=functional,
        entity_classes=entity_classes,
    )


def make_large_world_pair(
    num_entities: int,
    num_relations: int = 20,
    mean_out_degree: float = 4.0,
    popularity_exponent: float = 1.0,
    seed: int = 0,
    shared_topology: bool = False,
    num_communities: int = 1,
    inter_community_fraction: float = 0.05,
):
    """A fully-aligned two-view world pair sized for scale benchmarks.

    :func:`generate_world` models realistic schema structure but builds its
    triples one Python object at a time, which caps it at a few thousand
    entities.  This generator trades the class machinery away for fully
    vectorised triple sampling (skewed entity popularity, uniform relations),
    so pairs with tens of thousands of entities materialise in seconds — the
    scenario class the streamed similarity queries exist for.  Both views
    share the topology *sample* (each draws its own edges over the same
    entity popularity law), every entity is gold-aligned to its counterpart,
    and the two vocabularies share no lexical overlap.

    With ``shared_topology=True`` the two views instead share the *same*
    drawn edge set (isomorphic graphs under the gold alignment), which puts
    embedding-based alignment in a learnable regime — the setting campaign
    benchmarks need when they compare accuracy, not just memory or speed.

    ``num_communities > 1`` draws most edges (all but
    ``inter_community_fraction``) inside contiguous entity blocks.  Real KGs
    have that community structure (topical clusters), and it is exactly what
    ρ-bounded campaign partitioning exploits; the default (one community)
    keeps the historical expander-like topology.
    """
    from repro.kg.pair import AlignedKGPair, GoldAlignment
    from repro.kg.elements import ElementKind

    if num_entities <= 1:
        raise ValueError("num_entities must be > 1")
    if num_communities < 1 or num_communities > num_entities:
        raise ValueError("num_communities must be in [1, num_entities]")
    if not 0.0 <= inter_community_fraction <= 1.0:
        raise ValueError("inter_community_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, num_entities + 1) ** popularity_exponent
    popularity = popularity / popularity.sum()
    num_triples = int(num_entities * mean_out_degree)
    community = (np.arange(num_entities) * num_communities) // num_entities

    def draw_tails(heads: np.ndarray) -> np.ndarray:
        """Tails by popularity — mostly within the head's community block."""
        tails = rng.choice(num_entities, size=heads.shape[0], p=popularity)
        if num_communities == 1:
            return tails
        local = rng.random(heads.shape[0]) >= inter_community_fraction
        for c in range(num_communities):
            rows = np.nonzero(local & (community[heads] == c))[0]
            if rows.size == 0:
                continue
            members = np.nonzero(community == c)[0]
            weights = popularity[members]
            tails[rows] = members[
                rng.choice(members.shape[0], size=rows.shape[0], p=weights / weights.sum())
            ]
        return tails

    shared_sample: dict[str, np.ndarray] = {}

    def one_view(prefix: str) -> KnowledgeGraph:
        entity_names = [f"{prefix}:e{i}" for i in range(num_entities)]
        relation_names = [f"{prefix}:r{j}" for j in range(num_relations)]
        if shared_topology and shared_sample:
            heads, tails, rels = (
                shared_sample["heads"], shared_sample["tails"], shared_sample["rels"]
            )
        else:
            heads = rng.choice(num_entities, size=num_triples, p=popularity)
            tails = draw_tails(heads)
            rels = rng.integers(0, num_relations, size=num_triples)
            shared_sample.update(heads=heads, tails=tails, rels=rels)
        keep = heads != tails
        triples = [
            Triple(entity_names[h], relation_names[r], entity_names[t])
            for h, r, t in zip(heads[keep], rels[keep], tails[keep])
        ]
        return KnowledgeGraph(
            name=prefix,
            entities=entity_names,
            relations=relation_names,
            classes=[],
            triples=triples,
            type_triples=[],
        )

    kg1 = one_view("lw1")
    kg2 = one_view("lw2")
    matches = [(f"lw1:e{i}", f"lw2:e{i}") for i in range(num_entities)]
    return AlignedKGPair(
        name=f"large-world-{num_entities}",
        kg1=kg1,
        kg2=kg2,
        entity_alignment=GoldAlignment(ElementKind.ENTITY, matches),
        relation_alignment=GoldAlignment(ElementKind.RELATION, []),
        class_alignment=GoldAlignment(ElementKind.CLASS, []),
    )
