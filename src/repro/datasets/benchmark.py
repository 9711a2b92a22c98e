"""Benchmark dataset registry: D-W, D-Y, EN-DE, EN-FR (scaled down).

The paper's datasets (Table 2) have 100k vs 70k entities, with schema sizes
413/261 relations and 167/116 classes (D-W), 287/32 relations and 13/9 classes
(D-Y), and so on.  The configs below keep two of their distinguishing
properties at ~1/100 scale:

* KG2 always keeps about 70% of the entities (the paper removes 30% of the
  second KG to create dangling entities),
* the relative schema richness is preserved: D-Y has very few classes and an
  asymmetric relation vocabulary, cross-lingual pairs (EN-DE, EN-FR) have
  richer, more balanced schemata.

``make_benchmark(name, scale=...)`` lets the runtime benchmarks grow the
datasets when more fidelity is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.datasets.views import ViewConfig, derive_aligned_pair
from repro.datasets.world import WorldConfig, generate_world
from repro.kg.pair import AlignedKGPair, SplitRatios
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class BenchmarkConfig:
    """A dataset configuration (world + two view configs); its registry key
    names it."""

    world: WorldConfig
    view1: ViewConfig
    view2: ViewConfig

    def scaled(self, scale: float) -> "BenchmarkConfig":
        """Scale entity/triple counts by ``scale`` (schema sizes stay fixed)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        world = replace(
            self.world,
            num_entities=max(50, int(self.world.num_entities * scale)),
        )
        return replace(self, world=world)


BENCHMARK_CONFIGS: dict[str, BenchmarkConfig] = {
    # DBpedia-Wikidata style: rich schemata on both sides, heterogeneous names
    "D-W": BenchmarkConfig(
        world=WorldConfig(
            num_entities=1000, num_classes=24, num_relations=40, mean_out_degree=6.0, seed=11
        ),
        view1=ViewConfig(prefix="dbp", relation_keep_fraction=1.0, class_keep_fraction=1.0,
                         triple_keep_fraction=0.9, type_keep_fraction=0.9),
        view2=ViewConfig(prefix="wd", obfuscate_names=True, entity_keep_fraction=0.7, relation_keep_fraction=0.7,
                         class_keep_fraction=0.7, triple_keep_fraction=0.9, type_keep_fraction=0.85),
    ),
    # DBpedia-YAGO style: very small class vocabulary, asymmetric relations
    "D-Y": BenchmarkConfig(
        world=WorldConfig(
            num_entities=1000, num_classes=13, num_relations=36, mean_out_degree=6.0, seed=13
        ),
        view1=ViewConfig(prefix="dbp", relation_keep_fraction=1.0, class_keep_fraction=1.0,
                         triple_keep_fraction=0.9, type_keep_fraction=0.9),
        view2=ViewConfig(prefix="yago", entity_keep_fraction=0.7, relation_keep_fraction=0.4,
                         class_keep_fraction=0.7, triple_keep_fraction=0.9, type_keep_fraction=0.85),
    ),
    # English-German DBpedia style: same underlying schema, different languages
    "EN-DE": BenchmarkConfig(
        world=WorldConfig(
            num_entities=1000, num_classes=20, num_relations=38, mean_out_degree=6.0, seed=17
        ),
        view1=ViewConfig(prefix="en", relation_keep_fraction=1.0, class_keep_fraction=1.0,
                         triple_keep_fraction=0.9, type_keep_fraction=0.9),
        view2=ViewConfig(prefix="de", obfuscate_names=True, entity_keep_fraction=0.7, relation_keep_fraction=0.6,
                         class_keep_fraction=0.7, triple_keep_fraction=0.9, type_keep_fraction=0.85),
    ),
    # English-French DBpedia style: rich schemata, lower structural overlap
    "EN-FR": BenchmarkConfig(
        world=WorldConfig(
            num_entities=1000, num_classes=22, num_relations=40, mean_out_degree=5.0, seed=19
        ),
        view1=ViewConfig(prefix="en", relation_keep_fraction=1.0, class_keep_fraction=1.0,
                         triple_keep_fraction=0.85, type_keep_fraction=0.9),
        view2=ViewConfig(prefix="fr", obfuscate_names=True, entity_keep_fraction=0.7, relation_keep_fraction=0.75,
                         class_keep_fraction=0.7, triple_keep_fraction=0.8, type_keep_fraction=0.85),
    ),
}


def available_benchmarks() -> list[str]:
    """Names of the registered benchmark datasets."""
    return list(BENCHMARK_CONFIGS)


def make_benchmark(
    name: str,
    scale: float = 1.0,
    split: SplitRatios | None = None,
    seed: RandomState = 0,
) -> AlignedKGPair:
    """Materialise a benchmark dataset as an :class:`AlignedKGPair`.

    Parameters
    ----------
    name:
        One of :func:`available_benchmarks` (case-insensitive).
    scale:
        Multiplier on the number of world entities; 1.0 gives ~1000 entities
        in KG1 and ~700 in KG2.
    split:
        Train/valid/test ratios of gold entity matches (default 20/10/70 like
        the OpenEA protocol).
    seed:
        Seed for view derivation and the split shuffle; the world itself is
        generated with the per-dataset seed so each dataset keeps its identity.
    """
    key = name.upper()
    if key not in BENCHMARK_CONFIGS:
        raise KeyError(f"unknown benchmark {name!r}; available: {available_benchmarks()}")
    config = BENCHMARK_CONFIGS[key]
    if scale != 1.0:
        config = config.scaled(scale)
    rng = ensure_rng(seed)
    world = generate_world(config.world)
    pair = derive_aligned_pair(world, key, config.view1, config.view2, seed=rng)
    pair.split_entity_matches(split or SplitRatios(), seed=rng)
    return pair
