"""Knowledge-graph substrate: data model, IO, statistics and sampling.

A :class:`~repro.kg.graph.KnowledgeGraph` follows the paper's formulation
``G = (E, R, C, T)``: entities, relations, classes and triplets.  Relation
triplets connect two entities, type triplets connect an entity to a class.
"""

from repro.kg.elements import ElementKind, Triple, TypeTriple
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair, GoldAlignment, SplitRatios
from repro.kg.io import load_openea_directory, save_openea_directory
from repro.kg.partition import (
    KGPairPartition,
    PartitionConfig,
    PartitionPiece,
    partition_pair,
)
from repro.kg.sampling import NegativeSampler
from repro.kg.statistics import KGStatistics, compute_statistics, relation_functionality

__all__ = [
    "AlignedKGPair",
    "ElementKind",
    "GoldAlignment",
    "KGPairPartition",
    "KGStatistics",
    "KnowledgeGraph",
    "NegativeSampler",
    "PartitionConfig",
    "PartitionPiece",
    "SplitRatios",
    "Triple",
    "TypeTriple",
    "compute_statistics",
    "load_openea_directory",
    "partition_pair",
    "relation_functionality",
    "save_openea_directory",
]
