"""Array codecs for KGs and aligned pairs.

Checkpoints store the whole dataset alongside the model state so a pipeline
can be restored on a machine that never saw the original data files.  Every
structure is flattened into NumPy arrays (string vocabularies, ``int64``
index arrays) under a key prefix, so one ``.npz`` holds the full state and
``allow_pickle`` stays off.

Round-trip fidelity matters more than compactness here: vocabulary *order*
defines the integer indexes every other checkpoint section refers to, so the
codecs preserve it exactly, and triples are stored as indexes into those
vocabularies rather than repeated strings.
"""

from __future__ import annotations

import numpy as np

from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import AlignedKGPair, GoldAlignment


def _string_array(values: list[str]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.str_)


def _string_pairs(pairs: list[tuple[str, str]]) -> np.ndarray:
    if not pairs:
        return np.empty((0, 2), dtype=np.str_)
    return np.asarray([list(p) for p in pairs], dtype=np.str_)


def _pair_list(array: np.ndarray) -> list[tuple[str, str]]:
    return [(str(a), str(b)) for a, b in array]


def kg_to_arrays(kg: KnowledgeGraph, prefix: str, arrays: dict[str, np.ndarray]) -> None:
    """Flatten one KG into ``arrays`` under ``prefix``."""
    arrays[f"{prefix}/name"] = np.asarray(kg.name, dtype=np.str_)
    arrays[f"{prefix}/entities"] = _string_array(kg.entities)
    arrays[f"{prefix}/relations"] = _string_array(kg.relations)
    arrays[f"{prefix}/classes"] = _string_array(kg.classes)
    arrays[f"{prefix}/triples"] = kg.triple_array.copy()
    arrays[f"{prefix}/type_triples"] = kg.type_array.copy()


def kg_from_arrays(prefix: str, arrays: dict[str, np.ndarray]) -> KnowledgeGraph:
    """Rebuild a KG flattened by :func:`kg_to_arrays` (vocab order preserved)."""
    return KnowledgeGraph.from_arrays(
        name=str(arrays[f"{prefix}/name"]),
        entities=arrays[f"{prefix}/entities"].tolist(),
        relations=arrays[f"{prefix}/relations"].tolist(),
        classes=arrays[f"{prefix}/classes"].tolist(),
        triple_array=arrays[f"{prefix}/triples"],
        type_array=arrays[f"{prefix}/type_triples"],
    )


def pair_to_arrays(pair: AlignedKGPair, prefix: str, arrays: dict[str, np.ndarray]) -> None:
    """Flatten an aligned pair (KGs, gold alignments, splits) under ``prefix``."""
    arrays[f"{prefix}/name"] = np.asarray(pair.name, dtype=np.str_)
    kg_to_arrays(pair.kg1, f"{prefix}/kg1", arrays)
    kg_to_arrays(pair.kg2, f"{prefix}/kg2", arrays)
    arrays[f"{prefix}/ent_links"] = _string_pairs(pair.entity_alignment.pairs)
    arrays[f"{prefix}/rel_links"] = _string_pairs(pair.relation_alignment.pairs)
    arrays[f"{prefix}/cls_links"] = _string_pairs(pair.class_alignment.pairs)
    arrays[f"{prefix}/train"] = _string_pairs(pair.train_entity_pairs)
    arrays[f"{prefix}/valid"] = _string_pairs(pair.valid_entity_pairs)
    arrays[f"{prefix}/test"] = _string_pairs(pair.test_entity_pairs)


def pair_from_arrays(prefix: str, arrays: dict[str, np.ndarray]) -> AlignedKGPair:
    """Rebuild an aligned pair flattened by :func:`pair_to_arrays`."""
    return AlignedKGPair(
        name=str(arrays[f"{prefix}/name"]),
        kg1=kg_from_arrays(f"{prefix}/kg1", arrays),
        kg2=kg_from_arrays(f"{prefix}/kg2", arrays),
        entity_alignment=GoldAlignment(
            ElementKind.ENTITY, _pair_list(arrays[f"{prefix}/ent_links"])
        ),
        relation_alignment=GoldAlignment(
            ElementKind.RELATION, _pair_list(arrays[f"{prefix}/rel_links"])
        ),
        class_alignment=GoldAlignment(
            ElementKind.CLASS, _pair_list(arrays[f"{prefix}/cls_links"])
        ),
        train_entity_pairs=_pair_list(arrays[f"{prefix}/train"]),
        valid_entity_pairs=_pair_list(arrays[f"{prefix}/valid"]),
        test_entity_pairs=_pair_list(arrays[f"{prefix}/test"]),
    )
