"""Shared fixtures: small KGs and a tiny trained pipeline for integration tests.

BLAS runs on one thread, as in the repository benchmark (``perfbench``):
threading changes reduction order, so results as well as timings.  OpenBLAS
reads its thread count once, when NumPy loads, so the variables are set
before anything imports NumPy, and a session that loaded NumPy earlier
stops here instead of running unpinned.
"""

from __future__ import annotations

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "NumPy was imported before tests/conftest.py could pin BLAS to one thread; "
        "run the tier-1 suite on its own (python -m pytest)"
    )
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import pytest  # noqa: E402

from repro import DAAKG, DAAKGConfig, make_benchmark  # noqa: E402
from repro.alignment.trainer import AlignmentTrainingConfig  # noqa: E402
from repro.embedding.trainer import EmbeddingTrainingConfig  # noqa: E402
from repro.active.pool import PoolConfig  # noqa: E402
from repro.inference.power import InferencePowerConfig  # noqa: E402
from repro.kg.elements import ElementKind  # noqa: E402
from repro.kg.graph import KnowledgeGraph  # noqa: E402
from repro.kg.pair import AlignedKGPair, GoldAlignment, SplitRatios  # noqa: E402


@pytest.fixture(scope="session")
def tiny_kg() -> KnowledgeGraph:
    """A hand-written KG with entities, relations, classes and type triples."""
    return KnowledgeGraph.from_triples(
        "tiny",
        triples=[
            ("a", "likes", "b"),
            ("a", "knows", "c"),
            ("b", "likes", "c"),
            ("c", "locatedIn", "d"),
            ("e", "locatedIn", "d"),
            ("b", "knows", "e"),
        ],
        type_triples=[
            ("a", "Person"),
            ("b", "Person"),
            ("c", "Person"),
            ("d", "Place"),
            ("e", "Place"),
        ],
    )


@pytest.fixture(scope="session")
def tiny_pair() -> AlignedKGPair:
    """Two tiny isomorphic-ish KGs with gold matches at every level."""
    kg1 = KnowledgeGraph.from_triples(
        "left",
        triples=[
            ("l:a", "l:likes", "l:b"),
            ("l:b", "l:likes", "l:c"),
            ("l:a", "l:bornIn", "l:x"),
            ("l:b", "l:bornIn", "l:y"),
            ("l:c", "l:bornIn", "l:x"),
        ],
        type_triples=[("l:a", "l:Person"), ("l:b", "l:Person"), ("l:c", "l:Person"),
                      ("l:x", "l:City"), ("l:y", "l:City")],
    )
    kg2 = KnowledgeGraph.from_triples(
        "right",
        triples=[
            ("r:1", "r:fondOf", "r:2"),
            ("r:2", "r:fondOf", "r:3"),
            ("r:1", "r:birthPlace", "r:10"),
            ("r:2", "r:birthPlace", "r:11"),
            ("r:3", "r:birthPlace", "r:10"),
        ],
        type_triples=[("r:1", "r:Human"), ("r:2", "r:Human"), ("r:3", "r:Human"),
                      ("r:10", "r:Town"), ("r:11", "r:Town")],
    )
    pair = AlignedKGPair(
        name="tiny-pair",
        kg1=kg1,
        kg2=kg2,
        entity_alignment=GoldAlignment(
            ElementKind.ENTITY,
            [("l:a", "r:1"), ("l:b", "r:2"), ("l:c", "r:3"), ("l:x", "r:10"), ("l:y", "r:11")],
        ),
        relation_alignment=GoldAlignment(
            ElementKind.RELATION, [("l:likes", "r:fondOf"), ("l:bornIn", "r:birthPlace")]
        ),
        class_alignment=GoldAlignment(
            ElementKind.CLASS, [("l:Person", "r:Human"), ("l:City", "r:Town")]
        ),
    )
    pair.split_entity_matches(SplitRatios(train=0.4, valid=0.0, test=0.6), seed=0)
    return pair


@pytest.fixture(scope="session")
def small_benchmark() -> AlignedKGPair:
    """A scaled-down D-W style benchmark pair (≈150 entities)."""
    return make_benchmark("D-W", scale=0.15, seed=0)


@pytest.fixture(scope="session")
def fast_config() -> DAAKGConfig:
    """A DAAKG config sized for unit/integration tests (seconds, not minutes)."""
    return DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=4),
        alignment=AlignmentTrainingConfig(
            rounds=2, epochs_per_round=10, num_negatives=5,
            embedding_batches_per_round=2, embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=20),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=0,
    )


@pytest.fixture(scope="session")
def fitted_pipeline(small_benchmark, fast_config) -> DAAKG:
    """A DAAKG pipeline fitted once and reused by integration tests."""
    pipeline = DAAKG(small_benchmark, fast_config)
    pipeline.fit()
    return pipeline


@pytest.fixture()
def tile_products(monkeypatch) -> list[int]:
    """Count :meth:`CosineChannels.tile` calls that multiply factors.

    A call on channels without a kept tile computes products; a call on
    channels with one only slices it.  Read the count as ``tile_products[0]``.
    """
    from repro.runtime.streaming import CosineChannels

    products = [0]
    original = CosineChannels.tile

    def counting(self, rows, cols):
        if self._kept is None:
            products[0] += 1
        return original(self, rows, cols)

    monkeypatch.setattr(CosineChannels, "tile", counting)
    return products
