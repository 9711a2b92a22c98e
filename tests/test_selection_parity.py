"""The array-native selection layer against the dict-based reference.

``selection_oracle`` holds the selection layer as it was before the move to
integer ids and NumPy arrays (with a rank tie-break among equal gains), with
edge powers computed one edge at a time from dicts, and the five strategies
that need no inference power as they were before they moved to pool ids.
The array side addresses a pair by its position in the pool (``pool.pair``).  For
TransE and RotatE the two must agree exactly: the same edges in the same
order, the same partition labels, the same batches and the same RNG state
after selection.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import selection_oracle as oracle
from repro import DAAKG, DAAKGConfig, make_benchmark
from repro.active.partition import PartitionSelectionConfig, partition_pool, partition_select
from repro.active.pool import PoolConfig, build_pool
from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.active.strategies import SelectionState, create_strategy
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.alignment_graph import build_alignment_graph
from repro.inference.power import InferencePowerConfig, InferencePowerEstimator
from repro.kg.elements import ElementKind

BATCH_SIZE = 12
SELECTION = GreedySelectionConfig(power_threshold=0.5, candidate_limit=300)
#: greedy thresholds for Algorithm 2; at 0.8 the quotient reach may keep no group
THRESHOLDS = [0.5, 0.8]
RHOS = [1.0, 0.9, 0.8]
MAX_PARTITIONS = [12, 200]


@pytest.fixture(scope="module", params=["transe", "rotate"])
def world(request):
    pair = make_benchmark("D-W", scale=0.1, seed=0)
    config = DAAKGConfig(
        base_model=request.param,
        entity_dim=8,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=2),
        alignment=AlignmentTrainingConfig(
            rounds=1, epochs_per_round=3, num_negatives=4,
            embedding_batches_per_round=1, embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=10),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=0,
    )
    pipeline = DAAKG(pair, config).fit()
    pool = build_pool(pipeline.model, config.pool)
    rng = np.random.default_rng(1)
    probabilities = {q: float(rng.random()) for q in _pairs(pool)}
    # some pairs tie, so the strategies' tie-breaks are exercised
    for q in _pairs(pool)[::7]:
        probabilities[q] = 0.5
    sides = [pool.sides(kind) for kind in ElementKind]
    kgs = (pipeline.kg1, pipeline.kg2)
    graphs = {
        "oracle": oracle.build_alignment_graph(*kgs, *({*map(tuple, s.tolist())} for s in sides)),
        "arrays": build_alignment_graph(*kgs, *sides),
    }
    return pipeline, pool, probabilities, graphs


def _pairs(pool):
    """Every pool pair as an ``ElementPair``, in id order."""
    return [pool.pair(i) for i in range(len(pool))]


def _estimator(world, side, seed=5):
    pipeline, _, _, graphs = world
    estimator_class = oracle.InferencePowerEstimator if side == "oracle" else InferencePowerEstimator
    estimator = estimator_class(pipeline.model, graphs[side], pipeline.config.inference)
    return estimator, np.random.default_rng(seed)


def _ids(pool, probabilities):
    """The array side's inputs: every pool id, and probabilities by id."""
    pairs = _pairs(pool)
    return np.arange(len(pairs)), np.array([probabilities[q] for q in pairs])


def test_edges_match_in_order(world):
    _, pool, _, graphs = world
    expected = [(e.source, e.relation, e.target) for e in graphs["oracle"].edges]
    graph = graphs["arrays"]
    pairs = _pairs(pool)
    assert expected
    # the graph numbers pairs by their position in the pool
    assert graph.sides.tolist() == [[q.left, q.right] for q in pairs]
    edges = [
        (pairs[source], pairs[graph.relation_offset + relation], pairs[target])
        for source, relation, target in graph.edges.tolist()
    ]
    assert edges == expected


def test_edge_powers_match(world):
    graphs = world[3]
    oracle_estimator, _ = _estimator(world, "oracle")
    expected = [oracle_estimator.edge_power(edge) for edge in graphs["oracle"].edges]
    estimator, _ = _estimator(world, "arrays")
    assert estimator.edge_powers().tolist() == expected


def test_powers_and_reaches_leave_the_loop_rng_alone(world):
    pipeline, pool, _, _ = world
    loop = pipeline.active_learning("daakg")
    state = loop._build_state()
    before = loop.rng.bit_generator.state
    state.estimator.edge_powers()
    state.estimator.reachable_power(np.arange(len(pool)))
    partition_pool(state.graph, state.estimator)
    assert loop.rng.bit_generator.state == before


def test_path_power_matches_every_walk(world):
    """The relaxation's reach equals the oracle's enumeration of every walk
    of at most ``max_hops`` edges: the same pairs, in ascending order, with
    bit-equal powers."""
    _, pool, _, graphs = world
    pairs = _pairs(pool)
    oracle_estimator, _ = _estimator(world, "oracle")
    estimator, _ = _estimator(world, "arrays")
    sources = np.arange(graphs["arrays"].relation_offset)
    table = estimator.path_reach(sources)
    reached = 0
    for source in sources.tolist():
        start, end = table.ptr[source], table.ptr[source + 1]
        expected = oracle_estimator.entity_path_power(pairs[source])
        assert [pairs[i] for i in table.ids[start:end].tolist()] == list(expected)
        assert table.data[start:end].tolist() == list(expected.values())
        reached += end - start
    assert reached


def test_greedy_batch_and_rng_match(world):
    _, pool, probabilities, _ = world
    pairs = _pairs(pool)
    results = {}
    estimator, rng = _estimator(world, "oracle")
    batch = oracle.greedy_select(
        pairs, probabilities, estimator.reachable_power, BATCH_SIZE, SELECTION, rng=rng
    )
    results["oracle"] = (batch, rng.random())
    estimator, rng = _estimator(world, "arrays")
    picks = greedy_select(
        *_ids(pool, probabilities), estimator.reachable_power, BATCH_SIZE, SELECTION, rng=rng
    )
    results["arrays"] = ([pairs[i] for i in picks.tolist()], rng.random())
    assert len(results["arrays"][0]) == BATCH_SIZE
    assert results["arrays"] == results["oracle"]


@pytest.mark.parametrize("max_partitions", MAX_PARTITIONS)
@pytest.mark.parametrize("rho", RHOS)
def test_partition_labels_batch_and_rng_match(world, rho, max_partitions):
    """Labels, batch and RNG state match the oracle at every greedy threshold
    (the quotient reach expands only the groups above it)."""
    _, pool, probabilities, graphs = world
    config = PartitionSelectionConfig(rho=rho, max_partitions=max_partitions)
    pairs = _pairs(pool)
    for threshold in THRESHOLDS:
        selection = replace(SELECTION, power_threshold=threshold)
        results = {}
        estimator, rng = _estimator(world, "oracle")
        batch = oracle.partition_select(
            pairs, probabilities, graphs["oracle"], estimator, BATCH_SIZE, selection, config,
            rng=rng,
        )
        results["oracle"] = (batch, rng.random())
        estimator, rng = _estimator(world, "arrays")
        picks = partition_select(
            *_ids(pool, probabilities), graphs["arrays"], estimator, BATCH_SIZE, selection,
            config, rng=rng,
        )
        results["arrays"] = ([pairs[i] for i in picks.tolist()], rng.random())
        assert len(results["arrays"][0]) == BATCH_SIZE
        assert results["arrays"] == results["oracle"]
    # repeats the labels the selections used
    expected = oracle.partition_pool(graphs["oracle"], _estimator(world, "oracle")[0], config)
    partition = partition_pool(graphs["arrays"], estimator, config)
    labels = dict(zip([pairs[i] for i in partition.ids.tolist()], partition.values()))
    assert len(set(labels.values())) > 1
    assert labels == expected


@pytest.mark.parametrize("name", sorted(oracle.STRATEGIES))
def test_strategy_batch_and_rng_match(world, name):
    pipeline, pool, probabilities, _ = world
    pairs = _pairs(pool)
    labelled = set(pairs[::5])
    unlabelled = [q for q in pairs if q not in labelled]
    old = oracle.SelectionState(
        pool, unlabelled, probabilities, pipeline.model, np.random.default_rng(3)
    )
    expected = oracle.STRATEGIES[name](old, 25)
    ids, by_id = _ids(pool, probabilities)
    state = SelectionState(
        pool=pool,
        candidates=np.array([i for i in ids.tolist() if pairs[i] not in labelled]),
        probabilities=by_id,
        model=pipeline.model,
        rng=np.random.default_rng(3),
    )
    picks = create_strategy(name).select(state, 25)
    assert len(expected) == 25
    assert [pairs[i] for i in picks.tolist()] == expected
    assert state.rng.bit_generator.state == old.rng.bit_generator.state


_TIE_SCRIPT = """
import numpy as np
from repro.active.selection import greedy_select
from repro.inference.alignment_graph import PairValues
def none(ids):
    return PairValues(np.empty(0, dtype=np.int64), np.empty(0), np.zeros(len(ids) + 1, dtype=int))
batch = greedy_select(np.arange(40), np.full(40, 0.5), none, 3, rng=0)
print(",".join(str(q) for q in batch.tolist()))
"""


def test_equal_gains_pick_by_rank_under_any_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    picks = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _TIE_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        picks.add(result.stdout.strip())
    assert picks == {"0,1,2"}
