"""The array-native selection layer against the dict-based reference.

``selection_oracle`` holds the selection layer as it was before the move to
integer ids and NumPy arrays (with a rank tie-break among equal gains), with
edge powers computed one edge at a time from dicts.  For TransE and RotatE
the two must agree exactly: the same edges in the same order, the same
partition labels, the same batches and the same RNG state after selection.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selection_oracle as oracle
from repro import DAAKG, DAAKGConfig, make_benchmark
from repro.active.partition import PartitionSelectionConfig, partition_pool, partition_select
from repro.active.pool import PoolConfig, build_pool
from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.alignment_graph import build_alignment_graph
from repro.inference.power import InferencePowerConfig, InferencePowerEstimator

SELECTION = GreedySelectionConfig(batch_size=12, power_threshold=0.5, candidate_limit=300)
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
    probabilities = {q: float(rng.random()) for q in pool.all_pairs}
    pools = (
        pipeline.kg1,
        pipeline.kg2,
        pool.entity_pair_set(),
        {(q.left, q.right) for q in pool.relation_pairs},
        {(q.left, q.right) for q in pool.class_pairs},
    )
    graphs = {"oracle": oracle.build_alignment_graph(*pools), "arrays": build_alignment_graph(*pools)}
    return pipeline, pool, probabilities, graphs


def _estimator(world, side, seed=5):
    pipeline, _, _, graphs = world
    estimator_class = oracle.InferencePowerEstimator if side == "oracle" else InferencePowerEstimator
    estimator = estimator_class(pipeline.model, graphs[side], pipeline.config.inference)
    return estimator, np.random.default_rng(seed)


def test_edges_match_in_order(world):
    graphs = world[3]
    expected = [(e.source, e.relation, e.target) for e in graphs["oracle"].edges]
    graph = graphs["arrays"]
    assert expected
    assert [graph.edge_pairs(i) for i in range(graph.num_edges())] == expected


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
    for pair in pool.all_pairs:
        state.estimator.reachable_power(pair)
    partition_pool(state.graph, state.estimator)
    assert loop.rng.bit_generator.state == before


def test_greedy_batch_and_rng_match(world):
    _, pool, probabilities, _ = world
    results = {}
    for side, select in (("oracle", oracle.greedy_select), ("arrays", greedy_select)):
        estimator, rng = _estimator(world, side)
        batch = select(pool.all_pairs, probabilities, estimator.reachable_power, SELECTION, rng=rng)
        results[side] = (batch, rng.random())
    assert len(results["arrays"][0]) == SELECTION.batch_size
    assert results["arrays"] == results["oracle"]


@pytest.mark.parametrize("max_partitions", MAX_PARTITIONS)
@pytest.mark.parametrize("rho", RHOS)
def test_partition_labels_batch_and_rng_match(world, rho, max_partitions):
    _, pool, probabilities, graphs = world
    config = PartitionSelectionConfig(rho=rho, max_partitions=max_partitions)
    sides = (
        ("oracle", oracle.partition_select, oracle.partition_pool),
        ("arrays", partition_select, partition_pool),
    )
    results, labels = {}, {}
    for side, select, partition in sides:
        estimator, rng = _estimator(world, side)
        batch = select(pool.all_pairs, probabilities, graphs[side], estimator, SELECTION, config, rng=rng)
        results[side] = (batch, rng.random())
        # repeats the labels the selection used
        labels[side] = dict(partition(graphs[side], estimator, config).items())
    assert len(set(labels["arrays"].values())) > 1
    assert labels["arrays"] == labels["oracle"]
    assert len(results["arrays"][0]) == SELECTION.batch_size
    assert results["arrays"] == results["oracle"]


_TIE_SCRIPT = """
from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.inference.pairs import entity_pair
candidates = [entity_pair(i, i) for i in range(40)]
batch = greedy_select(candidates, {q: 0.5 for q in candidates}, lambda q: {},
                      GreedySelectionConfig(batch_size=3), rng=0)
print(",".join(str(q.left) for q in batch))
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
