"""Partition-parallel campaigns: partitioner invariants, merge parity, resume.

The load-bearing guarantees:

* the partitioner covers every entity exactly once and never cuts a gold
  entity match;
* a **single-partition** campaign is bit-exact with the monolithic pipeline —
  merged ``top_k`` / ``evaluate_alignment_from_engine`` / mining reproduce the
  monolithic sharded engine's results exactly;
* at ``k`` partitions the campaign is deterministic for **any worker count**;
* campaign checkpoints resume to the identical record sequence, and the
  merged state serves through :class:`AlignmentService` (hot-swap included).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DAAKG,
    DAAKGConfig,
    KGDelta,
    PartitionConfig,
    PartitionedCampaign,
    make_benchmark,
)
from repro.active.campaign import piece_seed
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.evaluation import evaluate_alignment_from_engine
from repro.alignment.semi_supervised import mine_potential_matches_from_engine
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.elements import ElementKind
from repro.kg.partition import partition_pair
from repro.serving import serve
from repro.serving.service import ServingError

SCALE = 0.25
KINDS = (ElementKind.ENTITY, ElementKind.RELATION, ElementKind.CLASS)


def campaign_pair():
    return make_benchmark("D-W", scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def campaign_config() -> DAAKGConfig:
    return DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=3),
        alignment=AlignmentTrainingConfig(
            rounds=2, epochs_per_round=8, num_negatives=5,
            embedding_batches_per_round=2, embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=20),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=0,
    )


@pytest.fixture(scope="module")
def loop_config() -> ActiveLearningConfig:
    return ActiveLearningConfig(batch_size=10, num_batches=2, fine_tune_epochs=5)


def run_campaign(config, loop_config, num_partitions, workers) -> PartitionedCampaign:
    campaign = PartitionedCampaign(
        campaign_pair(),
        config,
        strategy="uncertainty",
        active_config=loop_config,
        partition=PartitionConfig(num_partitions=num_partitions, workers=workers),
    )
    campaign.run()
    return campaign


@pytest.fixture(scope="module")
def monolithic(campaign_config, loop_config) -> DAAKG:
    pipeline = DAAKG(campaign_pair(), campaign_config)
    pipeline.fit()
    pipeline.active_learning("uncertainty", loop_config).run()
    return pipeline


@pytest.fixture(scope="module")
def single_partition_campaign(campaign_config, loop_config) -> PartitionedCampaign:
    return run_campaign(campaign_config, loop_config, num_partitions=1, workers=1)


@pytest.fixture(scope="module")
def multi_campaign(campaign_config, loop_config) -> PartitionedCampaign:
    return run_campaign(campaign_config, loop_config, num_partitions=3, workers=1)


# ------------------------------------------------------------- partitioner
def test_partitioner_covers_everything_once():
    pair = campaign_pair()
    partition = partition_pair(pair, PartitionConfig(num_partitions=4))
    seen_1: list[str] = []
    seen_2: list[str] = []
    matches = 0
    for piece in partition.pieces:
        seen_1.extend(piece.pair.kg1.entities)
        seen_2.extend(piece.pair.kg2.entities)
        matches += len(piece.pair.entity_alignment)
    assert sorted(seen_1) == sorted(pair.kg1.entities)
    assert len(set(seen_1)) == len(seen_1)
    assert sorted(seen_2) == sorted(pair.kg2.entities)
    assert matches == len(pair.entity_alignment)  # no gold match is ever cut
    # piece vocabularies keep the original vocabularies' order
    for piece in partition.pieces:
        ids = [pair.kg1.entity_id(name) for name in piece.pair.kg1.entities]
        assert ids == sorted(ids)


def test_partitioner_is_deterministic():
    pair = campaign_pair()
    a = partition_pair(pair, PartitionConfig(num_partitions=4))
    b = partition_pair(pair, PartitionConfig(num_partitions=4))
    for pa, pb in zip(a.pieces, b.pieces):
        assert pa.pair.kg1.entities == pb.pair.kg1.entities
        assert pa.pair.kg2.entities == pb.pair.kg2.entities


def test_single_partition_is_the_original_pair():
    pair = campaign_pair()
    partition = partition_pair(pair, PartitionConfig(num_partitions=1))
    assert partition.pieces[0].pair is pair


def test_piece_seed_contract():
    assert piece_seed(7, 0, 1) == 7  # single partition == monolithic seed
    seeds = {piece_seed(7, i, 4) for i in range(4)}
    assert len(seeds) == 4


# ---------------------------------------------------- 1-partition bit parity
def test_merged_single_partition_top_k_bit_equal(monolithic, single_partition_campaign):
    merged = single_partition_campaign.merged_state()
    engine = monolithic.model.similarity
    for kind in KINDS:
        table_m = merged.top_k_table(kind, 5)
        table_e = engine.top_k_table(kind, 5)
        assert np.array_equal(table_m.left_indices, table_e.left_indices)
        assert np.array_equal(table_m.left_values, table_e.left_values)
        assert np.array_equal(table_m.right_indices, table_e.right_indices)
        assert np.array_equal(table_m.right_values, table_e.right_values)


def test_merged_single_partition_evaluation_bit_equal(
    monolithic, single_partition_campaign
):
    merged = single_partition_campaign.merged_state()
    engine = monolithic.model.similarity
    pair = monolithic.dataset
    gold = {
        ElementKind.ENTITY: pair.entity_match_ids(pair.test_entity_pairs),
        ElementKind.RELATION: pair.relation_match_ids(),
        ElementKind.CLASS: pair.class_match_ids(),
    }
    for kind in KINDS:
        assert evaluate_alignment_from_engine(
            merged, kind, gold[kind]
        ) == evaluate_alignment_from_engine(engine, kind, gold[kind])
    # the campaign-level evaluate() helper agrees with DAAKG.evaluate
    assert single_partition_campaign.evaluate() == monolithic.evaluate()


def test_merged_single_partition_mining_bit_equal(monolithic, single_partition_campaign):
    merged = single_partition_campaign.merged_state()
    engine = monolithic.model.similarity
    for kind, threshold in ((ElementKind.ENTITY, 0.8), (ElementKind.RELATION, 0.5)):
        assert mine_potential_matches_from_engine(
            merged, kind, threshold
        ) == mine_potential_matches_from_engine(engine, kind, threshold)


def test_merged_single_partition_matrix_bit_equal(monolithic, single_partition_campaign):
    merged = single_partition_campaign.merged_state()
    engine = monolithic.model.similarity
    for kind in KINDS:
        assert np.array_equal(merged.matrix(kind), engine.matrix(kind))


# ------------------------------------------------------- k-partition merging
def test_merged_block_structure(multi_campaign):
    """In-block values equal the piece similarity (clipped at 0); cross-block 0."""
    merged = multi_campaign.merged_state()
    matrix = merged.matrix(ElementKind.ENTITY)
    covered = np.zeros(matrix.shape, dtype=bool)
    for index in range(multi_campaign.num_partitions):
        pipeline = multi_campaign.pipeline(index)
        piece_matrix = pipeline.model.similarity.matrix(ElementKind.ENTITY)
        rows = np.array(
            [multi_campaign.dataset.kg1.entity_id(e) for e in pipeline.model.kg1.entities]
        )
        cols = np.array(
            [multi_campaign.dataset.kg2.entity_id(e) for e in pipeline.model.kg2.entities]
        )
        block = matrix[np.ix_(rows, cols)]
        assert np.array_equal(block, np.maximum(piece_matrix, 0.0))
        covered[np.ix_(rows, cols)] = True
    assert np.all(matrix[~covered] == 0.0)  # cross-partition entries are exactly zero


def test_campaign_worker_count_determinism(campaign_config, loop_config, multi_campaign):
    """Same records and merged state for any worker count (3 partitions)."""
    parallel = run_campaign(campaign_config, loop_config, num_partitions=3, workers=3)
    for i in range(3):
        a = multi_campaign.loops[i].records
        b = parallel.loops[i].records
        assert [r.selected for r in a] == [r.selected for r in b]
        assert [r.entity_scores for r in a] == [r.entity_scores for r in b]
    for kind in KINDS:
        assert np.array_equal(
            multi_campaign.merged_state().matrix(kind),
            parallel.merged_state().matrix(kind),
        )
    assert multi_campaign.evaluate() == parallel.evaluate()


def test_merged_accuracy_not_degenerate(multi_campaign, monolithic):
    """Partitioned campaigns must stay in the same accuracy regime."""
    merged_h1 = multi_campaign.evaluate()["entity"].hits_at_1
    mono_h1 = monolithic.evaluate()["entity"].hits_at_1
    assert merged_h1 > 0.0
    assert merged_h1 >= mono_h1 - 0.15


# ------------------------------------------------------------- persistence
def test_campaign_checkpoint_roundtrip_and_resume(campaign_config, loop_config, tmp_path):
    first = PartitionedCampaign(
        campaign_pair(),
        campaign_config,
        strategy="uncertainty",
        active_config=loop_config,
        partition=PartitionConfig(num_partitions=3, workers=2),
    )
    first.run(max_batches=1)
    path = tmp_path / "campaign"
    first.save(path)

    import json

    manifest = json.loads((path / "campaign.json").read_text())
    assert manifest["executor"] == first.executor_name
    restored = PartitionedCampaign.load(path)
    assert restored.num_partitions == 3
    assert restored.executor_name == first.executor_name
    first.run()
    restored.run()
    for i in range(3):
        a, b = first.loops[i].records, restored.loops[i].records
        assert [r.selected for r in a] == [r.selected for r in b]
        assert [r.entity_scores for r in a] == [r.entity_scores for r in b]
    assert first.evaluate() == restored.evaluate()


def test_campaign_checkpoint_membership_guard(campaign_config, loop_config, tmp_path):
    """A checkpoint whose partition membership no longer matches must refuse."""
    import json

    from repro.persistence import CheckpointError

    campaign = PartitionedCampaign(
        campaign_pair(),
        campaign_config,
        strategy="uncertainty",
        active_config=loop_config,
        partition=PartitionConfig(num_partitions=2),
    )
    path = tmp_path / "campaign"
    campaign.save(path)
    manifest_path = path / "campaign.json"
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest["membership_sha256"]) == 64
    manifest["membership_sha256"] = "0" * 64  # simulate partitioner drift
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="membership"):
        PartitionedCampaign.load(path)


def test_campaign_checkpoint_before_run(campaign_config, tmp_path):
    campaign = PartitionedCampaign(
        campaign_pair(),
        campaign_config,
        strategy="uncertainty",
        partition=PartitionConfig(num_partitions=2),
    )
    path = tmp_path / "pending"
    campaign.save(path)  # nothing started: every piece is pending
    restored = PartitionedCampaign.load(path)
    assert restored.num_partitions == 2
    assert all(p is None for p in restored.pipelines)
    for saved, loaded in zip(campaign.partition.pieces, restored.partition.pieces):
        assert loaded.pair.kg1.entities == saved.pair.kg1.entities
        assert loaded.pair.kg2.entities == saved.pair.kg2.entities
        assert loaded.pair.entity_alignment.pairs == saved.pair.entity_alignment.pairs


def test_campaign_load_adopts_saved_pieces(campaign_config, loop_config, tmp_path, monkeypatch):
    """Restore never re-runs the partitioner: saved and pending pieces are adopted."""
    import repro.active.campaign as campaign_module

    campaign = PartitionedCampaign(
        campaign_pair(),
        campaign_config,
        strategy="uncertainty",
        active_config=loop_config,
        partition=PartitionConfig(num_partitions=2),
    )
    campaign.pipeline(0).fit()  # piece 0 is saved, piece 1 stays pending
    path = tmp_path / "campaign"
    campaign.save(path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_campaign must not re-partition the dataset")

    monkeypatch.setattr(campaign_module, "partition_pair", refuse)
    restored = PartitionedCampaign.load(path)
    assert restored.pipelines[0] is not None and restored.pipelines[1] is None
    for saved, loaded in zip(campaign.partition.pieces, restored.partition.pieces):
        assert loaded.pair.kg1.entities == saved.pair.kg1.entities
        assert loaded.pair.kg2.entities == saved.pair.kg2.entities


def test_unsupported_campaign_format_version_fails(campaign_config, tmp_path):
    import json
    import shutil

    from repro.persistence import CheckpointError

    campaign = PartitionedCampaign(
        campaign_pair(),
        campaign_config,
        strategy="uncertainty",
        partition=PartitionConfig(num_partitions=2),
    )
    path = tmp_path / "campaign"
    campaign.save(path)
    assert json.loads((path / "campaign.json").read_text())["format_version"] == 6
    # 1 predates the retired ``ann_*`` config keys, 2 the settings that became
    # constants, 3 the retired ``similarity_workers``, 4 the per-generation
    # dataset file and always-written pending sidecars, 5 the retired dense
    # similarity backend; 999 is from the future
    for version in (1, 2, 3, 4, 5, 999):
        other = tmp_path / f"v{version}"
        shutil.copytree(path, other)
        manifest = json.loads((other / "campaign.json").read_text())
        manifest["format_version"] = version
        (other / "campaign.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version"):
            PartitionedCampaign.load(other)


# ------------------------------------------------------------------ serving
def test_serving_merged_state(multi_campaign):
    service = serve(multi_campaign)
    merged = multi_campaign.merged_state()
    matrix = merged.matrix(ElementKind.ENTITY)
    pair = multi_campaign.dataset
    uris = pair.kg1.entities[:4]
    answers = service.top_k_alignments(uris, k=3)
    for row, answer in zip(range(4), answers):
        best_name, best_value = answer[0]
        assert best_value == pytest.approx(matrix[row].max())
        assert matrix[row, pair.kg2.entity_id(best_name)] == pytest.approx(best_value)
    scores = service.score_pairs([(uris[0], pair.kg2.entities[0])])
    assert scores[0] == pytest.approx(matrix[0, 0])
    # merged snapshots carry one fold context per piece; an unknown
    # neighbour is still refused
    assert len(service._state.pieces) == multi_campaign.num_partitions
    with pytest.raises(ServingError):
        service.apply_delta(
            KGDelta.single_entity("brand-new", [("brand-new", "r", "no-such-entity")])
        )


def test_serving_hot_swap_campaign(multi_campaign, single_partition_campaign):
    service = serve(single_partition_campaign)
    before = service.state_token
    after = service.hot_swap(multi_campaign)
    assert after != before
    assert service.state_token == after
