"""Incremental updates: deltas, routing, warm-start retrains, serving growth.

The contracts under test:

* :class:`KGDelta` is validated and immutable; ``pair.apply_delta`` is pure
  (vocabulary append-only, the input pair untouched);
* :func:`route_delta` touches exactly the pieces a delta's endpoints live
  in — one-piece deltas retrain one piece, a cross-piece gold link triggers
  both affected pieces and only those;
* an incremental campaign resumed from disk is byte-identical to one that
  never stopped (warm-start transplant is a pure function of checkpoint
  bytes + updated pair + config);
* serving absorbs pure-growth deltas — merged campaign snapshots included
  (per-piece fold contexts) — and refuses what genuinely needs a retrain.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro import (
    DAAKG,
    DAAKGConfig,
    KGDelta,
    PartitionConfig,
    PartitionedCampaign,
    serve,
)
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.core.daakg import augment_working_kgs
from repro.datasets import make_large_world_pair
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.elements import ElementKind
from repro.kg.graph import KnowledgeGraph
from repro.kg.pair import SplitRatios
from repro.kg.partition import partition_pair
from repro.persistence.checkpoint import load_checkpoint, save_checkpoint
from repro.serving import AlignmentService, ServingFrontend
from repro.serving.service import ServingError
from repro.updates import DeltaError, route_delta, warm_start_pipeline

NUM_ENTITIES = 160
NUM_COMMUNITIES = 2


def world_pair():
    pair = make_large_world_pair(
        NUM_ENTITIES,
        num_relations=6,
        mean_out_degree=4.0,
        seed=0,
        shared_topology=True,
        num_communities=NUM_COMMUNITIES,
        inter_community_fraction=0.05,
    )
    pair.split_entity_matches(SplitRatios(train=0.3, valid=0.1, test=0.6), seed=0)
    return pair


def small_config() -> DAAKGConfig:
    return DAAKGConfig(
        base_model="transe",
        entity_dim=12,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=2),
        alignment=AlignmentTrainingConfig(
            rounds=1, epochs_per_round=3, num_negatives=3,
            embedding_batches_per_round=1, embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=10),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        seed=0,
    )


def small_loop() -> ActiveLearningConfig:
    return ActiveLearningConfig(batch_size=8, num_batches=1, fine_tune_epochs=2)


def make_campaign(num_partitions: int = NUM_COMMUNITIES) -> PartitionedCampaign:
    return PartitionedCampaign(
        world_pair(),
        small_config(),
        strategy="uncertainty",
        active_config=small_loop(),
        partition=PartitionConfig(num_partitions=num_partitions, workers=1, executor="serial"),
    )


def piece_of(campaign: PartitionedCampaign, name: str, side: int) -> int:
    membership = campaign.partition.membership()[side - 1]
    return membership[name]


def growth_delta(pair, piece_kg1_entity: str, piece_kg2_entity: str) -> KGDelta:
    """One new gold-linked entity pair attached next to the given anchors."""
    return KGDelta(
        added_entities_1=("lw1:new",),
        added_entities_2=("lw2:new",),
        added_triples_1=(("lw1:new", pair.kg1.relations[0], piece_kg1_entity),),
        added_triples_2=(("lw2:new", pair.kg2.relations[0], piece_kg2_entity),),
        added_gold_links=(("lw1:new", "lw2:new"),),
    )


@pytest.fixture(scope="module")
def trained_campaign() -> PartitionedCampaign:
    campaign = make_campaign()
    campaign.run()
    return campaign


# ------------------------------------------------------------------- deltas
def test_delta_validation():
    with pytest.raises(DeltaError, match="duplicate"):
        KGDelta(added_entities_1=("a", "a"))
    with pytest.raises(DeltaError, match="added and removed"):
        KGDelta(added_triples_1=(("a", "r", "b"),), removed_triples_1=(("a", "r", "b"),))
    with pytest.raises(DeltaError, match="added and retracted"):
        KGDelta(added_gold_links=(("a", "b"),), retracted_gold_links=(("a", "b"),))
    with pytest.raises(DeltaError, match="left endpoints"):
        KGDelta(added_gold_links=(("a", "b"), ("a", "c")))
    with pytest.raises(DeltaError, match="side"):
        KGDelta.single_entity("x", [("x", "r", "y")], side=3)
    assert KGDelta.empty().is_empty
    delta = KGDelta.single_entity("x", [("x", "r", "y")])
    assert not delta.is_empty
    assert delta.summary()["added_entities_2"] == 1
    assert delta.entities(2) == ("x",)
    assert delta.triples(2) == (("x", "r", "y"),)


def test_apply_delta_is_pure_and_append_only():
    pair = world_pair()
    before_entities = list(pair.kg1.entities)
    before_triples = len(pair.kg1.triples)
    victim = pair.kg1.triples[0].as_tuple()
    delta = KGDelta(
        added_entities_1=("lw1:new",),
        added_triples_1=(("lw1:new", "brand_new_relation", before_entities[3]),),
        removed_triples_1=(victim,),
    )
    updated = pair.apply_delta(delta)
    # purity: the input pair is untouched
    assert list(pair.kg1.entities) == before_entities
    assert len(pair.kg1.triples) == before_triples
    # append-only vocabulary: old ids survive, new names at the end
    assert updated.kg1.entities[: len(before_entities)] == before_entities
    assert updated.kg1.entities[-1] == "lw1:new"
    assert updated.kg1.relations[-1] == "brand_new_relation"
    assert victim not in {t.as_tuple() for t in updated.kg1.triples}


def test_apply_delta_gold_links_and_errors():
    pair = world_pair()
    a, b = pair.entity_alignment.pairs[0]
    updated = pair.apply_delta(
        KGDelta(
            added_entities_1=("lw1:new",),
            added_entities_2=("lw2:new",),
            added_triples_1=(("lw1:new", pair.kg1.relations[0], pair.kg1.entities[0]),),
            added_triples_2=(("lw2:new", pair.kg2.relations[0], pair.kg2.entities[0]),),
            retracted_gold_links=((a, b),),
            added_gold_links=(("lw1:new", "lw2:new"),),
        )
    )
    assert (a, b) not in updated.entity_alignment
    assert ("lw1:new", "lw2:new") in updated.entity_alignment
    # a freshly asserted link is supervision: it joins the train split
    assert ("lw1:new", "lw2:new") in updated.train_entity_pairs
    assert (a, b) not in updated.train_entity_pairs
    assert (a, b) not in updated.test_entity_pairs
    with pytest.raises(DeltaError, match="already exists"):
        pair.apply_delta(KGDelta(added_entities_1=(pair.kg1.entities[0],)))
    with pytest.raises(DeltaError, match="does not exist"):
        pair.apply_delta(KGDelta(removed_triples_1=(("no", "such", "triple"),)))
    with pytest.raises(DeltaError, match="already has a gold counterpart"):
        pair.apply_delta(KGDelta(added_gold_links=((a, pair.kg2.entities[1]),)))


# ------------------------------------------------------------------ routing
def test_route_delta_single_piece():
    pair = world_pair()
    partition = partition_pair(pair, PartitionConfig(num_partitions=2))
    membership_1, _ = partition.membership()
    anchor = partition.pieces[0].pair.kg1.entities[0]
    assert membership_1[anchor] == 0
    delta = KGDelta(
        added_entities_1=("lw1:new",),
        added_triples_1=(("lw1:new", pair.kg1.relations[0], anchor),),
    )
    routing = route_delta(partition, delta)
    assert routing.touched == (0,)
    assert set(routing.piece_deltas) == {0}
    assert routing.assignments_1 == {"lw1:new": 0}
    assert route_delta(partition, KGDelta.empty()).touched == ()


def test_route_delta_cross_piece_gold_link_touches_both_and_only_those():
    pair = world_pair()
    partition = partition_pair(pair, PartitionConfig(num_partitions=4))
    membership_1, membership_2 = partition.membership()
    # two existing gold pairs living in different pieces
    links = sorted(pair.entity_alignment.pairs)
    (a1, b1) = next(p for p in links if membership_1[p[0]] == 0)
    (a2, b2) = next(p for p in links if membership_1[p[0]] not in (0, membership_2[b1]))
    delta = KGDelta(
        retracted_gold_links=((a1, b1), (a2, b2)),
        added_gold_links=((a1, b2),),  # the new link crosses two pieces
    )
    routing = route_delta(partition, delta)
    assert set(routing.touched) == {membership_1[a1], membership_1[a2]}
    # the cross-piece link appears in NEITHER piece delta (cut semantics)
    for piece_delta in routing.piece_deltas.values():
        assert (a1, b2) not in piece_delta.added_gold_links
    with pytest.raises(DeltaError, match="unknown KG1 entity"):
        route_delta(partition, KGDelta(added_triples_1=(("ghost", "r", a1),)))


# ----------------------------------------------------------- campaign update
def test_apply_update_retrains_exactly_touched_piece(trained_campaign):
    campaign = trained_campaign
    anchor_1 = campaign.partition.pieces[0].pair.kg1.entities[0]
    anchor_2 = campaign.partition.pieces[0].pair.kg2.entities[0]
    touched_piece = piece_of(campaign, anchor_1, side=1)
    baseline = campaign.evaluate()["entity"].hits_at_1
    report = campaign.apply_update(growth_delta(campaign.dataset, anchor_1, anchor_2))
    assert report.touched == (touched_piece,)
    statuses = {r.index: r.status for r in report.result.partition_results}
    assert statuses[touched_piece] == "completed"
    for index, status in statuses.items():
        if index != touched_piece:
            assert status == "skipped"  # untouched pieces were not retrained
    assert "lw1:new" in campaign.dataset.kg1.entity_index
    # the updated campaign still merges, evaluates and serves the new entity
    after = campaign.evaluate()["entity"].hits_at_1
    assert abs(after - baseline) <= 0.25
    service = serve(campaign)
    assert service.num_entities(1) == campaign.dataset.kg1.num_entities
    assert service.top_k_alignments(["lw1:new"], k=1)[0]
    # empty deltas are a no-op
    empty = campaign.apply_update(KGDelta.empty())
    assert empty.touched == () and empty.result is None


def held_kgs(root) -> list[KnowledgeGraph]:
    """Every KG reachable from ``root`` through repro objects and containers."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, np.ndarray)):
            continue
        seen.add(id(obj))
        if isinstance(obj, KnowledgeGraph):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


def test_apply_update_keeps_kgs_array_only():
    """The update path derives every KG from index arrays: after an update no
    KG the campaign or its pieces hold has built its ``Triple`` objects."""
    campaign = make_campaign()
    campaign.run()
    anchor_1 = campaign.partition.pieces[1].pair.kg1.entities[0]
    anchor_2 = campaign.partition.pieces[1].pair.kg2.entities[0]
    campaign.apply_update(growth_delta(campaign.dataset, anchor_1, anchor_2))
    kgs = held_kgs(campaign)
    # both datasets, both pieces, and the touched and untouched pipelines
    assert len(kgs) >= 12
    assert campaign.dataset.kg1 in kgs and "lw1:new" in campaign.dataset.kg1.entity_index
    for kg in kgs:
        assert kg._triples is None and kg._type_triples is None, kg


def test_resumed_incremental_campaign_byte_identical(tmp_path):
    anchor_pair = world_pair()
    anchor_1 = anchor_pair.kg1.entities[1]
    anchor_2 = anchor_pair.kg2.entities[1]
    d1 = growth_delta(anchor_pair, anchor_1, anchor_2)
    d2 = KGDelta(
        added_triples_1=(("lw1:new", anchor_pair.kg1.relations[1], anchor_1),),
    )

    straight = make_campaign()
    straight.run()
    straight.apply_update(d1)
    straight.apply_update(d2)

    interrupted = make_campaign()
    interrupted.run()
    interrupted.apply_update(d1)
    interrupted.save(str(tmp_path / "mid-update"))
    resumed = PartitionedCampaign.load(str(tmp_path / "mid-update"))
    resumed.apply_update(d2)

    a = straight.merged_state().matrix(ElementKind.ENTITY)
    b = resumed.merged_state().matrix(ElementKind.ENTITY)
    assert a.shape == b.shape
    assert np.array_equal(a, b)  # byte-identical, not merely close
    for left, right in zip(straight.loops, resumed.loops):
        assert [r.selected for r in left.records] == [r.selected for r in right.records]


def test_crashed_resave_keeps_previous_checkpoint_loadable(tmp_path, monkeypatch):
    """A re-save that dies mid-way leaves the previous generation intact."""
    import repro.persistence.campaign as campaign_persistence

    campaign = make_campaign()
    campaign.run()
    path = tmp_path / "campaign"
    campaign.save(path)
    saved_records = [[r.selected for r in loop.records] for loop in campaign.loops]
    saved_entities = list(campaign.dataset.kg1.entities)
    pair = campaign.dataset
    campaign.apply_update(growth_delta(pair, pair.kg1.entities[1], pair.kg2.entities[1]))

    def crash(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(campaign_persistence, "save_checkpoint", crash)
    with pytest.raises(OSError, match="disk full"):
        campaign.save(path)
    monkeypatch.undo()

    restored = PartitionedCampaign.load(path)
    assert restored.dataset.kg1.entities == saved_entities
    assert [[r.selected for r in loop.records] for loop in restored.loops] == saved_records


# --------------------------------------------------------------- warm start
def test_warm_start_transplants_rows_by_name(tmp_path):
    pair = world_pair()
    config = small_config()
    pipeline = DAAKG(pair, config)
    pipeline.fit()
    save_checkpoint(tmp_path / "old", pipeline)

    updated = pair.apply_delta(
        KGDelta(
            added_entities_1=("lw1:new",),
            added_triples_1=(("lw1:new", "fresh_relation", pair.kg1.entities[0]),),
        )
    )
    fresh = DAAKG(updated, config)
    counts = warm_start_pipeline(fresh, load_checkpoint(tmp_path / "old"))
    # the new relation shifts every inverse-relation index, so relation
    # parameters must be row-mapped, not copied
    assert counts["row_mapped"] >= 1
    assert counts["copied"] >= 1

    old_kg1, _, _ = augment_working_kgs(pair, config)
    new_kg1, _, _ = augment_working_kgs(updated, config)
    old_state = load_checkpoint(tmp_path / "old").section("model")
    new_state = fresh.model.state_dict()
    for key in old_state:
        if key.startswith("model1.") and old_state[key].shape[0] == len(old_kg1.relations):
            for name in old_kg1.relations:
                np.testing.assert_array_equal(
                    new_state[key][new_kg1.relation_index[name]],
                    old_state[key][old_kg1.relation_index[name]],
                )
            break
    else:  # pragma: no cover - config without relation-sized parameters
        pytest.fail("no relation-vocabulary parameter found to verify")


# ------------------------------------------------------------------ serving
def test_serving_apply_delta_merged_snapshot(trained_campaign):
    service = serve(trained_campaign)
    assert len(service._state.pieces) == trained_campaign.num_partitions
    pair = trained_campaign.dataset
    anchor = trained_campaign.partition.pieces[0].pair.kg2.entities[0]
    owner_piece = piece_of(trained_campaign, anchor, side=2)
    token_before = service.state_token
    reports = service.apply_delta(
        KGDelta(
            added_entities_2=("lw2:cold",),
            added_triples_2=(("lw2:cold", pair.kg2.relations[0], anchor),),
        )
    )
    assert [r.name for r in reports] == ["lw2:cold"]
    assert service.state_token != token_before
    # the folded column is the owning piece's embedding channel, zero for
    # rows of every other piece (no cross-piece evidence)
    foreign = next(
        piece.pair.kg1.entities[0]
        for piece in trained_campaign.partition.pieces
        if piece.index != owner_piece
    )
    local = trained_campaign.partition.pieces[owner_piece].pair.kg1.entities[0]
    scores = service.score_pairs([(foreign, "lw2:cold"), (local, "lw2:cold")])
    assert scores[0] == 0.0
    assert scores[1] != 0.0
    # a second fold can neighbour on the first
    service.apply_delta(
        KGDelta(
            added_entities_2=("lw2:cold2",),
            added_triples_2=(("lw2:cold2", pair.kg2.relations[0], "lw2:cold"),),
        )
    )
    assert service.num_entities(2) == len(service._state.entity_names_2)


def test_serving_apply_delta_refuses_non_growth(trained_campaign):
    service = serve(trained_campaign)
    pair = trained_campaign.dataset
    victim = pair.kg1.triples[0].as_tuple()
    with pytest.raises(ServingError, match="retrain"):
        service.apply_delta(KGDelta(removed_triples_1=(victim,)))
    gold = pair.entity_alignment.pairs[0]
    with pytest.raises(ServingError, match="retrain"):
        service.apply_delta(KGDelta(retracted_gold_links=(gold,)))
    with pytest.raises(ServingError, match="existing"):
        service.apply_delta(
            KGDelta(added_triples_1=((pair.kg1.entities[0], pair.kg1.relations[0],
                                      pair.kg1.entities[1]),))
        )
    with pytest.raises(ServingError, match="no side-2 triples"):
        service.apply_delta(KGDelta(added_entities_2=("lw2:orphan",)))


def test_serving_fold_spanning_pieces_is_refused(trained_campaign):
    service = serve(trained_campaign)
    pieces = trained_campaign.partition.pieces
    a = pieces[0].pair.kg2.entities[0]
    b = pieces[1].pair.kg2.entities[0]
    relation = trained_campaign.dataset.kg2.relations[0]
    with pytest.raises(ServingError, match="spans multiple partitions"):
        service.apply_delta(
            KGDelta(
                added_entities_2=("lw2:spanner",),
                added_triples_2=(("lw2:spanner", relation, a), ("lw2:spanner", relation, b)),
            )
        )


def test_single_entity_delta_folds_and_rejects(trained_campaign):
    service = serve(trained_campaign)
    anchor = trained_campaign.partition.pieces[0].pair.kg2.entities[1]
    relation = trained_campaign.dataset.kg2.relations[0]
    (report,) = service.apply_delta(
        KGDelta.single_entity("lw2:single", [("lw2:single", relation, anchor)])
    )
    assert report.name == "lw2:single"
    assert report.side == 2
    with pytest.raises(DeltaError, match="side"):
        KGDelta.single_entity("x", [("x", relation, anchor)], side=3)
    with pytest.raises(ServingError, match="at least one triple"):
        service.apply_delta(KGDelta.single_entity("x", []))


def test_snapshot_without_pieces_raises(trained_campaign):
    # every snapshot folds against at least one piece context: a snapshot
    # that ships matrices only cannot be built
    state = serve(trained_campaign)._state
    with pytest.raises(ValueError, match="at least one fold context"):
        dc_replace(state, pieces=())


# ------------------------------------------------------------- serve() entry
def test_serve_unified_entry_point(trained_campaign, tmp_path):
    campaign_service = serve(trained_campaign)
    assert isinstance(campaign_service, AlignmentService)

    pipeline = trained_campaign.pipeline(0)
    assert isinstance(serve(pipeline), AlignmentService)

    save_checkpoint(tmp_path / "pipeline", pipeline)
    from_ckpt = serve(tmp_path / "pipeline")
    assert from_ckpt.state_token.startswith("ckpt-")

    trained_campaign.save(str(tmp_path / "campaign"))
    from_campaign_dir = serve(tmp_path / "campaign")
    assert from_campaign_dir.num_entities(1) == campaign_service.num_entities(1)

    front = serve(trained_campaign, frontend=True)
    try:
        assert isinstance(front, ServingFrontend)
        uri = trained_campaign.dataset.kg1.entities[0]
        answer = front.submit_top_k(uri, k=2).result(timeout=10.0)
        assert len(answer) == 2
    finally:
        front.stop()
