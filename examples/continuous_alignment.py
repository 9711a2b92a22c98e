"""Continuous alignment: ingest a delta, retrain only what it touched, hot-swap.

The end-to-end incremental-update path over a drifting knowledge-graph pair:

1. train a partition-parallel alignment campaign, save it and serve it,
2. describe KG drift as an immutable :class:`repro.KGDelta`,
3. ``PartitionedCampaign.apply_update`` routes the delta through the
   partition membership, warm-starts *only the touched pieces* from their
   checkpoints and re-merges; the updated campaign is saved over the first
   checkpoint and loaded back (restore adopts the saved pieces),
4. ``AlignmentService.hot_swap`` publishes the loaded campaign atomically —
   in-flight queries finish on the snapshot they started with,
5. a pure serving-layer ``apply_delta`` folds one more entity in without any
   retraining at all.

Run with::

    python examples/continuous_alignment.py
"""

import tempfile

import numpy as np

from repro import DAAKGConfig, KGDelta, PartitionConfig, PartitionedCampaign, serve
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.datasets import make_large_world_pair
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.elements import ElementKind
from repro.kg.pair import SplitRatios
from repro.utils.logging import enable_console_logging


def build_campaign() -> PartitionedCampaign:
    pair = make_large_world_pair(
        160,
        num_relations=8,
        mean_out_degree=4.0,
        seed=0,
        shared_topology=True,
        num_communities=2,
        inter_community_fraction=0.05,
    )
    pair.split_entity_matches(SplitRatios(train=0.3, valid=0.1, test=0.6), seed=0)
    config = DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=2),
        alignment=AlignmentTrainingConfig(
            rounds=1,
            epochs_per_round=4,
            num_negatives=4,
            embedding_batches_per_round=1,
            embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=10),
        inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
        similarity_backend="sharded",
        seed=0,
    )
    return PartitionedCampaign(
        pair,
        config,
        strategy="uncertainty",
        active_config=ActiveLearningConfig(batch_size=10, num_batches=1, fine_tune_epochs=2),
        partition=PartitionConfig(num_partitions=2, workers=1, executor="serial"),
    )


def drift_delta(campaign: PartitionedCampaign) -> KGDelta:
    """One localised drift batch: a new gold-linked entity pair in piece 0."""
    piece = campaign.partition.pieces[0]
    anchor_1 = piece.pair.kg1.entities[0]
    anchor_2 = piece.pair.kg2.entities[0]
    relation_1 = campaign.dataset.kg1.relations[0]
    relation_2 = campaign.dataset.kg2.relations[0]
    return KGDelta(
        added_entities_1=("lw1:fresh",),
        added_entities_2=("lw2:fresh",),
        added_triples_1=(("lw1:fresh", relation_1, anchor_1),),
        added_triples_2=(("lw2:fresh", relation_2, anchor_2),),
        added_gold_links=(("lw1:fresh", "lw2:fresh"),),
    )


def main() -> None:
    enable_console_logging()
    with tempfile.TemporaryDirectory(prefix="continuous-alignment-") as checkpoint:
        run(checkpoint)


def run(checkpoint: str) -> None:
    # 1. Train the campaign, checkpoint it and serve the merged state.
    campaign = build_campaign()
    campaign.run()
    campaign.save(checkpoint)
    service = serve(campaign)
    shape = f"{service.num_entities(1)}x{service.num_entities(2)}"
    print(f"Serving {shape} entities, token {service.state_token}")

    # 2-3. Ingest a delta: routing retrains only the touched piece, warm.
    delta = drift_delta(campaign)
    report = campaign.apply_update(delta)
    statuses = {piece.index: piece.status for piece in report.result.partition_results}
    print(f"Delta {report.delta_summary} touched pieces {list(report.touched)}")
    print(f"Piece statuses after the warm retrain: {statuses}")
    print(f"Routing took {report.route_seconds * 1e3:.1f} ms, update {report.seconds:.1f} s")

    # The updated campaign replaces the first checkpoint in the same directory
    # and loads back with the evolved pieces it was saved with.
    campaign.save(checkpoint)
    loaded = PartitionedCampaign.load(checkpoint)
    live_top = campaign.merged_state().top_k(ElementKind.ENTITY, 5)
    loaded_top = loaded.merged_state().top_k(ElementKind.ENTITY, 5)
    assert all(np.array_equal(a, b) for a, b in zip(live_top, loaded_top))
    print("Reloaded the updated campaign: its merged top-5 equals the live one's")

    # 4. Publish the loaded campaign without dropping a request.
    before = service.state_token
    after = service.hot_swap(loaded)
    ranked = service.top_k_alignments(["lw1:fresh"], k=3)[0]
    best = ", ".join(f"{name} ({score:.3f})" for name, score in ranked)
    print(f"Hot-swapped {before} -> {after}; lw1:fresh now answers: {best}")

    # 5. Serving-layer growth without retraining: fold one entity straight
    # into the merged snapshot.
    relation_2 = campaign.dataset.kg2.relations[0]
    fold = KGDelta.single_entity("lw2:cold", [("lw2:cold", relation_2, "lw2:fresh")], side=2)
    fold_report = service.apply_delta(fold)[0]
    score = service.score_pairs([("lw1:fresh", "lw2:cold")])[0]
    fold_ms = fold_report.seconds * 1e3
    print(f"Folded lw2:cold in {fold_ms:.1f} ms without retraining")
    print(f"score(lw1:fresh, lw2:cold) = {score:.3f}")


if __name__ == "__main__":
    main()
