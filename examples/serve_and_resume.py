"""Checkpointing and serving: fit → save → kill → resume → serve → fold in.

Walks the full persistence + serving lifecycle:

1. fit a DAAKG pipeline and checkpoint it (``DAAKG.save``),
2. start an active-learning campaign with autosave and "kill" it mid-budget,
3. resume the campaign from its autosave (``ActiveLearningLoop.resume``) —
   the resumed records match what an uninterrupted run would produce,
4. serve alignment queries from the checkpoint (``AlignmentService``),
5. fold a brand-new entity into the serving state without recomputing the
   similarity matrices.

Run with::

    python examples/serve_and_resume.py
"""

import tempfile
from pathlib import Path

from repro import DAAKG, DAAKGConfig, KGDelta, make_benchmark
from repro.active.loop import ActiveLearningConfig, ActiveLearningLoop
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.serving import serve
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()
    workdir = Path(tempfile.mkdtemp(prefix="daakg-"))

    # 1. Fit a small pipeline and checkpoint it.
    pair = make_benchmark("D-W", scale=0.3, seed=0)
    config = DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=4),
        alignment=AlignmentTrainingConfig(rounds=2, epochs_per_round=10, num_negatives=5,
                                          embedding_batches_per_round=2, embedding_batch_size=256),
        pool=PoolConfig(top_n=20),
        seed=0,
    )
    daakg = DAAKG(pair, config).fit()
    fitted_ckpt = workdir / "fitted"
    daakg.save(fitted_ckpt)
    print(f"\nFitted pipeline checkpointed to {fitted_ckpt}")
    print("Entity H@1 before round-trip:", f"{daakg.evaluate()['entity'].hits_at_1:.3f}")

    # 2. A campaign with autosave, killed after 1 of 3 batches.
    campaign_ckpt = workdir / "campaign"
    loop_config = ActiveLearningConfig(batch_size=25, num_batches=3,
                                       fine_tune_epochs=5, pool=PoolConfig(top_n=20))
    loop = DAAKG.load(fitted_ckpt).active_learning("uncertainty", loop_config)
    loop.autosave_path = str(campaign_ckpt)
    loop.run(max_batches=1)
    print(f"\nCampaign 'killed' after batch {loop.records[-1].batch_index}; "
          f"autosave at {campaign_ckpt}")
    del loop  # only the autosave survives the "crash"

    # 3. Resume: the loop continues at batch 1 with identical state.
    resumed = ActiveLearningLoop.resume(campaign_ckpt)
    records = resumed.run()
    print(f"Resumed campaign finished: {len(records)} records, "
          f"final entity F1 = {records[-1].entity_scores.f1:.3f}")

    # 4. Serve alignment queries from the frozen checkpoint.
    service = serve(fitted_ckpt)
    queries = list(daakg.kg1.entities[:3])
    for uri, ranked in zip(queries, service.top_k_alignments(queries, k=3)):
        best = ", ".join(f"{name} ({score:.3f})" for name, score in ranked)
        print(f"  {uri}  ->  {best}")
    print("Service state token:", service.state_token)

    # 5. Fold in a new KG2 entity (its triples reference existing entities).
    kg2 = daakg.kg2
    hub = max(range(kg2.num_entities), key=kg2.entity_degree)
    triples = [("brand:new-entity", kg2.relations[r], kg2.entities[t])
               for r, t in kg2.out_edges(hub)[:5]]
    report = service.apply_delta(
        KGDelta.single_entity("brand:new-entity", triples))[0]
    print(f"\nFolded in 'brand:new-entity' from {report.num_triples} triples "
          f"in {report.seconds * 1e3:.2f} ms (new token {report.token})")
    score = service.score_pairs([(daakg.kg1.entities[0], "brand:new-entity")])[0]
    print(f"Query against the folded-in entity works: score = {score:.3f}")


if __name__ == "__main__":
    main()
