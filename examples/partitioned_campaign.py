"""Partition-parallel campaigns: cut → train in parallel → merge → serve.

Walks the partition-parallel campaign lifecycle:

1. cut an aligned KG pair into ρ-bounded cross-linked sub-pairs
   (``repro.kg.partition``),
2. run one independent DAAKG campaign per partition on the GIL-breaking
   **process executor** (``PartitionedCampaign.run`` — results are
   byte-identical for any executor backend and any worker count),
3. fold the per-partition similarity states into one merged, streamed state
   and evaluate it against the original gold matches,
4. checkpoint the whole campaign (one manifest, one directory per
   partition) and resume it,
5. serve the merged state through ``AlignmentService`` (atomic hot-swap).

Run with::

    python examples/partitioned_campaign.py
"""

import tempfile
from pathlib import Path

from repro import DAAKGConfig, PartitionConfig, PartitionedCampaign, make_benchmark
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.serving import serve
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()
    workdir = Path(tempfile.mkdtemp(prefix="daakg-campaign-"))

    # 1. Cut the pair into partitions and build the campaign.
    pair = make_benchmark("D-W", scale=0.3, seed=0)
    config = DAAKGConfig(
        base_model="transe",
        entity_dim=16,
        class_dim=4,
        pretrain=EmbeddingTrainingConfig(epochs=4),
        alignment=AlignmentTrainingConfig(
            rounds=2,
            epochs_per_round=10,
            num_negatives=5,
            embedding_batches_per_round=2,
            embedding_batch_size=256,
        ),
        pool=PoolConfig(top_n=20),
        seed=0,
    )
    campaign = PartitionedCampaign(
        pair,
        config,
        strategy="uncertainty",
        active_config=ActiveLearningConfig(batch_size=10, num_batches=2, fine_tune_epochs=5),
        # executor="process" ships each piece to a worker process; "auto"
        # would pick the same thing here whenever the machine has >1 core
        partition=PartitionConfig(num_partitions=3, workers=2, executor="process"),
    )
    print("partitioning:", campaign.partition.summary())
    print("executor:", campaign.executor_name)

    # 2. Run every partition's campaign (fit + active loop) on the executor.
    result = campaign.run(max_batches=1)
    print(
        f"first round: {result.seconds:.2f}s across {campaign.num_partitions} "
        f"partitions on the {result.executor} executor"
    )

    # 3. Checkpoint mid-campaign, resume, and finish the budget.
    checkpoint_dir = workdir / "campaign"
    campaign.save(checkpoint_dir)
    resumed = PartitionedCampaign.load(checkpoint_dir)
    resumed.run()

    # 4. Evaluate the merged state over the original pair's gold matches.
    scores = resumed.evaluate()
    print("merged entity scores:", scores["entity"].as_dict())

    # 5. Serve the merged state; hot-swap after further training.
    service = serve(resumed)
    queries = pair.kg1.entities[:3]
    for uri, answers in zip(queries, service.top_k_alignments(queries, k=3)):
        print(f"  top-3 for {uri}: {answers}")
    campaign.run()  # the original object finishes its budget too
    token = service.hot_swap(campaign)
    print("hot-swapped serving state to", token)
    print("done; artifacts under", workdir)


if __name__ == "__main__":
    main()
