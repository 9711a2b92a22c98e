"""Every settable config field changes something, or says why it does not.

The test walks every ``*Config`` dataclass under ``src/repro`` and each of its
fields.  A field either has a case in :data:`CASES`: a non-default valid value
and an observable that the value must change on the tier-1 fixtures; or an
entry in :data:`ALLOWED` with the reason it changes nothing.  A new field
without either fails :func:`test_every_field_has_a_case_or_a_reason`; a
field that stops mattering fails its case.  A field no caller varies belongs
in a module constant, not in a config (see :mod:`repro.core.config`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import pkgutil
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import repro
from repro import DAAKG, DAAKGConfig, PartitionConfig, PartitionedCampaign, serve
from repro.active.loop import ActiveLearningConfig
from repro.active.partition import PartitionSelectionConfig, partition_pool
from repro.active.pool import PoolConfig, build_pool
from repro.active.selection import GreedySelectionConfig, greedy_select
from repro.active.strategies import DAAKGStrategy
from repro.alignment.calibration import AlignmentCalibrator, CalibrationConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.baselines.embedding import EmbeddingBaselineConfig, MTransE
from repro.baselines.paris import PARIS, ParisConfig
from repro.datasets.benchmark import BENCHMARK_CONFIGS, BenchmarkConfig, make_benchmark
from repro.datasets.views import ViewConfig, derive_view
from repro.datasets.world import WorldConfig, generate_world
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.alignment_graph import PairValues
from repro.inference.power import InferencePowerConfig, InferencePowerEstimator
from repro.kg.elements import ElementKind
from repro.kg.partition import partition_pair
from repro.serving import BackpressureError, FrontendConfig, ServingFrontend

#: Fields that change no observable, each with the reason it is still a field.
ALLOWED = {
    (PartitionConfig, "workers"): (
        "process-pool width of the campaign executor; results must not depend "
        "on it (tests/test_executor.py checks byte-identical merged results)"
    ),
    (PartitionConfig, "executor"): (
        "campaign executor backend; results must not depend on it "
        "(tests/test_executor.py checks byte-identical merged results)"
    ),
    (DAAKGConfig, "similarity_backend"): (
        'accepts only its default "sharded"; the repository benchmark still passes it'
    ),
}

#: A small pipeline config on ``tiny_pair``: a fit takes milliseconds.
TINY = DAAKGConfig(
    base_model="transe",
    entity_dim=8,
    class_dim=4,
    pretrain=EmbeddingTrainingConfig(epochs=2),
    alignment=AlignmentTrainingConfig(
        rounds=2, epochs_per_round=3, num_negatives=2,
        embedding_batches_per_round=1, embedding_batch_size=4,
    ),
    inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
    seed=0,
)
SMALL_WORLD = WorldConfig(num_entities=60, num_classes=6, num_relations=8, mean_out_degree=3.0)
LOOP = ActiveLearningConfig(
    batch_size=3, num_batches=1, fine_tune_epochs=1,
    inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
)

#: The config each class's cases change one field of (default: ``cls()``).
BASES = {
    DAAKGConfig: TINY,
    AlignmentTrainingConfig: TINY.alignment,
    EmbeddingTrainingConfig: TINY.pretrain,
    EmbeddingBaselineConfig: EmbeddingBaselineConfig(
        entity_dim=8, pretrain_epochs=1, rounds=1, epochs_per_round=2
    ),
    ActiveLearningConfig: LOOP,
    PartitionConfig: PartitionConfig(num_partitions=3),
    WorldConfig: SMALL_WORLD,
    ViewConfig: ViewConfig(prefix="v"),
    BenchmarkConfig: BENCHMARK_CONFIGS["D-W"].scaled(0.05),
}


def _digest(*parts) -> str:
    """One hash over arrays (shape and bytes) and reprs of everything else."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(repr(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _kg_digest(kg) -> str:
    return _digest(kg.entities, kg.relations, kg.classes, kg.triple_array, kg.type_array)


def _pipeline_digest(pipeline) -> str:
    """Parameter bytes and the three similarity matrices of a pipeline."""
    state = pipeline.model.state_dict()
    return _digest(
        *(state[key] for key in sorted(state)),
        *(pipeline.model.similarity_matrix(kind) for kind in ElementKind),
    )


# ------------------------------------------------------------- observables
def fitted(config: DAAKGConfig, env) -> str:
    """A short fit on ``tiny_pair`` with one labelled relation match."""
    pipeline = DAAKG(env.tiny_pair, config)
    pipeline.fit(relation_matches=env.tiny_pair.relation_alignment.pairs[:1])
    return _pipeline_digest(pipeline)


def fitted_with_alignment(config: AlignmentTrainingConfig, env) -> str:
    return fitted(replace(TINY, alignment=config), env)


def fitted_with_pretrain(config: EmbeddingTrainingConfig, env) -> str:
    return fitted(replace(TINY, pretrain=config), env)


def pipeline_probabilities(config: DAAKGConfig, env) -> str:
    return _digest(DAAKG(env.tiny_pair, config).match_probabilities(ElementKind.ENTITY))


def pipeline_pool(config: DAAKGConfig, env) -> str:
    pool = DAAKG(env.tiny_pair, config).build_pool()
    return _digest(*(pool.sides(kind) for kind in ElementKind))


def pipeline_reach(config: DAAKGConfig, env) -> str:
    graph, estimator = DAAKG(env.tiny_pair, config).build_inference_estimator()
    table = estimator.reachable_power(np.arange(len(graph.sides)))
    return _digest(table.ids, table.data, table.ptr)


def campaign_pieces(config: DAAKGConfig, env) -> str:
    campaign = PartitionedCampaign(
        env.small_benchmark, config, strategy="uncertainty", resolve_env=False
    )
    return campaign.partition.membership_digest()


def loop_batches(config: ActiveLearningConfig, env) -> str:
    """The batches, scores and parameters of a ``daakg`` loop on ``tiny_pair``.

    Greedy keeps every reach entry above 0.05, so reach changes show in the
    picks."""
    pipeline = DAAKG(env.tiny_pair, TINY).fit()
    strategy = DAAKGStrategy(selection_config=GreedySelectionConfig(power_threshold=0.05))
    records = pipeline.active_learning(strategy, config).run()
    return _digest(
        [(r.selected, r.entity_scores.as_dict()) for r in records], _pipeline_digest(pipeline)
    )


def calibrated(config: CalibrationConfig, env) -> str:
    calibrator = AlignmentCalibrator(config)
    model = env.fitted.model
    return _digest(
        *(calibrator.probability_matrix(model.similarity_matrix(kind), kind) for kind in ElementKind)
    )


def pooled(config: PoolConfig, env) -> str:
    pool = build_pool(env.fitted.model, config)
    return _digest(*(pool.sides(kind) for kind in ElementKind))


def reach_and_inferred(config: InferencePowerConfig, env) -> str:
    estimator = InferencePowerEstimator(env.fitted.model, env.graph, config)
    table = estimator.reachable_power(np.arange(env.graph.relation_offset))
    inferred = estimator.inferred_pairs(np.arange(20))
    return _digest(table.ids, table.data, table.ptr, inferred.ids, inferred.data)


def partition_labels(config: PartitionSelectionConfig, env) -> str:
    labels = partition_pool(env.graph, env.estimator, config)
    return _digest(labels.ids, labels.data)


def greedy_picks(config: GreedySelectionConfig, env) -> list[int]:
    """Two greedy picks on a hand-made reach: candidate 0 (probability 0.9)
    reaches two pairs at 0.6, candidate 1 (0.5) one pair at 0.9, candidate 2
    (0.8) one pair at 0.6."""
    reach = {0: {10: 0.6, 11: 0.6}, 1: {12: 0.9}, 2: {10: 0.6}}

    def table(ids: np.ndarray) -> PairValues:
        rows = [reach[int(q)] for q in ids]
        ptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
        return PairValues(
            np.array([t for row in rows for t in row], dtype=np.int64),
            np.array([v for row in rows for v in row.values()]),
            ptr,
        )

    probabilities = np.zeros(13)
    probabilities[:3] = [0.9, 0.5, 0.8]
    return greedy_select(np.arange(3), probabilities, table, 2, config, rng=0).tolist()


def pretrained(config: EmbeddingBaselineConfig, env) -> str:
    baseline = MTransE(config).fit(env.tiny_pair)
    return _digest(baseline.entity_similarity_matrix(), baseline.relation_similarity_matrix())


def paris_matrices(config: ParisConfig, env) -> str:
    paris = PARIS(config).fit(env.tiny_pair)
    return _digest(paris.entity_similarity_matrix(), paris.relation_similarity_matrix())


def pieces(config: PartitionConfig, env) -> str:
    partition = partition_pair(env.small_benchmark, config)
    return _digest(
        partition.membership_digest(),
        partition.cut_weight_fraction,
        partition.rho_satisfied_fraction,
    )


def world(config: WorldConfig, env) -> str:
    generated = generate_world(config)
    return _digest(
        _kg_digest(generated.kg),
        sorted(generated.relation_domains.items()),
        sorted(generated.relation_ranges.items()),
        sorted(generated.functional_relations),
    )


def view(config: ViewConfig, env) -> str:
    kg, entities, relations, classes = derive_view(env.world, config, seed=0)
    return _digest(_kg_digest(kg), entities, relations, classes)


def benchmark(config: BenchmarkConfig, env) -> str:
    with mock.patch.dict(BENCHMARK_CONFIGS, {"D-W": config}):
        pair = make_benchmark("D-W", seed=0)
    return _digest(_kg_digest(pair.kg1), _kg_digest(pair.kg2), pair.entity_alignment.pairs)


def frontend_stats(config: FrontendConfig, env) -> tuple:
    """Four top-k requests queued before the workers start: shed count,
    ticket deadlines, worker count and batches flushed because they were
    full."""
    frontend = ServingFrontend(env.service, config, resolve_env=False)
    tickets, shed = [], 0
    for uri in env.fitted.kg1.entities[:4]:
        try:
            tickets.append(frontend.submit_top_k(uri, k=2))
        except BackpressureError:
            shed += 1
    with frontend:
        workers = frontend.stats()["workers"]
        for ticket in tickets:
            ticket.result(timeout=30)
    full = frontend.stats()["flush_reasons"]["full"]
    return shed, [t.deadline_s for t in tickets], workers, full


#: ``(config class, field) -> (non-default value, observable)``.
CASES = {
    # the pipeline
    (DAAKGConfig, "base_model"): ("rotate", fitted),
    (DAAKGConfig, "entity_dim"): (12, fitted),
    (DAAKGConfig, "class_dim"): (6, fitted),
    (DAAKGConfig, "pretrain"): (EmbeddingTrainingConfig(epochs=3), fitted),
    (DAAKGConfig, "alignment"): (replace(TINY.alignment, rounds=1), fitted),
    (DAAKGConfig, "calibration"): (CalibrationConfig(z_entity=0.5), pipeline_probabilities),
    (DAAKGConfig, "inference"): (InferencePowerConfig(max_hops=1), pipeline_reach),
    (DAAKGConfig, "pool"): (PoolConfig(top_n=1), pipeline_pool),
    (DAAKGConfig, "partition"): (PartitionConfig(num_partitions=2), campaign_pieces),
    (DAAKGConfig, "use_class_embeddings"): (False, fitted),
    (DAAKGConfig, "use_mean_embeddings"): (False, fitted),
    (DAAKGConfig, "use_semi_supervision"): (False, fitted),
    (DAAKGConfig, "use_structural_channel"): (False, fitted),
    (DAAKGConfig, "seed"): (1, fitted),
    # alignment training
    (AlignmentTrainingConfig, "rounds"): (1, fitted_with_alignment),
    (AlignmentTrainingConfig, "epochs_per_round"): (1, fitted_with_alignment),
    (AlignmentTrainingConfig, "learning_rate"): (0.05, fitted_with_alignment),
    (AlignmentTrainingConfig, "num_negatives"): (3, fitted_with_alignment),
    (AlignmentTrainingConfig, "semi_threshold"): (0.2, fitted_with_alignment),
    (AlignmentTrainingConfig, "embedding_batches_per_round"): (0, fitted_with_alignment),
    (AlignmentTrainingConfig, "embedding_batch_size"): (2, fitted_with_alignment),
    (AlignmentTrainingConfig, "align_relations_via_entity_map"): (False, fitted_with_alignment),
    (AlignmentTrainingConfig, "hard_negative_fraction"): (0.0, fitted_with_alignment),
    (AlignmentTrainingConfig, "entity_anchor_weight"): (0.0, fitted_with_alignment),
    # embedding pre-training
    (EmbeddingTrainingConfig, "epochs"): (1, fitted_with_pretrain),
    (EmbeddingTrainingConfig, "batch_size"): (3, fitted_with_pretrain),
    (EmbeddingTrainingConfig, "learning_rate"): (0.01, fitted_with_pretrain),
    (EmbeddingTrainingConfig, "num_negatives"): (1, fitted_with_pretrain),
    # the active loop and selection
    (ActiveLearningConfig, "batch_size"): (2, loop_batches),
    (ActiveLearningConfig, "num_batches"): (2, loop_batches),
    (ActiveLearningConfig, "fine_tune_epochs"): (2, loop_batches),
    (ActiveLearningConfig, "pool"): (PoolConfig(top_n=1), loop_batches),
    (ActiveLearningConfig, "inference"): (InferencePowerConfig(max_hops=1), loop_batches),
    (ActiveLearningConfig, "calibration"): (CalibrationConfig(z_entity=1.0), loop_batches),
    (CalibrationConfig, "z_entity"): (0.5, calibrated),
    (CalibrationConfig, "z_relation"): (0.5, calibrated),
    (CalibrationConfig, "z_class"): (0.5, calibrated),
    (PoolConfig, "top_n"): (5, pooled),
    (InferencePowerConfig, "max_hops"): (1, reach_and_inferred),
    (InferencePowerConfig, "power_threshold"): (0.05, reach_and_inferred),
    (PartitionSelectionConfig, "rho"): (0.5, partition_labels),
    (PartitionSelectionConfig, "max_partitions"): (2, partition_labels),
    (GreedySelectionConfig, "power_threshold"): (0.5, greedy_picks),
    (GreedySelectionConfig, "candidate_limit"): (1, greedy_picks),
    # baselines
    (EmbeddingBaselineConfig, "entity_dim"): (6, pretrained),
    (EmbeddingBaselineConfig, "pretrain_epochs"): (2, pretrained),
    (EmbeddingBaselineConfig, "rounds"): (2, pretrained),
    (EmbeddingBaselineConfig, "epochs_per_round"): (3, pretrained),
    (EmbeddingBaselineConfig, "learning_rate"): (0.01, pretrained),
    (EmbeddingBaselineConfig, "seed"): (1, pretrained),
    (ParisConfig, "iterations"): (1, paris_matrices),
    # campaign partitioning
    (PartitionConfig, "num_partitions"): (2, pieces),
    (PartitionConfig, "rho"): (0.5, pieces),
    (PartitionConfig, "max_refine_passes"): (0, pieces),
    (PartitionConfig, "balance_slack"): (0.0, pieces),
    # dataset generation
    (WorldConfig, "num_entities"): (70, world),
    (WorldConfig, "num_classes"): (7, world),
    (WorldConfig, "num_relations"): (9, world),
    (WorldConfig, "mean_out_degree"): (4.0, world),
    (WorldConfig, "max_classes_per_entity"): (1, world),
    (WorldConfig, "functional_relation_fraction"): (0.0, world),
    (WorldConfig, "popularity_exponent"): (2.0, world),
    (WorldConfig, "seed"): (1, world),
    (ViewConfig, "prefix"): ("w", view),
    (ViewConfig, "entity_keep_fraction"): (0.5, view),
    (ViewConfig, "relation_keep_fraction"): (0.5, view),
    (ViewConfig, "class_keep_fraction"): (0.5, view),
    (ViewConfig, "triple_keep_fraction"): (0.5, view),
    (ViewConfig, "type_keep_fraction"): (0.5, view),
    (ViewConfig, "rename_entities"): (False, view),
    (ViewConfig, "obfuscate_names"): (True, view),
    (BenchmarkConfig, "world"): (replace(BASES[BenchmarkConfig].world, seed=12), benchmark),
    (BenchmarkConfig, "view1"): (replace(BASES[BenchmarkConfig].view1, prefix="x"), benchmark),
    (BenchmarkConfig, "view2"): (
        replace(BASES[BenchmarkConfig].view2, triple_keep_fraction=0.5), benchmark
    ),
    # serving
    (FrontendConfig, "num_workers"): (3, frontend_stats),
    (FrontendConfig, "max_queue_depth"): (2, frontend_stats),
    (FrontendConfig, "max_batch"): (2, frontend_stats),
    (FrontendConfig, "default_deadline_ms"): (50.0, frontend_stats),
}


def _config_classes() -> set[type]:
    classes = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (
                name.endswith("Config")
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
            ):
                classes.add(value)
    return classes


def _name(key) -> str:
    return f"{key[0].__name__}.{key[1]}"


@pytest.fixture(scope="module")
def observed(tiny_pair, small_benchmark, fitted_pipeline):
    """``observed(observable, config)``, each pair computed once per module."""
    graph, estimator = fitted_pipeline.build_inference_estimator()
    env = SimpleNamespace(
        tiny_pair=tiny_pair,
        small_benchmark=small_benchmark,
        fitted=fitted_pipeline,
        graph=graph,
        estimator=estimator,
        service=serve(fitted_pipeline, cache_size=0),
        world=generate_world(SMALL_WORLD),
    )
    cache: dict = {}

    def observe(observable, config):
        key = (observable, config)
        if key not in cache:
            cache[key] = observable(config, env)
        return cache[key]

    return observe


def test_every_field_has_a_case_or_a_reason():
    fields = {(cls, f.name) for cls in _config_classes() for f in dataclasses.fields(cls)}
    assert not set(CASES) & set(ALLOWED)
    assert sorted(map(_name, fields - set(CASES) - set(ALLOWED))) == []
    assert sorted(map(_name, (set(CASES) | set(ALLOWED)) - fields)) == []
    assert all(reason.strip() for reason in ALLOWED.values())


@pytest.mark.parametrize("key", sorted(CASES, key=_name), ids=_name)
def test_field_changes_an_observable(key, observed):
    cls, name = key
    value, observable = CASES[key]
    base = BASES.get(cls) or cls()
    assert getattr(base, name) != value
    assert observed(observable, base) != observed(observable, replace(base, **{name: value}))


def test_similarity_backend_accepts_only_its_default():
    with pytest.raises(ValueError, match="sharded"):
        DAAKGConfig(similarity_backend="dense")
