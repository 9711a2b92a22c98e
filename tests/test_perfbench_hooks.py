"""The names the traced benchmark run wraps still exist.

``perfbench/tracing.py`` wraps the public call of every layer by name
(``AlignmentCalibrator.pair_probabilities_from_engine``, ``build_pool``,
``InferencePowerEstimator.edge_power`` and its ``_edge_power_cache`` list,
``AnnView.top_k_for_rows``, …).  A rename or a move in ``src/`` breaks
``perfbench/run.py --trace 1``; this test installs the wrappers on a
:class:`Tracer`, checks they are live, and uninstalls them again.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.active.campaign import PartitionedCampaign
from repro.active.loop import ActiveLearningConfig
from repro.active.pool import PoolConfig
from repro.alignment.calibration import AlignmentCalibrator
from repro.inference.alignment_graph import graph_from_pool
from repro.inference.power import InferencePowerEstimator
from repro.kg.elements import ElementKind
from repro.kg.partition import PartitionConfig
from repro.serving import serve
from repro.serving.service import ServingSnapshot

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture()
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_install_wraps_every_hook_and_uninstall_restores(tracing, fitted_pipeline):
    import repro.active.pool as pool_module

    tracer = tracing.Tracer()
    originals = {
        "calibrate": AlignmentCalibrator.__dict__["pair_probabilities_from_engine"],
        "pool": pool_module.build_pool,
        "edge_power": InferencePowerEstimator.__dict__["edge_power"],
    }
    try:
        tracing.install(tracer)
        patched = {(id(owner), attr) for owner, attr, _ in tracer._undo}
        assert (id(AlignmentCalibrator), "pair_probabilities_from_engine") in patched
        assert (id(pool_module), "build_pool") in patched
        assert (id(InferencePowerEstimator), "edge_power") in patched
        for owner, attr, original in tracer._undo:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} not wrapped"

        # the wrapped calls record their layer's span
        model = fitted_pipeline.model
        pool = pool_module.build_pool(model, PoolConfig(top_n=5))
        pairs = np.arange(3)
        fitted_pipeline.calibrator.pair_probabilities_from_engine(
            model.similarity, ElementKind.RELATION, pairs % model.kg1.num_relations,
            pairs % model.kg2.num_relations,
        )
        names = {span.name for span in tracer.spans}
        assert {"active.pool", "alignment.calibrate"} <= names

        # edge_power is counted through its memo, read by name per call: the
        # first call fills the list of every edge's power, the second hits it
        graph = graph_from_pool(model.kg1, model.kg2, pool)
        assert graph.num_edges() > 0
        estimator = InferencePowerEstimator(model, graph, fitted_pipeline.config.inference)
        estimator.edge_power(0)
        estimator.edge_power(0)
        assert tracer.counted(tracer.run, "inference.edge_power_calls") == 2
        assert tracer.counted(tracer.run, "inference.edge_power_hits") == 1
    finally:
        tracer.uninstall()

    assert AlignmentCalibrator.__dict__["pair_probabilities_from_engine"] is originals["calibrate"]
    assert pool_module.build_pool is originals["pool"]
    assert InferencePowerEstimator.__dict__["edge_power"] is originals["edge_power"]


def test_serving_hooks_record_their_spans(tracing, fitted_pipeline, small_benchmark, fast_config):
    """The traced drift run reads the serving view, the service and the
    campaign snapshot through these wrappers."""
    campaign = PartitionedCampaign(
        small_benchmark,
        fast_config,
        strategy="random",
        active_config=ActiveLearningConfig(batch_size=1, num_batches=1, fine_tune_epochs=1),
        partition=PartitionConfig(num_partitions=1, workers=1),
    )
    campaign.run()
    service = serve(fitted_pipeline)
    uris = list(fitted_pipeline.kg1.entities[:4])
    expected = service.top_k_alignments(uris, k=3)

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        fresh = serve(fitted_pipeline)  # an empty result cache reaches the view
        assert fresh.top_k_alignments(uris, k=3) == expected
        ServingSnapshot.from_campaign(campaign)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert {"runtime.view_top_k", "serving.top_k", "serving.snapshot"} <= set(names)
    assert names.count("runtime.view_top_k") == 1
    assert tracer.counted(tracer.run, "serving.top_k_rows") == len(uris)
