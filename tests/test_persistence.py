"""Checkpoint format, round-trip fidelity and campaign resume parity."""

from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro import DAAKG, DAAKGConfig
from repro.active.loop import ActiveLearningConfig, ActiveLearningLoop
from repro.active.pool import PoolConfig
from repro.active.selection import GreedySelectionConfig
from repro.active.strategies import DAAKGStrategy
from repro.core.config import config_from_dict, config_to_dict
from repro.inference.power import InferencePowerConfig
from repro.kg.elements import ElementKind
from repro.persistence import (
    CheckpointError,
    load_checkpoint,
    pair_from_arrays,
    pair_to_arrays,
    restore_loop,
    restore_pipeline,
    save_checkpoint,
)

LOOP_CONFIG = ActiveLearningConfig(
    batch_size=20, num_batches=3, fine_tune_epochs=5, pool=PoolConfig(top_n=20),
    inference=InferencePowerConfig(max_hops=2, power_threshold=0.5),
)


@pytest.fixture(scope="module")
def checkpoint_dir(fitted_pipeline, tmp_path_factory):
    """The fitted session pipeline, checkpointed once for the whole module."""
    path = tmp_path_factory.mktemp("ckpt") / "fitted"
    fitted_pipeline.save(path)
    return path


# ----------------------------------------------------------------- dataset codec
def test_pair_codec_round_trip(tiny_pair):
    arrays: dict[str, np.ndarray] = {}
    pair_to_arrays(tiny_pair, "dataset", arrays)
    restored = pair_from_arrays("dataset", arrays)
    assert restored.name == tiny_pair.name
    assert restored.kg1.entities == tiny_pair.kg1.entities
    assert restored.kg2.relations == tiny_pair.kg2.relations
    assert restored.kg1.triples == tiny_pair.kg1.triples
    assert restored.kg2.type_triples == tiny_pair.kg2.type_triples
    assert restored.entity_alignment.pairs == tiny_pair.entity_alignment.pairs
    assert restored.class_alignment.pairs == tiny_pair.class_alignment.pairs
    assert restored.train_entity_pairs == tiny_pair.train_entity_pairs
    assert restored.test_entity_pairs == tiny_pair.test_entity_pairs


# --------------------------------------------------------------- format / errors
def test_checkpoint_files_and_manifest(checkpoint_dir, fitted_pipeline):
    manifest = json.loads((checkpoint_dir / "manifest.json").read_text())
    assert manifest["format_version"] == 6
    assert "similarity_backend" not in manifest
    assert manifest["fitted"] is True
    assert manifest["config"] == fitted_pipeline.config.to_dict()
    assert manifest["arrays"]["sha256"]
    assert (checkpoint_dir / "arrays.npz").is_file()


def test_load_missing_checkpoint_fails(tmp_path):
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(tmp_path / "nope")


def test_load_corrupt_arrays_fails(checkpoint_dir, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(checkpoint_dir, broken)
    with open(broken / "arrays.npz", "ab") as handle:
        handle.write(b"garbage")
    with pytest.raises(CheckpointError, match="hash mismatch"):
        load_checkpoint(broken)


def test_unsupported_format_version_fails(checkpoint_dir, tmp_path):
    # 1 predates the retired ``ann_*`` config keys, 2 the settings that became
    # constants, 3 the retired ``similarity_workers``, 4 the retired dense
    # similarity backend, 5 the retired tail-solver knobs; 999 is from the
    # future
    for version in (1, 2, 3, 4, 5, 999):
        future = tmp_path / f"v{version}"
        shutil.copytree(checkpoint_dir, future)
        manifest = json.loads((future / "manifest.json").read_text())
        manifest["format_version"] = version
        if version == 4:
            # as written before: a backend name the config no longer accepts
            manifest["similarity_backend"] = "dense"
            manifest["config"]["similarity_backend"] = "dense"
        if version == 5:
            # as written before: inference keys the config no longer has
            manifest["config"]["inference"].update(solver_samples=3, solver_steps=15)
        (future / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(future)


# ------------------------------------------------------------------- round trip
def test_save_load_evaluate_bit_exact(checkpoint_dir, fitted_pipeline):
    restored = DAAKG.load(checkpoint_dir)
    original_scores = fitted_pipeline.evaluate()
    restored_scores = restored.evaluate()
    for kind in original_scores:
        assert original_scores[kind].as_dict() == restored_scores[kind].as_dict()


def test_format_6_topk_section_loads_unchanged(fitted_pipeline, tmp_path):
    """Format-6 checkpoints written while top-k tables were saved carry a
    ``topk/`` section; it is ignored, so they restore bit-exactly as before."""
    import hashlib
    import io

    older = save_checkpoint(tmp_path / "with_topk", fitted_pipeline)
    with np.load(older / "arrays.npz") as npz:
        arrays = {key: npz[key] for key in npz.files}
    assert not any(key.startswith("topk/") for key in arrays)
    arrays["topk/entity/5/left_indices"] = np.zeros((fitted_pipeline.kg1.num_entities, 5), np.int64)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    (older / "arrays.npz").write_bytes(buffer.getvalue())
    manifest = json.loads((older / "manifest.json").read_text())
    manifest["arrays"]["sha256"] = hashlib.sha256(buffer.getvalue()).hexdigest()
    manifest["arrays"]["count"] = len(arrays)
    (older / "manifest.json").write_text(json.dumps(manifest))

    checkpoint = load_checkpoint(older)
    assert "topk/entity/5/left_indices" in checkpoint.arrays
    restored = restore_pipeline(checkpoint)
    original_scores = fitted_pipeline.evaluate()
    restored_scores = restored.evaluate()
    for kind in original_scores:
        assert original_scores[kind].as_dict() == restored_scores[kind].as_dict()


def _with_retired_keys(config: dict) -> None:
    """Put back the keys a manifest held before their fields were retired,
    at the values the retired fields had."""
    config["alignment"].update(semi_supervised=True, hard_negative_pool=10)
    config["inference"]["min_power"] = 0.05


def _write_manifest(directory, edit) -> None:
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def test_format_6_retired_keys_load_unchanged(checkpoint_dir, fitted_pipeline, tmp_path):
    """A format-6 campaign checkpoint written before the retired fields went
    holds their keys at their old values; it restores bit-exactly."""
    strategy = DAAKGStrategy(
        selection_config=GreedySelectionConfig(power_threshold=0.6, candidate_limit=50)
    )
    DAAKG.load(checkpoint_dir).active_learning(strategy, LOOP_CONFIG).save(tmp_path / "new")

    def as_written_before(manifest):
        _with_retired_keys(manifest["config"])
        manifest["loop"]["config"]["inference"]["min_power"] = 0.05
        manifest["loop"]["strategy"]["selection_config"].update(batch_size=100, num_samples=8)

    older = tmp_path / "older"
    shutil.copytree(tmp_path / "new", older)
    _write_manifest(older, as_written_before)
    assert json.loads((older / "manifest.json").read_text())["format_version"] == 6

    loop = restore_loop(load_checkpoint(older))
    expected = restore_loop(load_checkpoint(tmp_path / "new"))
    assert loop.daakg.config == expected.daakg.config == fitted_pipeline.config
    assert loop.config == expected.config == LOOP_CONFIG
    assert loop.strategy.selection_config == strategy.selection_config
    original_scores = fitted_pipeline.evaluate()
    restored_scores = loop.daakg.evaluate()
    for kind in original_scores:
        assert original_scores[kind].as_dict() == restored_scores[kind].as_dict()


@pytest.mark.parametrize(
    "key, edit",
    [
        ("hard_negative_pool", lambda m: m["config"]["alignment"].update(hard_negative_pool=50)),
        ("min_power", lambda m: m["config"]["inference"].update(min_power=0.2)),
    ],
    ids=["hard_negative_pool", "min_power"],
)
def test_retired_key_off_its_constant_is_refused(checkpoint_dir, tmp_path, key, edit):
    """A retired field set away from the constant it became would load as a
    different pipeline; the checkpoint is refused, naming key and value."""
    older = tmp_path / "older"
    shutil.copytree(checkpoint_dir, older)
    _write_manifest(older, edit)
    with pytest.raises(CheckpointError, match=f"retired .*'{key}' holds .*; it is fixed at"):
        DAAKG.load(older)


def test_retired_shadow_key_loads_whatever_its_value(checkpoint_dir, fitted_pipeline, tmp_path):
    """``alignment.semi_supervised`` never took effect (``use_semi_supervision``
    did), so even a value that disagrees with the pipeline loads."""
    older = tmp_path / "older"
    shutil.copytree(checkpoint_dir, older)
    _write_manifest(older, lambda m: m["config"]["alignment"].update(semi_supervised=False))
    restored = DAAKG.load(older)
    assert restored.config == fitted_pipeline.config
    assert restored.trainer.semi_supervised is fitted_pipeline.config.use_semi_supervision


def test_restored_state_matches(checkpoint_dir, fitted_pipeline):
    restored = DAAKG.load(checkpoint_dir)
    assert restored.is_fitted
    assert restored.config == fitted_pipeline.config
    original_state = fitted_pipeline.model.state_dict()
    restored_state = restored.model.state_dict()
    assert set(original_state) == set(restored_state)
    for key in original_state:
        np.testing.assert_array_equal(original_state[key], restored_state[key])
    # Adam progress
    assert restored.trainer.optimizer._t == fitted_pipeline.trainer.optimizer._t
    # labels and mined matches
    for kind in ElementKind:
        assert restored.trainer.labels.matches[kind] == fitted_pipeline.trainer.labels.matches[kind]
        for restored_array, fitted_array in zip(
            restored.trainer._mined[kind], fitted_pipeline.trainer._mined[kind]
        ):
            assert restored_array.dtype == fitted_array.dtype
            np.testing.assert_array_equal(restored_array, fitted_array)
    # the shared RNG stream resumes at the same position (equal states imply
    # equal future draws, without perturbing the session fixture's stream)
    from repro.utils.rng import get_rng_state

    assert get_rng_state(restored.rng) == get_rng_state(fitted_pipeline.rng)
    assert get_rng_state(restored.embedding_model_1.rng) == get_rng_state(
        fitted_pipeline.embedding_model_1.rng
    )


def test_restored_rng_is_mutation_safe(checkpoint_dir):
    # two independent loads must not share generator objects or streams
    a = DAAKG.load(checkpoint_dir)
    b = DAAKG.load(checkpoint_dir)
    a.rng.random(10)
    first = DAAKG.load(checkpoint_dir)
    assert b.rng.random(2).tolist() == first.rng.random(2).tolist()


# ---------------------------------------------------------------- resume parity
def _comparable(record) -> dict:
    data = dataclasses.asdict(record)
    data.pop("seconds")
    return data


@pytest.mark.parametrize(
    "strategy",
    # a resumed loop builds its alignment graph fresh, while the uninterrupted
    # one reuses the graph it built on its first batch
    ["uncertainty", "daakg", pytest.param(DAAKGStrategy(algorithm="partition"), id="partition")],
)
def test_resumed_campaign_matches_uninterrupted(checkpoint_dir, tmp_path, strategy):
    uninterrupted = DAAKG.load(checkpoint_dir).active_learning(strategy, LOOP_CONFIG)
    expected = uninterrupted.run()

    interrupted = DAAKG.load(checkpoint_dir).active_learning(strategy, LOOP_CONFIG)
    campaign = tmp_path / "campaign"
    interrupted.autosave_path = str(campaign)
    interrupted.run(max_batches=1)
    del interrupted  # the "kill": only the autosave survives

    resumed = ActiveLearningLoop.resume(campaign)
    assert resumed._next_batch == 1
    assert resumed.autosave_path == str(campaign)
    records = resumed.run()

    assert len(records) == len(expected) == LOOP_CONFIG.num_batches
    for ours, theirs in zip(records, expected):
        assert _comparable(ours) == _comparable(theirs)


def test_resume_preserves_custom_strategy_configuration(checkpoint_dir, tmp_path):
    strategy = DAAKGStrategy(
        algorithm="greedy",
        selection_config=GreedySelectionConfig(candidate_limit=50),
    )
    loop = DAAKG.load(checkpoint_dir).active_learning(strategy, LOOP_CONFIG)
    loop.autosave_path = str(tmp_path / "campaign")
    loop.run(max_batches=1)
    resumed = ActiveLearningLoop.resume(tmp_path / "campaign")
    assert isinstance(resumed.strategy, DAAKGStrategy)
    assert resumed.strategy.algorithm == "greedy"
    assert resumed.strategy.selection_config == strategy.selection_config
    assert resumed.strategy.partition_config == strategy.partition_config


def test_restored_pool_equals_saved_pool(checkpoint_dir, tmp_path):
    loop = DAAKG.load(checkpoint_dir).active_learning("uncertainty", LOOP_CONFIG)
    saved = loop.pool()
    assert len(saved.sides(ElementKind.ENTITY)) and len(saved.sides(ElementKind.RELATION))
    loop.save(str(tmp_path / "campaign"))
    restored = restore_loop(load_checkpoint(tmp_path / "campaign"))._pool
    for kind in ElementKind:
        # same pairs, same order
        assert restored.sides(kind).tolist() == saved.sides(kind).tolist()


def test_resume_requires_campaign_state(checkpoint_dir):
    with pytest.raises(CheckpointError, match="campaign"):
        restore_loop(load_checkpoint(checkpoint_dir))


def test_loop_save_requires_pipeline_backref(fitted_pipeline, tmp_path):
    loop = fitted_pipeline.active_learning("uncertainty", LOOP_CONFIG)
    loop.daakg = None
    with pytest.raises(RuntimeError, match="DAAKG"):
        loop.save(str(tmp_path / "x"))


# --------------------------------------------------------------- config round trip
def test_daakg_config_json_round_trip(fast_config):
    restored = DAAKGConfig.from_json(fast_config.to_json())
    assert restored == fast_config
    assert restored.pretrain == fast_config.pretrain
    assert restored.alignment == fast_config.alignment


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        DAAKGConfig.from_dict({"no_such_knob": 1})
    # a retired key is known only in the config that held it
    with pytest.raises(ValueError, match="unknown"):
        DAAKGConfig.from_dict({"min_power": 0.05})


def test_config_from_dict_defaults_missing_fields():
    config = DAAKGConfig.from_dict({"base_model": "transe"})
    assert config.base_model == "transe"
    assert config.entity_dim == DAAKGConfig().entity_dim


def test_nested_loop_config_round_trip():
    restored = config_from_dict(ActiveLearningConfig, config_to_dict(LOOP_CONFIG))
    assert restored == LOOP_CONFIG
    assert isinstance(restored.pool, PoolConfig)
