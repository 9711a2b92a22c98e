"""Configuration of the DAAKG pipeline.

Defaults follow Sect. 7.1 of the paper where they survive the down-scaling of
the datasets (see DESIGN.md §4): similarity threshold τ, inference-power
threshold κ, partition threshold ρ, focal γ and calibration temperatures keep
the paper's values; embedding dimensions and epoch counts are scaled to the
NumPy substrate.  Values no caller varies are not fields here but module
constants next to the code that reads them: focal γ, the loss margins and the
semi-supervised mining cap in :mod:`repro.embedding.trainer` and
:mod:`repro.alignment.trainer`, the greedy base gain in
:mod:`repro.active.selection`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Type, TypeVar, get_type_hints

from repro.alignment.calibration import CalibrationConfig
from repro.alignment.trainer import AlignmentTrainingConfig
from repro.embedding.trainer import EmbeddingTrainingConfig
from repro.inference.power import InferencePowerConfig
from repro.kg.partition import PartitionConfig
from repro.active.pool import PoolConfig

C = TypeVar("C")


def config_to_dict(config: Any) -> dict:
    """A (possibly nested) config dataclass as a JSON-serialisable dict."""
    if not is_dataclass(config):
        raise TypeError(f"expected a config dataclass, got {type(config).__name__}")
    out: dict = {}
    for f in fields(config):
        value = getattr(config, f.name)
        out[f.name] = config_to_dict(value) if is_dataclass(value) else value
    return out


def config_from_dict(cls: Type[C], data: dict) -> C:
    """Rebuild a config dataclass (with nested configs) from its dict form.

    Unknown keys are rejected rather than ignored: a typo in a manifest or a
    field renamed between format versions must fail loudly, not silently fall
    back to a default.  Missing keys fall back to the dataclass defaults so
    old manifests keep loading after new fields are added.
    """
    if not isinstance(data, dict):
        raise TypeError(f"expected a dict for {cls.__name__}, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)[:5]}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        hint = hints.get(f.name)
        if is_dataclass(hint) and isinstance(value, dict):
            value = config_from_dict(hint, value)
        kwargs[f.name] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class DAAKGConfig:
    """All knobs of the DAAKG pipeline."""

    base_model: str = "compgcn"
    entity_dim: int = 32
    class_dim: int = 8
    pretrain: EmbeddingTrainingConfig = EmbeddingTrainingConfig(epochs=8)
    alignment: AlignmentTrainingConfig = AlignmentTrainingConfig(
        rounds=5, epochs_per_round=30, learning_rate=0.03, num_negatives=10,
        embedding_batches_per_round=4, embedding_batch_size=512,
    )
    calibration: CalibrationConfig = CalibrationConfig()
    inference: InferencePowerConfig = InferencePowerConfig()
    pool: PoolConfig = PoolConfig()
    # Name-only: the similarity runtime is always the streamed one, and
    # "sharded" is the only accepted value.  Kept for the benchmark
    # workloads that still pass it; goes with their next change.
    similarity_backend: str = "sharded"
    # Campaign partitioning: how PartitionedCampaign cuts the pair into
    # rho-bounded cross-linked sub-pairs and how wide its worker pool is;
    # num_partitions=1 keeps the monolithic path.  Only the executor has an
    # environment override, REPRO_CAMPAIGN_EXECUTOR (see repro.kg.partition).
    partition: PartitionConfig = PartitionConfig()
    # Ablation switches (Table 5)
    use_class_embeddings: bool = True
    use_mean_embeddings: bool = True
    use_semi_supervision: bool = True
    use_structural_channel: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_model.lower() not in ("transe", "rotate", "compgcn"):
            raise ValueError("base_model must be one of transe, rotate, compgcn")
        if self.entity_dim <= 0 or self.class_dim <= 0:
            raise ValueError("embedding dimensions must be positive")
        if self.similarity_backend != "sharded":
            raise ValueError('similarity_backend accepts only "sharded"')

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """All knobs (nested configs included) as a JSON-serialisable dict."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DAAKGConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return config_from_dict(cls, data)

    def to_json(self, indent: int | None = None) -> str:
        """JSON form of the configuration (checkpoint manifests, deployments)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DAAKGConfig":
        """Rebuild a configuration from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def with_ablation(self, name: str) -> "DAAKGConfig":
        """Return a copy with one named component switched off.

        Recognised names mirror Table 5: ``"class_embeddings"``,
        ``"mean_embeddings"`` and ``"semi_supervision"``; ``"full"`` returns
        the configuration unchanged.
        """
        from dataclasses import replace

        key = name.lower()
        if key in ("full", "none"):
            return self
        if key in ("class_embeddings", "w/o class embeddings"):
            return replace(self, use_class_embeddings=False)
        if key in ("mean_embeddings", "w/o mean embeddings"):
            return replace(self, use_mean_embeddings=False)
        if key in ("semi_supervision", "w/o semi-supervision"):
            return replace(self, use_semi_supervision=False)
        raise ValueError(f"unknown ablation {name!r}")
