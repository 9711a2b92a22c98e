"""The similarity runtime: pluggable backends, streaming kernels, serving views.

See :mod:`repro.runtime.backends` for the backend protocol (dense /
sharded), :mod:`repro.runtime.streaming` for the factored-cosine streaming
kernels, :mod:`repro.runtime.views` for the frozen serving views, and
:mod:`repro.runtime.executor` for the campaign executors (serial / process
piece execution behind one picklable piece runner).
"""

from repro.runtime.backends import (
    BACKEND_ENV,
    BACKEND_NAMES,
    DenseBackend,
    ShardedBackend,
    SimilarityBackend,
    TopKTable,
    create_backend,
    resolve_backend_name,
    resolve_workers,
)
from repro.runtime.streaming import (
    ChannelPair,
    CosineChannels,
    canonical_topk,
    collect_threshold_candidates,
    mutual_top_n,
    stream_row_col_max,
    stream_row_max,
    stream_threshold_candidates,
    stream_topk,
)
from repro.runtime.executor import (
    EXECUTOR_NAMES,
    CampaignExecutor,
    PieceOutcome,
    PieceSpec,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
    effective_executor_name,
    run_piece_spec,
)
from repro.runtime.merge import MergedSimilarityState, scatter_channels
from repro.runtime.views import DenseView, SimilarityView, StreamedView

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "CampaignExecutor",
    "ChannelPair",
    "CosineChannels",
    "DenseBackend",
    "DenseView",
    "EXECUTOR_NAMES",
    "MergedSimilarityState",
    "PieceOutcome",
    "PieceSpec",
    "ProcessExecutor",
    "SerialExecutor",
    "scatter_channels",
    "ShardedBackend",
    "SimilarityBackend",
    "SimilarityView",
    "StreamedView",
    "TopKTable",
    "canonical_topk",
    "collect_threshold_candidates",
    "create_backend",
    "create_executor",
    "effective_executor_name",
    "mutual_top_n",
    "resolve_backend_name",
    "resolve_workers",
    "run_piece_spec",
    "stream_row_col_max",
    "stream_row_max",
    "stream_threshold_candidates",
    "stream_topk",
]
