"""The similarity runtime: streamed queries, streaming kernels, serving views.

See :mod:`repro.runtime.streaming` for the factored-cosine streaming kernels,
:mod:`repro.runtime.merge` for :class:`MergedSimilarityState`, the one
streamed query surface (the similarity engine subclasses it, a partitioned
campaign's merge builds it from scattered piece channels),
:mod:`repro.runtime.views` for the frozen serving view, and
:mod:`repro.runtime.executor` for the campaign executors (serial / process
piece execution behind one picklable piece runner).
"""

from repro.runtime.streaming import (
    ChannelPair,
    CosineChannels,
    TopKTable,
    canonical_topk,
    mutual_top_n,
    stream_row_col_max,
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
    resolve_campaign_executor,
    run_piece_spec,
)
from repro.runtime.merge import MergedSimilarityState, scatter_channels
from repro.runtime.views import SimilarityView

__all__ = [
    "CampaignExecutor",
    "ChannelPair",
    "CosineChannels",
    "EXECUTOR_NAMES",
    "MergedSimilarityState",
    "PieceOutcome",
    "PieceSpec",
    "ProcessExecutor",
    "SerialExecutor",
    "scatter_channels",
    "SimilarityView",
    "TopKTable",
    "canonical_topk",
    "create_executor",
    "effective_executor_name",
    "mutual_top_n",
    "resolve_campaign_executor",
    "run_piece_spec",
    "stream_row_col_max",
    "stream_threshold_candidates",
    "stream_topk",
]
