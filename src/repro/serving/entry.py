"""One call from any alignment artefact to a running serving surface.

:func:`serve` is the unified entry point of :mod:`repro.serving`: it accepts
whatever the rest of the stack produces — a fitted :class:`~repro.core.daakg.DAAKG`
pipeline, a :class:`~repro.active.campaign.PartitionedCampaign`, a prebuilt
:class:`~repro.serving.service.ServingSnapshot`, or a path to a pipeline
checkpoint or saved campaign directory — resolves it through the same
``_snapshot_from_source`` dispatch :meth:`AlignmentService.hot_swap` uses,
and returns either a bare :class:`AlignmentService` or a started
:class:`~repro.serving.frontend.ServingFrontend` around it.  Whatever the
source, the snapshot has one shape: a pipeline is served as a one-piece
campaign.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.serving.frontend import FrontendConfig, ServingFrontend
from repro.serving.service import AlignmentService, _snapshot_from_source

if TYPE_CHECKING:  # pragma: no cover - import cycle with core
    from repro.active.campaign import PartitionedCampaign
    from repro.core.daakg import DAAKG
    from repro.serving.service import ServingSnapshot


def serve(
    source: "str | os.PathLike | DAAKG | PartitionedCampaign | ServingSnapshot",
    *,
    frontend: "bool | FrontendConfig | None" = None,
    cache_size: int = 4096,
) -> "AlignmentService | ServingFrontend":
    """Serve ``source``, whatever kind of alignment artefact it is.

    Parameters
    ----------
    source:
        A fitted pipeline, a partition-parallel campaign (its *merged*
        similarity state is served), a prebuilt snapshot, or a filesystem
        path holding either a pipeline checkpoint or a saved campaign.
    frontend:
        ``None``/``False`` (default) returns the bare
        :class:`AlignmentService`.  ``True`` wraps it in a
        :class:`ServingFrontend` with the default :class:`FrontendConfig`; a
        :class:`FrontendConfig` wraps it with that exact configuration.
        The frontend is **started** before it is returned — callers own its
        lifecycle and should ``stop()`` it (its ``service`` attribute holds
        the underlying service).
    cache_size:
        Forwarded to :class:`AlignmentService`.
    """
    service = AlignmentService(_snapshot_from_source(source), cache_size=cache_size)
    if frontend is None or frontend is False:
        return service
    config = frontend if isinstance(frontend, FrontendConfig) else None
    front = ServingFrontend(service, config=config)
    front.start()
    return front
