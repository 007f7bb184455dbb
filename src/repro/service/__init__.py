"""High-throughput screening service: the campaign runtime.

The paper's point is campaign-scale throughput — thousands of Li/air
electrolyte calculations sharded across millions of threads.  This
package is that layer for the reproduction: declarative
:class:`JobSpec`\\ s, a :class:`CampaignService` that queues, shards,
retries, preempts, and caches them, and the JSON stores
(:class:`ResultCache`, :class:`ResultsStore`) that make repeated
queries free and results durable.  ``repro campaign`` is the CLI front
end; :mod:`repro.api` is the programmatic one.
"""

from .jobspec import JobSpec, solvent_screening_specs
from .cache import ResultCache
from .store import ResultsStore
from .transport import (FrameError, InjectedWorkerDeath, LaneWorkerDeath,
                        ProcessLaneTransport, encode_frame, read_frame,
                        try_decode)
from .scheduler import CampaignService, Job, DEFAULT_MAX_RETRIES

__all__ = [
    "JobSpec", "solvent_screening_specs",
    "ResultCache", "ResultsStore",
    "CampaignService", "Job", "InjectedWorkerDeath",
    "DEFAULT_MAX_RETRIES",
    "FrameError", "LaneWorkerDeath", "ProcessLaneTransport",
    "encode_frame", "read_frame", "try_decode",
]
