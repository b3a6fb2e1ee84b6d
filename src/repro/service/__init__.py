"""The campaign service: async job submission over the shared execution stack.

One public surface, three layers:

- :mod:`repro.service.protocol` — the schema-versioned wire format
  (:class:`JobRequest`, ``repro.service.job/v1``);
- :mod:`repro.service.server` — :class:`CampaignService`, the asyncio NDJSON
  front end, priority queue with admission control, single-executor byte-
  identical job execution, and the RunMonitor-compatible HTTP status facade;
- :mod:`repro.service.client` — :class:`ServiceClient`, the blocking client
  the ``repro client`` CLI and tests drive.
"""

from repro._lazy import lazy_exports

#: Every public name, mapped to the module that defines it (imported on
#: first access; see :mod:`repro._lazy`).
_EXPORTS = {
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "connect_from_announce": "repro.service.client",
    "read_announce": "repro.service.client",
    "AdmissionError": "repro.service.jobs",
    "Job": "repro.service.jobs",
    "JobCancelled": "repro.service.jobs",
    "JobQueue": "repro.service.jobs",
    "JobState": "repro.service.jobs",
    "JobRequest": "repro.service.protocol",
    "JOB_KINDS": "repro.service.protocol",
    "JOB_SCHEMA": "repro.service.protocol",
    "CampaignService": "repro.service.server",
    "SERVICE_SCHEMA": "repro.service.server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
