"""Declarative, persistent, resumable sweep campaigns.

The campaign subsystem gives the multi-seed trial runner a durable memory:

* :mod:`repro.campaigns.spec` — :class:`CampaignSpec` describes a grid of
  protocol × workload × parameters × seeds declaratively; every expanded
  :class:`CampaignCell` has a stable content-hashed key.
* :mod:`repro.campaigns.store` — :class:`ResultStore`, an SQLite-backed,
  schema-versioned store with append-only per-trial rows, dedup by cell key,
  and atomic per-cell commits.
* :mod:`repro.campaigns.runner` — :class:`CampaignRunner` executes only the
  cells the store is missing, checkpointing each, so an interrupted campaign
  resumes exactly where it stopped.
* :mod:`repro.campaigns.query` — group-by aggregation (success rates, round
  counts, interpolated latency percentiles) straight from the store, in rows
  the table/figure renderers consume directly.
"""

from repro._lazy import lazy_exports

#: Every public name, mapped to the module that defines it (imported on
#: first access; see :mod:`repro._lazy`).
_EXPORTS = {
    "GROUPABLE_DIMENSIONS": "repro.campaigns.query",
    "StoredSummary": "repro.campaigns.query",
    "aggregate": "repro.campaigns.query",
    "cell_rows": "repro.campaigns.query",
    "export_campaign": "repro.campaigns.query",
    "summary_for_cell": "repro.campaigns.query",
    "CampaignProgress": "repro.campaigns.runner",
    "CampaignRunner": "repro.campaigns.runner",
    "SPEC_SCHEMA_VERSION": "repro.campaigns.spec",
    "CampaignCell": "repro.campaigns.spec",
    "CampaignSpec": "repro.campaigns.spec",
    "cell_key": "repro.campaigns.spec",
    "register_workload": "repro.campaigns.spec",
    "resolve_workload": "repro.campaigns.spec",
    "STORE_SCHEMA_VERSION": "repro.campaigns.store",
    "ResultStore": "repro.campaigns.store",
    "TrialRecord": "repro.campaigns.store",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
