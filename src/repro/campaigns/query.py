"""Aggregation and querying over a campaign result store.

The store keeps raw per-trial scalars; this module turns them back into the
statistics the experiment layer speaks — success (liveness) rates, agreement,
round counts, interpolated latency percentiles — either per cell
(:class:`StoredSummary`, a drop-in statistical twin of
:class:`~repro.engine.runner.TrialSummary`) or grouped over any subset of the
grid dimensions (:func:`aggregate`), in row-dict form that feeds
:func:`repro.experiments.tables.render_table` and
:func:`repro.experiments.figures.render_bars` directly.
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.campaigns.store import ResultStore, TrialRecord
from repro.engine.runner import interpolated_percentile
from repro.exceptions import ExperimentError

#: The grid dimensions :func:`aggregate` can group by (all are recorded in
#: every cell description).
GROUPABLE_DIMENSIONS = (
    "protocol",
    "workload",
    "frequencies",
    "budget",
    "participants",
    "node_count",
    "max_rounds",
)


@dataclass(frozen=True)
class StoredSummary:
    """Trial statistics recomputed from persisted records.

    Mirrors the statistical surface of
    :class:`~repro.engine.runner.TrialSummary` exactly — same formulas, same
    interpolation convention — so a benchmark reading through the store gets
    bit-identical numbers to one calling
    :func:`~repro.engine.runner.run_trials` directly.
    """

    records: tuple[TrialRecord, ...]

    @property
    def trials(self) -> int:
        """Number of persisted executions."""
        return len(self.records)

    @property
    def seeds(self) -> tuple[int, ...]:
        """The seeds the records were run with, in record order."""
        return tuple(record.seed for record in self.records)

    @property
    def liveness_rate(self) -> float:
        """Fraction of executions in which every node synchronized."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.synchronized) / len(self.records)

    @property
    def agreement_rate(self) -> float:
        """Fraction of executions with no agreement violation."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.agreement) / len(self.records)

    @property
    def safety_rate(self) -> float:
        """Fraction of executions with no safety violation of any kind."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.safety) / len(self.records)

    @property
    def unique_leader_rate(self) -> float:
        """Fraction of executions that elected at most one leader."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.leader_count <= 1) / len(self.records)

    def latencies(self) -> list[int]:
        """Max activation-to-sync latencies of the executions that synchronized."""
        return [r.max_sync_latency for r in self.records if r.max_sync_latency is not None]

    @functools.cached_property
    def sorted_latencies(self) -> tuple[int, ...]:
        """The latency sample in ascending order, computed once per summary
        (mirrors :attr:`TrialSummary.sorted_latencies`)."""
        return tuple(sorted(self.latencies()))

    @property
    def mean_latency(self) -> float | None:
        """Mean of the per-execution worst-case latencies (synchronized runs only)."""
        latencies = self.sorted_latencies
        return statistics.fmean(latencies) if latencies else None

    @property
    def median_latency(self) -> float | None:
        """Median of the per-execution worst-case latencies."""
        latencies = self.sorted_latencies
        return float(statistics.median(latencies)) if latencies else None

    @property
    def max_latency(self) -> int | None:
        """Worst latency observed across the whole batch."""
        latencies = self.sorted_latencies
        return latencies[-1] if latencies else None

    @property
    def mean_rounds(self) -> float | None:
        """Mean number of simulated rounds per execution."""
        if not self.records:
            return None
        return statistics.fmean(r.rounds_simulated for r in self.records)

    def percentile_latency(self, fraction: float) -> float | None:
        """An interpolated empirical latency percentile (``fraction`` in ``[0, 1]``)."""
        return interpolated_percentile(self.sorted_latencies, fraction, assume_sorted=True)

    def stabilization_rounds(self) -> list[int]:
        """Per-trial worst rounds-to-reconverge (fault-injected trials only).

        Mirrors :meth:`TrialSummary.stabilization_rounds`; empty for
        fault-free cells, whose stored column is NULL.
        """
        return [
            r.stabilization_rounds
            for r in self.records
            if r.stabilization_rounds is not None
        ]

    @property
    def max_stabilization_rounds(self) -> int | None:
        """Worst rounds-to-reconverge across the cell (``None`` fault-free)."""
        rounds = self.stabilization_rounds()
        return max(rounds) if rounds else None

    @property
    def mean_stabilization_rounds(self) -> float | None:
        """Mean per-trial worst rounds-to-reconverge (``None`` fault-free)."""
        rounds = self.stabilization_rounds()
        return statistics.fmean(rounds) if rounds else None

    def describe(self) -> str:
        """One-line summary matching :meth:`TrialSummary.describe`."""
        mean = f"{self.mean_latency:.1f}" if self.mean_latency is not None else "-"
        worst = self.max_latency if self.max_latency is not None else "-"
        line = (
            f"{self.trials} trials: liveness {self.liveness_rate:.0%}, "
            f"agreement {self.agreement_rate:.0%}, mean latency {mean}, worst {worst}"
        )
        stabilization = self.max_stabilization_rounds
        if stabilization is not None:
            line += f", stabilization {stabilization}"
        return line


def summary_for_cell(store: ResultStore, key: str) -> StoredSummary:
    """The stored statistics of one completed cell."""
    records = store.trial_records(key)
    if not records:
        raise ExperimentError(f"cell {key!r} has no stored trials")
    return StoredSummary(records=records)


def _statistics_row(summary: StoredSummary) -> dict[str, Any]:
    row = {
        "trials": summary.trials,
        "liveness": summary.liveness_rate,
        "agreement": summary.agreement_rate,
        "unique_leader": summary.unique_leader_rate,
        "mean_latency": summary.mean_latency,
        "median_latency": summary.median_latency,
        "p90_latency": summary.percentile_latency(0.9),
        "max_latency": summary.max_latency,
        "mean_rounds": summary.mean_rounds,
    }
    # Stabilization columns appear only when the group holds fault-injected
    # trials, keeping fault-free tables and exports unchanged.
    if summary.max_stabilization_rounds is not None:
        row["max_stabilization_rounds"] = summary.max_stabilization_rounds
        row["mean_stabilization_rounds"] = summary.mean_stabilization_rounds
    return row


def cell_rows(store: ResultStore, campaign: Optional[str] = None) -> list[dict[str, Any]]:
    """One table row per completed cell: grid coordinates plus statistics."""
    rows = []
    for key, description, records in store.iter_cells(campaign):
        row: dict[str, Any] = {"cell": key}
        for dimension in GROUPABLE_DIMENSIONS:
            if dimension in description:
                row[dimension] = description[dimension]
        row.update(_statistics_row(StoredSummary(records=records)))
        rows.append(row)
    return rows


def aggregate(
    store: ResultStore,
    campaign: Optional[str] = None,
    group_by: Sequence[str] = ("protocol", "workload"),
) -> list[dict[str, Any]]:
    """Group completed cells and pool their trials into one row per group.

    Parameters
    ----------
    store:
        The result store to read.
    campaign:
        Restrict to one campaign's cells (default: the whole store).
    group_by:
        The grid dimensions to group by, in column order; must be a subset of
        :data:`GROUPABLE_DIMENSIONS`.  Cells recorded without one of the
        requested dimensions (free-form descriptions) group under ``None``
        for that dimension.

    Returns
    -------
    list[dict]
        One row per distinct group, in first-seen order, ready for
        :func:`~repro.experiments.tables.render_table`.
    """
    for dimension in group_by:
        if dimension not in GROUPABLE_DIMENSIONS:
            raise ExperimentError(
                f"cannot group by {dimension!r}; groupable: {', '.join(GROUPABLE_DIMENSIONS)}"
            )
    groups: dict[tuple, list[TrialRecord]] = {}
    for _key, description, records in store.iter_cells(campaign):
        group = tuple(description.get(dimension) for dimension in group_by)
        groups.setdefault(group, []).extend(records)
    if not groups:
        raise ExperimentError(
            f"store {store.path!r} has no completed cells"
            + (f" for campaign {campaign!r}" if campaign else "")
        )
    rows = []
    for group, pooled in groups.items():
        row: dict[str, Any] = dict(zip(group_by, group))
        row.update(_statistics_row(StoredSummary(records=tuple(pooled))))
        rows.append(row)
    return rows


def export_campaign(
    store: ResultStore,
    campaign: str,
    path: str | Path,
    group_by: Sequence[str] = ("protocol", "workload"),
) -> Path:
    """Write a campaign's cells and grouped aggregates as one JSON document."""
    spec_json = store.spec_json_for(campaign)
    document = {
        "campaign": campaign,
        "spec": json.loads(spec_json) if spec_json else None,
        "cells": cell_rows(store, campaign),
        "aggregates": aggregate(store, campaign, group_by=group_by),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    return target
