"""The resumable campaign runner.

:class:`CampaignRunner` diffs a :class:`~repro.campaigns.spec.CampaignSpec`
against a :class:`~repro.campaigns.store.ResultStore` and executes only the
cells whose content-hashed keys are missing, checkpointing each completed
cell atomically.  Kill the process at any point and re-run: the campaign
resumes exactly where it stopped, and — because every execution derives all
randomness from its own seed — the resumed results are bit-identical to an
uninterrupted run.

Every pending cell is one :class:`~repro.engine.pool.WorkUnit` on the one
execution path, :func:`~repro.engine.pool.run_units`, and the runner commits
each cell as its rows come out, in grid order.  Serially the cells run one at
a time.  With ``workers > 1`` (or an explicit ``pool=``, or
``workers="auto"`` once the first cell has shown that a pool pays) every
pending cell's trials go onto one persistent
:class:`~repro.engine.pool.ExecutionPool` up front: work is dispatched in
chunks (template-and-delta pickling), workers reduce each trial to the
scalars the store persists before anything crosses the process boundary, and
a cell commits — atomically, exactly as in the serial path — the moment it
and every cell before it are done.  A worker crash spends the pool's retry
budget like any other.  One pool serves the whole run, and survives across
``run`` invocations, so a grid of ten thousand small cells pays pool spin-up
once instead of ten thousand times.  None of this changes results: the stored
rows are bit-identical to a serial campaign's.
"""

from __future__ import annotations

import logging
import time

# perfbench/trace_cli.py wraps this name; no code here uses it.
from concurrent.futures import as_completed  # noqa: F401
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.campaigns.store import ResultStore, TrialRecord
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool, ReducedTrial, WorkUnit, run_units
from repro.telemetry import Telemetry, as_telemetry
from repro.telemetry.events import (
    CampaignCompleted,
    CampaignStarted,
    CellCommitted,
    FaultInjected,
)

logger = logging.getLogger("repro.campaigns.runner")


@dataclass(frozen=True)
class CampaignProgress:
    """The outcome of one :meth:`CampaignRunner.run` invocation.

    Attributes
    ----------
    total:
        Number of cells in the spec's grid.
    already_complete:
        Cells the store already held when the run started (skipped).
    executed:
        Cells this invocation ran and recorded.
    remaining:
        Cells still missing after this invocation (non-zero only when the run
        was capped with ``max_cells``).
    """

    total: int
    already_complete: int
    executed: int
    remaining: int

    @property
    def complete(self) -> bool:
        """True once the store holds every cell of the spec."""
        return self.remaining == 0

    def describe(self) -> str:
        """One-line progress summary for logs and the CLI."""
        done = self.already_complete + self.executed
        return (
            f"{done}/{self.total} cells complete "
            f"({self.executed} executed now, {self.already_complete} reused, "
            f"{self.remaining} remaining)"
        )


class CampaignRunner:
    """Executes the missing cells of a campaign spec against a store.

    Parameters
    ----------
    spec:
        The declarative grid to complete.
    store:
        The persistent store holding completed cells.
    trace_level:
        Per-trial trace retention.  Campaign cells persist only summary
        scalars, so the default is :attr:`TraceLevel.NONE` — memory stays
        flat no matter how large the grid is (workers reduce trials to those
        scalars before returning them).
    pool:
        Optional externally owned :class:`~repro.engine.pool.ExecutionPool`
        to share with other subsystems (e.g. one pool across several
        campaigns and a search); overrides the plan's worker count for
        dispatch.  The runner never shuts down a pool it was handed.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` for the campaign.  A
        parallel plan makes the runner hold one persistent
        :class:`~repro.engine.pool.ExecutionPool` for its whole lifetime
        (all ``run`` invocations included) and batch every pending cell onto
        it with the plan's chunk size; a serial plan executes in-process.
        An ``auto`` plan runs the first pending cell serially, times it,
        and hands the rest of the grid to a pool when
        :func:`~repro.engine.plan.choose_workers` says that pays.
        ``plan.batch`` routes batchable cells through the vectorized
        lockstep kernel with transparent scalar fallback.  No plan ever
        changes the stored rows — they are bit-identical on every path.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  A live handle
        gets campaign lifecycle events, per-cell
        :class:`~repro.telemetry.events.CellCommitted` events, cell-commit
        latency histograms, resume-skip counters, an end-of-run cells/second
        gauge, and — when the runner owns its pool — the pool's dispatch
        instrumentation too.  Telemetry never changes the stored rows:
        campaign stores are byte-identical with it on or off.

    Use as a context manager (or call :meth:`close`) to reclaim the runner's
    own workers deterministically.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        trace_level: TraceLevel = TraceLevel.NONE,
        pool: Optional[ExecutionPool] = None,
        telemetry: Optional[Telemetry] = None,
        *,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        self._spec = spec
        self._store = store
        self._plan = plan if plan is not None else ExecutionPlan()
        self._trace_level = trace_level
        self._batch = self._plan.batch
        self._telemetry = as_telemetry(telemetry)
        self._owns_pool = pool is None and self._plan.parallel
        self._pool = self._plan.pool(telemetry=self._telemetry) if self._owns_pool else pool
        self._metric_cells = self._telemetry.counter(
            "campaign.cells_committed", help="cells executed and committed to the store"
        )
        self._metric_trials = self._telemetry.counter(
            "campaign.trials_recorded", help="trial rows committed across all cells"
        )
        self._metric_reused = self._telemetry.counter(
            "campaign.cells_reused", help="cells skipped on resume (already stored)"
        )
        self._metric_commit_latency = self._telemetry.histogram(
            "campaign.cell_commit_seconds",
            help="per-cell latency from execution start (or pool submission) to commit",
        )
        self._metric_rate = self._telemetry.gauge(
            "campaign.cells_per_second", help="executed cells per second, last run() invocation"
        )
        self._metric_total = self._telemetry.gauge(
            "campaign.cells_total",
            help="cells in the campaign grid (the live monitor's progress denominator)",
        )

    @property
    def spec(self) -> CampaignSpec:
        """The spec this runner completes."""
        return self._spec

    @property
    def plan(self) -> ExecutionPlan:
        """The resolved execution plan this runner follows."""
        return self._plan

    @property
    def pool(self) -> Optional[ExecutionPool]:
        """The execution pool batched runs dispatch on (None = serial)."""
        return self._pool

    def close(self) -> None:
        """Shut down the runner's own pool (a shared ``pool=`` is left alone)."""
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def pending_cells(self) -> list[CampaignCell]:
        """The spec's cells whose keys the store does not hold yet, in grid order."""
        completed = self._store.completed_keys()
        return [cell for cell in self._spec.cells() if cell.key not in completed]

    def status(self) -> CampaignProgress:
        """Current completion state without executing anything."""
        cells = self._spec.cells()
        completed = self._store.completed_keys()
        done = sum(1 for cell in cells if cell.key in completed)
        return CampaignProgress(
            total=len(cells),
            already_complete=done,
            executed=0,
            remaining=len(cells) - done,
        )

    def run(
        self,
        max_cells: Optional[int] = None,
        on_cell: Optional[Callable[[CampaignCell, CampaignProgress], None]] = None,
    ) -> CampaignProgress:
        """Execute the missing cells (up to ``max_cells``), checkpointing each.

        Parameters
        ----------
        max_cells:
            Optional cap on how many cells to execute in this invocation —
            the campaign can be completed incrementally across invocations.
        on_cell:
            Optional callback invoked after each cell commits, with the cell
            and the progress so far (used by the CLI for live status lines).
            Cells commit in grid order on every path.

        Returns
        -------
        CampaignProgress
            What happened: reused vs executed vs still remaining.
        """
        self._spec.validate_workloads()
        self._store.register_campaign(self._spec.name, self._spec.to_json())
        cells = self._spec.cells()
        pending = self.pending_cells()
        pending_keys = {cell.key for cell in pending}
        # Cells another campaign already completed are reused, but this
        # campaign must *claim* them so its own status/aggregates see them.
        self._store.add_cells_to_campaign(
            self._spec.name, [cell.key for cell in cells if cell.key not in pending_keys]
        )
        to_run = pending if max_cells is None else pending[:max_cells]
        reused = len(cells) - len(pending)
        self._metric_total.set(len(cells))
        self._metric_reused.inc(reused)
        started = time.perf_counter()
        if self._telemetry.enabled:
            logger.info(
                "campaign %s: %d cells total, %d pending, %d reused",
                self._spec.name, len(cells), len(pending), reused,
            )
            self._telemetry.emit(
                CampaignStarted(
                    campaign=self._spec.name,
                    total_cells=len(cells),
                    pending_cells=len(pending),
                    reused_cells=reused,
                    workers=self._pool.workers if self._pool is not None else 1,
                    batch=self._batch,
                )
            )

        def progress_after(executed: int) -> CampaignProgress:
            return CampaignProgress(
                total=len(cells),
                already_complete=len(cells) - len(pending),
                executed=executed,
                remaining=len(pending) - executed,
            )

        with self._telemetry.span("campaign.run", campaign=self._spec.name):
            executed = 0
            if self._pool is None and self._plan.auto and to_run:
                first_started = time.perf_counter()
                executed = self._run_cells(to_run[:1], progress_after, on_cell, 0)
                self._settle(to_run, time.perf_counter() - first_started)
            executed = self._run_cells(to_run[executed:], progress_after, on_cell, executed)

        seconds = time.perf_counter() - started
        rate = executed / seconds if seconds > 0 else 0.0
        self._metric_rate.set(rate)
        progress = progress_after(executed)
        if self._telemetry.enabled:
            self._telemetry.emit(
                CampaignCompleted(
                    campaign=self._spec.name,
                    executed=executed,
                    reused=reused,
                    remaining=progress.remaining,
                    seconds=seconds,
                    cells_per_second=rate,
                )
            )
        return progress

    # -- execution paths --------------------------------------------------

    def _cell_template(self, cell: CampaignCell):
        return replace(cell.config(), trace_level=self._trace_level)

    def _commit_cell(self, cell: CampaignCell, reduced: Sequence[ReducedTrial]) -> None:
        records = [TrialRecord.from_reduced(trial) for trial in reduced]
        self._store.record_cell(self._spec.name, cell.key, cell.describe_dict(), records)
        if self._telemetry.enabled and cell.faults is not None:
            # Reduced rows carry only the per-trial worst recovery, so the
            # event stream gets one FaultInjected per fault-injected trial
            # (round_index None) on both the serial and pooled paths.
            for trial in reduced:
                self._telemetry.emit(
                    FaultInjected(seed=trial.seed, recovery_rounds=trial.stabilization_rounds)
                )

    def _observe_commit(
        self, cell: CampaignCell, reduced: Sequence[ReducedTrial], seconds: float
    ) -> None:
        """Record one committed cell: counters, commit-latency histogram, event."""
        self._metric_cells.inc()
        self._metric_trials.inc(len(reduced))
        self._metric_commit_latency.observe(seconds)
        if self._telemetry.enabled:
            self._telemetry.emit(
                CellCommitted(
                    campaign=self._spec.name,
                    cell_key=cell.key,
                    trials=len(reduced),
                    seconds=seconds,
                )
            )

    def _run_cells(
        self,
        cells: Sequence[CampaignCell],
        progress_after: Callable[[int], CampaignProgress],
        on_cell: Optional[Callable[[CampaignCell, CampaignProgress], None]],
        executed: int,
    ) -> int:
        """Run ``cells`` through the one execution path, committing each in grid order.

        On a pool every cell is submitted up front (one ``campaign.dispatch``
        span) and a cell's latency runs from submission to commit; serially
        each cell is one ``campaign.cell`` span and its latency runs from its
        own start.  Returns ``executed`` plus the cells committed here.
        """
        if not cells:
            return executed
        span = self._telemetry.span
        units = (WorkUnit(self._cell_template(cell), cell.seeds) for cell in cells)
        submitted = time.perf_counter()
        if self._pool is not None:
            with span("campaign.dispatch", cells=len(cells)):
                outcomes = run_units(units, self._pool, reduce=True, batch=self._batch)
        else:
            outcomes = run_units(units, reduce=True, batch=self._batch)
        for cell in cells:
            if self._pool is not None:
                reduced = next(outcomes)
                with span("campaign.commit", cell=cell.key):
                    self._commit_cell(cell, reduced)
                started = submitted
            else:
                started = time.perf_counter()
                with span("campaign.cell", cell=cell.key):
                    with span("campaign.execute"):
                        reduced = next(outcomes)
                    with span("campaign.commit"):
                        self._commit_cell(cell, reduced)
            self._observe_commit(cell, reduced, time.perf_counter() - started)
            executed += 1
            if on_cell is not None:
                on_cell(cell, progress_after(executed))
        return executed

    def _settle(self, to_run: Sequence[CampaignCell], first_s: float) -> None:
        """Resolve an ``auto`` plan once the first cell took ``first_s``.

        The measured per-trial cost of that cell, the trials and cells left,
        and the usable cores go through
        :func:`~repro.engine.plan.choose_workers`; when it picks a pool, the
        runner starts (and from then on owns) one for the remaining cells —
        and every later ``run`` of this runner.
        """
        per_trial_s = first_s / max(1, len(to_run[0].seeds))
        rest = to_run[1:]
        settled = self._plan.settle(
            per_trial_s,
            remaining_trials=sum(len(cell.seeds) for cell in rest),
            parallel_units=len(rest),
        )
        logger.info(
            "campaign %s: %.4f s/trial measured, %d cells left; %s",
            self._spec.name, per_trial_s, len(rest), settled.describe(),
        )
        if settled.parallel:
            self._pool = settled.pool(telemetry=self._telemetry)
            self._owns_pool = True
