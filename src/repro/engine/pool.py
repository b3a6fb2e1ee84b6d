"""The persistent execution pool and the one execution path, :func:`run_units`.

Every multi-seed batch in the repository — a ``trials`` run, a campaign's
cells, a search's candidates — reaches the engine through :func:`run_units`:
an ordered list of :class:`WorkUnit` objects in, each unit's rows out, in
unit order.  Without a pool the units run in-process, lazily, one per ``next()``.
With an :class:`ExecutionPool` they go through :meth:`ExecutionPool.run`,
which removes the orchestration tax of small simulations three ways:

* **persistent workers** — the process pool is started lazily on first use and
  reused across every subsequent call (and across
  :meth:`~repro.campaigns.runner.CampaignRunner.run` invocations, search
  generations, …) until :meth:`ExecutionPool.shutdown`;
* **chunked template-and-delta dispatch** — a multi-seed batch ships the
  shared :class:`~repro.engine.simulator.SimulationConfig` template *once per
  chunk* plus the chunk's seeds, instead of one fully pickled config per
  trial;
* **in-worker reduction** — when the caller only persists summary scalars
  (campaign stores, search scores), workers reduce each trial to a compact
  :class:`ReducedTrial` row and the full :class:`SimulationResult` never
  crosses the process boundary, keeping parent memory flat.

Every execution derives all randomness from its own seed, so none of this
changes results: a pooled/chunked/reduced batch is bit-identical to a serial
one (the golden-equivalence suite pins this).

A crashed worker (a hard ``os._exit``, an OOM kill) breaks the underlying
executor.  Whether ``executor.submit`` or a future reports the break, the
pool discards the broken executor and re-dispatches every chunk not yet
drained on fresh workers, within one ``crash_retries`` budget per chunk;
past the budget it raises :class:`WorkerCrashError`, and the *next* call
starts fresh workers.  Unpicklable work runs in-process with a warning.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from repro.engine.results import SimulationResult
from repro.exceptions import ConfigurationError, SimulationError
from repro.telemetry import Telemetry, as_telemetry
from repro.telemetry.events import (
    BatchFallback,
    ChunkDispatched,
    ChunkRetried,
    SerialFallback,
    WorkerCrashRecovered,
)
from repro.telemetry.metrics import WorkerStatsDelta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.simulator import SimulationConfig

logger = logging.getLogger("repro.engine.pool")


class WorkerCrashError(SimulationError):
    """A worker process died mid-batch (not a Python exception — a crash).

    The pool that raised this has already discarded its broken executor; the
    next call on the same pool starts fresh workers.  Because executions are
    deterministic per seed, re-submitting the failed work is always safe.
    """


@dataclass(frozen=True, slots=True)
class ReducedTrial:
    """One execution reduced to the scalars the campaign store persists.

    This mirrors :class:`repro.campaigns.store.TrialRecord` field for field
    (that class lives above the engine layer and converts via
    ``TrialRecord.from_reduced``).  Workers return these instead of full
    :class:`~repro.engine.results.SimulationResult` objects when the caller
    asked for summaries only, so a million-trial campaign ships back a few
    scalars per trial rather than metrics/report object graphs.
    """

    seed: int
    synchronized: bool
    agreement: bool
    safety: bool
    leader_count: int
    max_sync_latency: Optional[int]
    rounds_simulated: int
    stabilization_rounds: Optional[int] = None

    @classmethod
    def from_result(cls, seed: int, result: SimulationResult) -> "ReducedTrial":
        """Extract the persisted scalars from a finished execution."""
        return cls(
            seed=seed,
            synchronized=result.synchronized,
            agreement=result.agreement_holds,
            safety=result.report.all_safety_holds,
            leader_count=result.leader_count,
            max_sync_latency=result.max_sync_latency,
            rounds_simulated=result.metrics.rounds_simulated,
            stabilization_rounds=result.stabilization_rounds,
        )


def simulate_one(template: "SimulationConfig", seed: int) -> SimulationResult:
    """Run one seed of a template in-process — the unit every path executes.

    Every seed chunk calls exactly this, in a worker or in-process, which is
    what keeps seed substitution identical no matter where a trial runs.
    """
    from repro.engine.simulator import simulate

    return simulate(replace(template, seed=seed))


@dataclass(frozen=True, slots=True)
class ChunkResult:
    """One chunk's rows plus the worker's plain-data stats delta.

    This is everything a worker sends back: the results themselves and a
    picklable :class:`~repro.telemetry.metrics.WorkerStatsDelta` — never a
    telemetry handle, lock, or file descriptor.  The parent unwraps it via
    :meth:`ExecutionPool.ingest`, which merges the delta into the live
    registry (if any) and returns the bare rows, so every downstream consumer
    still sees plain result lists.
    """

    rows: tuple
    stats: WorkerStatsDelta


#: First-work timestamp per process id.  Keyed by pid because forked workers
#: inherit the parent's copy of this dict: re-keying under ``os.getpid()``
#: makes each worker measure its *own* uptime (since its first executed
#: chunk), not the parent's.
_WORKER_EPOCH: dict[int, float] = {}


def _worker_identity() -> tuple[int, float]:
    """This process's pid and its uptime since it first executed work."""
    pid = os.getpid()
    now = time.monotonic()
    return pid, now - _WORKER_EPOCH.setdefault(pid, now)


def _chunk_stats(rows: Sequence, batched: bool, seconds: float) -> WorkerStatsDelta:
    """The stats delta one finished chunk contributes (runs in the worker)."""
    rounds = 0
    for row in rows:
        if isinstance(row, ReducedTrial):
            rounds += row.rounds_simulated
        else:
            rounds += row.metrics.rounds_simulated
    pid, uptime = _worker_identity()
    return WorkerStatsDelta.for_chunk(
        pid=pid,
        uptime_s=uptime,
        trials=len(rows),
        rounds=rounds,
        batched=batched,
        seconds=seconds,
    )


def _run_seed_chunk(
    template: "SimulationConfig",
    seeds: tuple[int, ...],
    reduce: bool,
    batch: bool = False,
) -> ChunkResult:
    """Worker entry point: run one chunk of seeds against a shared template.

    With ``batch=True`` the chunk runs through the vectorized lockstep kernel
    (:mod:`repro.engine.batch`) when the template is batchable — bit-identical
    to the scalar loop, just amortized across the chunk's seeds — and falls
    back to the scalar loop per seed otherwise.  The rows come back wrapped
    in a :class:`ChunkResult` carrying this worker's stats delta.
    """
    started = time.perf_counter()
    batched = False
    rows: list[SimulationResult] | list[ReducedTrial]
    if batch:
        from repro.engine.batch import batchable, run_batch, run_reduced_batch

        batched = batchable(template)
        rows = run_reduced_batch(template, seeds) if reduce else run_batch(template, seeds)
    elif reduce:
        rows = [ReducedTrial.from_result(seed, simulate_one(template, seed)) for seed in seeds]
    else:
        rows = [simulate_one(template, seed) for seed in seeds]
    return ChunkResult(
        rows=tuple(rows),
        stats=_chunk_stats(rows, batched, time.perf_counter() - started),
    )


def _run_config_chunk(configs: tuple["SimulationConfig", ...]) -> ChunkResult:
    """Worker entry point: run one chunk of heterogeneous configurations."""
    from repro.engine.simulator import simulate

    started = time.perf_counter()
    rows = [simulate(config) for config in configs]
    return ChunkResult(
        rows=tuple(rows),
        stats=_chunk_stats(rows, False, time.perf_counter() - started),
    )


def payload_is_picklable(payload: object) -> bool:
    """Whether a work payload can cross the process boundary at all."""
    try:
        pickle.dumps(payload)
    except Exception:  # noqa: BLE001 - any pickling failure means no IPC
        return False
    return True


def warn_serial_fallback(
    detail: Optional[str] = None,
    stacklevel: int = 3,
    telemetry: Optional[Telemetry] = None,
) -> None:
    """The one shared unpicklable-work degrade-to-serial notification.

    Every fallback site routes through here, which lands the degradation in
    three places at once: the ``repro.engine.pool`` stdlib logger (so a
    long-running process has it in its logs, not just on a stderr that a
    ``warnings`` filter shows once per process), the classic
    :class:`RuntimeWarning` (so tests and interactive use keep their existing
    contract), and — when a live telemetry handle is passed — a
    :class:`~repro.telemetry.events.SerialFallback` event plus the
    ``pool.serial_fallbacks`` counter.
    """
    message = "simulation config is not picklable"
    if detail:
        message += f" ({detail})"
    message += "; running trials serially instead of with worker processes"
    logger.warning(message)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)
    if telemetry is not None and telemetry.enabled:
        telemetry.counter(
            "pool.serial_fallbacks", help="unpicklable batches degraded to serial"
        ).inc()
        telemetry.emit(SerialFallback(detail=detail))


def warn_fault_batch_fallback(plan: object, stacklevel: int = 3) -> None:
    """The one ``--batch`` + fault-plan degrade-to-scalar notification.

    Fault injection rewrites per-node state mid-run, which the vectorized
    lockstep kernel cannot replay — the batch silently running a *different*
    engine would be worse than the slowdown, so every entry point that routes
    a fault-injected template at the kernel warns exactly once per batch
    (parent-side; the in-worker fallback stays quiet).
    """
    message = (
        f"fault plan {plan.describe()} cannot run on the vectorized lockstep "  # type: ignore[attr-defined]
        "kernel; the batch degrades to the scalar engine per seed"
    )
    logger.warning(message)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One unit of ordered work: a template's seeds, or a tuple of whole configs.

    With a ``template``, ``items`` are seeds substituted into it
    (template-and-delta dispatch).  Without one, ``items`` are complete
    :class:`~repro.engine.simulator.SimulationConfig` objects, for batches
    that differ in more than the seed (a per-seed ``config_for_seed`` hook);
    those always run on the scalar loop and are never reduced.
    """

    template: Optional["SimulationConfig"]
    items: tuple

    @classmethod
    def of_configs(cls, configs: Iterable["SimulationConfig"]) -> "WorkUnit":
        """A unit of heterogeneous configurations, run in the given order."""
        return cls(None, tuple(configs))

    @property
    def payload(self) -> object:
        """What has to pickle for this unit to reach a worker."""
        return self.items if self.template is None else self.template

    def call(
        self, chunk: tuple, reduce: bool, batch: bool
    ) -> tuple[Callable[..., ChunkResult], tuple]:
        """The entry point and arguments that run one chunk of this unit."""
        if self.template is None:
            return _run_config_chunk, (chunk,)
        return _run_seed_chunk, (self.template, chunk, reduce, batch)


def _run_in_process(unit: WorkUnit, chunk: tuple, reduce: bool, batch: bool) -> ChunkResult:
    fn, args = unit.call(chunk, reduce, batch)
    return fn(*args)


def run_units(
    units: Iterable[WorkUnit],
    pool: Optional["ExecutionPool"] = None,
    *,
    reduce: bool = False,
    batch: bool = False,
) -> Iterator[list]:
    """Each unit's rows, in unit order — the one execution path.

    With a ``pool`` this is :meth:`ExecutionPool.run`.  Without one the units
    run in-process, lazily, one per ``next()``, so a caller that commits each
    unit as it arrives keeps one commit per unit, and no ``pool.*`` metric
    moves.  ``reduce=True`` yields :class:`ReducedTrial` rows instead of full
    results; ``batch=True`` runs seed units on the vectorized lockstep kernel
    where the template allows it.  No route changes the rows.
    """
    if pool is not None:
        return pool.run(units, reduce=reduce, batch=batch)
    return (list(_run_in_process(unit, unit.items, reduce, batch).rows) for unit in units)


@dataclass(slots=True)
class _ChunkPayload:
    """One dispatched chunk: how to re-run it, its live future, its retries so far."""

    fn: Callable[..., ChunkResult]
    args: tuple
    future: "Future[ChunkResult]"
    attempt: int = 0


class ExecutionPool:
    """A reusable worker pool for multi-trial simulation batches.

    Parameters
    ----------
    workers:
        Worker processes to keep alive (at least 1).
    chunk_size:
        Seeds (or configs) per dispatched chunk.  ``None`` picks a size that
        spreads a batch over roughly ``4 × workers`` chunks — large enough to
        amortize the template pickle, small enough to keep every worker busy
        — or over ``workers`` chunks for the batch kernel (see :meth:`chunk`).
    crash_retries:
        How many times :meth:`run` re-dispatches a chunk whose worker process
        crashed before letting the :class:`WorkerCrashError` propagate
        (deterministic seeds make the re-run byte-identical).  A crash
        reported by ``executor.submit`` and one reported by a future spend
        the same budget.  ``0`` restores fail-fast.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  A live handle
        counts dispatched chunks/trials per execution path (scalar vs batch),
        tracks the in-flight chunk queue depth, records worker restarts and
        fallbacks, and emits :class:`~repro.telemetry.events.ChunkDispatched`
        events.  ``None`` resolves to the shared disabled handle: every
        instrument is a no-op singleton and dispatch costs nothing extra.
        The handle lives in the submitting process only — a worker never
        receives a telemetry object; it ships back a plain
        :class:`~repro.telemetry.metrics.WorkerStatsDelta` on each chunk,
        which :meth:`ingest` merges into the live registry (``worker.*``
        counters and the per-chunk simulate-seconds histogram).

    The underlying executor starts lazily on first use, so constructing a pool
    costs nothing, and a pool whose work was all served from a cache never
    forks at all.  Use as a context manager (or call :meth:`shutdown`) to
    reclaim the workers deterministically.
    """

    def __init__(
        self,
        workers: int,
        chunk_size: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        crash_retries: int = 2,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"an execution pool needs >= 1 worker, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
        if crash_retries < 0:
            raise ConfigurationError(f"crash_retries must be >= 0, got {crash_retries}")
        self._workers = workers
        self._chunk_size = chunk_size
        self._crash_retries = crash_retries
        self._executor: Optional[ProcessPoolExecutor] = None
        self._starts = 0
        # Instruments are bound once here, so the per-dispatch cost is one
        # attribute read plus (for disabled telemetry) an empty method call.
        self._telemetry = as_telemetry(telemetry)
        self._metric_chunks = self._telemetry.counter(
            "pool.chunks_dispatched", help="chunks submitted to worker processes"
        )
        self._metric_trials = self._telemetry.counter(
            "pool.trials_dispatched", help="seeds submitted across all chunks"
        )
        self._metric_scalar_chunks = self._telemetry.counter(
            "pool.scalar_chunks", help="chunks dispatched to the scalar per-seed loop"
        )
        self._metric_batch_chunks = self._telemetry.counter(
            "pool.batch_chunks", help="chunks dispatched to the vectorized lockstep kernel"
        )
        self._metric_restarts = self._telemetry.counter(
            "pool.worker_restarts", help="executor restarts after a worker crash"
        )
        self._metric_chunk_retries = self._telemetry.counter(
            "pool.chunk_retries", help="chunks re-dispatched after a worker crash"
        )
        self._inflight = self._telemetry.gauge(
            "pool.inflight_chunks", help="chunks submitted but not yet completed"
        )
        self._metric_workers_seen = self._telemetry.gauge(
            "pool.worker_processes_seen", help="distinct worker pids that returned results"
        )
        # Per-worker bookkeeping, fed by ingested chunk deltas and used to
        # attribute crashes (pid + uptime on WorkerCrashRecovered).  Tracked
        # regardless of telemetry: it also sharpens WorkerCrashError messages.
        self._worker_stats: dict[int, WorkerStatsDelta] = {}
        self._worker_first_seen: dict[int, float] = {}

    # -- introspection ----------------------------------------------------

    @property
    def workers(self) -> int:
        """The configured worker-process count."""
        return self._workers

    @property
    def chunk_size(self) -> Optional[int]:
        """The configured chunk size (None = automatic)."""
        return self._chunk_size

    @property
    def crash_retries(self) -> int:
        """How many times a crashed chunk is re-dispatched before raising."""
        return self._crash_retries

    @property
    def starts(self) -> int:
        """How many times the underlying executor has been (re)started.

        Stays at 1 across arbitrarily many calls unless a worker crashed (or
        the pool was shut down and reused) — the lifecycle tests pin this.
        """
        return self._starts

    @property
    def running(self) -> bool:
        """True while an executor is alive."""
        return self._executor is not None

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry handle dispatches report to (disabled by default)."""
        return self._telemetry

    # -- lifecycle --------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
            self._starts += 1
        return self._executor

    def _discard_broken_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def shutdown(self) -> None:
        """Stop the workers (idempotent; the pool restarts lazily if reused)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- chunking ---------------------------------------------------------

    def chunk(self, items: Sequence, batch: bool = False) -> list[tuple]:
        """Split a batch into the chunks one dispatch would use, in order.

        Without an explicit ``chunk_size``, scalar work goes out as ~4 chunks
        per worker, which balances pickling amortization against tail latency
        (the last chunks land on whichever worker frees up).  Batch-kernel
        work goes out as one chunk per worker: the lockstep kernel amortizes
        its per-round cost over a chunk's seeds, so splitting finer only
        multiplies that cost.
        """
        size = self._chunk_size
        if size is None:
            per_worker = 1 if batch else 4
            size = max(1, -(-len(items) // (self._workers * per_worker)))
        return [tuple(items[start : start + size]) for start in range(0, len(items), size)]

    # -- dispatch ---------------------------------------------------------

    def run(
        self, units: Iterable[WorkUnit], reduce: bool = False, batch: bool = False
    ) -> Iterator[list]:
        """Submit every unit's chunks now; iterate over each unit's rows, in unit order.

        A unit's rows come out as soon as that unit and every unit before it
        are done: futures are drained in submission order, so a caller that
        commits each unit as it arrives commits in unit order, at the moment
        its last chunk lands.  Rows within a unit are in seed (or config)
        order, bit-identical to a serial run.

        Every ``BrokenProcessPool`` — raised by ``executor.submit`` or by a
        future — goes through :meth:`_retry_chunks`: the broken executor is
        discarded and every chunk not yet drained is re-dispatched on fresh
        workers, until one of them exhausts ``crash_retries`` and
        :class:`WorkerCrashError` propagates.  An unpicklable unit (one
        warning per call) runs in-process when its turn comes.
        """
        submitted: list[tuple[WorkUnit, list[tuple], Optional[list[_ChunkPayload]]]] = []
        warned = False
        for unit in units:
            # Config units always run on the scalar loop.
            batch_template = unit.template if batch else None
            chunks = self.chunk(list(unit.items), batch=batch_template is not None)
            self._metric_trials.inc(len(unit.items))
            self._metric_chunks.inc(len(chunks))
            if batch_template is not None:
                self._metric_batch_chunks.inc(len(chunks))
                if self._telemetry.enabled:
                    self._probe_batch_fallback(batch_template)
            else:
                self._metric_scalar_chunks.inc(len(chunks))
            if not payload_is_picklable(unit.payload):
                if not warned:
                    warn_serial_fallback(telemetry=self._telemetry)
                    warned = True
                submitted.append((unit, chunks, None))
                continue
            if batch_template is not None and batch_template.faults is not None:
                # An unpicklable unit warns from run_batch in-process instead,
                # so each unit warns exactly once either way.
                warn_fault_batch_fallback(batch_template.faults)
            payloads = []
            for chunk in chunks:
                fn, args = unit.call(chunk, reduce, batch)
                payloads.append(_ChunkPayload(fn, args, self._submit(fn, args)))
            if self._telemetry.enabled:
                self._observe_dispatch(
                    payloads, chunks, reduce=reduce, batch=batch_template is not None
                )
            submitted.append((unit, chunks, payloads))
        return self._drain(submitted, reduce, batch)

    def _drain(
        self,
        submitted: list[tuple[WorkUnit, list[tuple], Optional[list[_ChunkPayload]]]],
        reduce: bool,
        batch: bool,
    ) -> Iterator[list]:
        pending = [payload for _unit, _chunks, payloads in submitted for payload in payloads or ()]
        index = 0
        try:
            for unit, chunks, payloads in submitted:
                rows: list = []
                if payloads is None:
                    for chunk in chunks:
                        rows.extend(self.ingest(_run_in_process(unit, chunk, reduce, batch)))
                    yield rows
                    continue
                stop = index + len(payloads)
                while index < stop:
                    try:
                        outcome = pending[index].future.result()
                    except BrokenProcessPool as error:
                        self._retry_chunks(pending[index:], error)
                        continue
                    rows.extend(self.ingest(outcome))
                    index += 1
                yield rows
        finally:
            # A consumer that stops early (an error, an interrupt) leaves no
            # queued chunk behind.
            for payload in pending[index:]:
                payload.future.cancel()

    def _submit(self, fn: Callable[..., ChunkResult], args: tuple) -> "Future[ChunkResult]":
        """Submit one chunk; a broken executor gives an already-failed future.

        So a crash that ``executor.submit`` notices reaches the drain like one
        a future reports, and spends the same retry budget.
        """
        try:
            return self._ensure_executor().submit(fn, *args)
        except BrokenProcessPool as error:
            future: "Future[ChunkResult]" = Future()
            future.set_exception(error)
            return future

    def _observe_dispatch(
        self,
        payloads: Sequence[_ChunkPayload],
        chunks: Sequence[tuple],
        reduce: bool,
        batch: bool,
    ) -> None:
        """Track queue depth and emit one ChunkDispatched event per chunk.

        Only runs with a live telemetry handle, so the disabled path attaches
        no done-callbacks at all.  Done-callbacks fire on executor threads —
        the gauge takes its own lock — and the events are emitted from the
        submitting thread in chunk order.
        """
        for index, (payload, chunk) in enumerate(zip(payloads, chunks)):
            self._inflight.inc()
            payload.future.add_done_callback(lambda _f: self._inflight.dec())
            self._telemetry.emit(
                ChunkDispatched(
                    chunk_index=index,
                    size=len(chunk),
                    reduce=reduce,
                    batch=batch,
                    inflight=int(self._inflight.value),
                )
            )

    def _probe_batch_fallback(self, template: "SimulationConfig") -> None:
        """Emit a BatchFallback event when a batch=True template is not batchable.

        The probe itself is the same check the worker performs before falling
        back to the scalar loop, run once per dispatch in the parent — live
        telemetry only, so the disabled path never imports the kernel here.
        """
        from repro.engine.batch import batchable

        if batchable(template):
            return
        self._telemetry.counter(
            "pool.batch_fallbacks", help="batch=True dispatches that ran on the scalar loop"
        ).inc()
        faults_note = f", faults={template.faults.describe()}" if template.faults else ""
        reason = (
            f"config not batchable (protocol={type(template.protocol_factory).__name__}, "
            f"adversary={type(template.adversary).__name__}, "
            f"activation={type(template.activation).__name__}, "
            f"trace_level={template.trace_level.value}{faults_note}); chunks run the scalar loop"
        )
        logger.info("batch fallback: %s", reason)
        self._telemetry.emit(BatchFallback(reason=reason))

    def run_seeds(
        self,
        template: "SimulationConfig",
        seeds: Sequence[int],
        reduce: bool = False,
        batch: bool = False,
    ) -> list:
        """One template's seed batch through :meth:`run`, rows in seed order."""
        [rows] = self.run([WorkUnit(template, tuple(seeds))], reduce=reduce, batch=batch)
        return rows

    def ingest(self, outcome: ChunkResult) -> list:
        """Unwrap one chunk outcome: record its worker stats, return the rows.

        Every completed chunk passes through here — pooled or run in-process
        for an unpicklable unit — so worker deltas reach the registry on
        every pooled route.  With telemetry disabled
        the delta still updates the pool's per-worker crash-attribution
        bookkeeping (two dict writes per chunk), but nothing else.
        """
        stats = outcome.stats
        # CLOCK_MONOTONIC is system-wide on the platforms the pool targets,
        # so the worker's uptime anchors its epoch on the parent's clock too.
        self._worker_first_seen.setdefault(stats.pid, time.monotonic() - stats.uptime_s)
        self._worker_stats[stats.pid] = stats
        if self._telemetry.enabled:
            self._telemetry.registry.merge_delta(stats)
            self._metric_workers_seen.set(len(self._worker_stats))
        return list(outcome.rows)

    def worker_stats_for(self, pid: int) -> Optional[WorkerStatsDelta]:
        """The most recent stats delta a worker pid reported (None if unseen)."""
        return self._worker_stats.get(pid)

    def _retry_chunks(
        self, dead: Sequence[_ChunkPayload], error: BrokenProcessPool
    ) -> list["Future[ChunkResult]"]:
        """Re-dispatch a group of crash-failed chunks; return their fresh futures.

        A worker crash breaks the whole executor, so every chunk not yet
        drained goes out again as one group on a fresh executor (each
        payload's future is replaced in place, so rows still land in order).
        Raises the wrapped :class:`WorkerCrashError` when any of them has
        exhausted ``crash_retries`` — :meth:`recover` runs either way, so the
        pool is reusable after the raise.
        """
        crash = self.recover(error)
        if any(payload.attempt >= self._crash_retries for payload in dead):
            raise crash from error
        for payload in dead:
            payload.attempt += 1
            payload.future = self._submit(payload.fn, payload.args)
        fresh = [payload.future for payload in dead]
        attempt = max(payload.attempt for payload in dead)
        self._metric_chunk_retries.inc(len(fresh))
        logger.warning(
            "re-dispatching %d chunk(s) after worker crash (attempt %d of %d)",
            len(fresh),
            attempt,
            self._crash_retries,
        )
        if self._telemetry.enabled:
            self._telemetry.emit(
                ChunkRetried(detail=str(error), chunks=len(fresh), attempt=attempt)
            )
        return fresh

    def _crashed_workers(self) -> list[tuple[int, Optional[float]]]:
        """The current executor's abnormally dead workers, as (pid, uptime).

        Inspected *before* the broken executor is discarded.  Workers the
        executor's own teardown terminated (SIGTERM) are excluded, so one bad
        worker reads differently from the collateral shutdown of the rest of
        the pool.  Detection is best-effort: an executor that already reaped
        its children reports nothing, and a worker that never completed a
        chunk has no first-seen timestamp (uptime ``None``).
        """
        processes = getattr(self._executor, "_processes", None) or {}
        now = time.monotonic()
        crashed: list[tuple[int, Optional[float]]] = []
        for pid, process in sorted(processes.items()):
            exitcode = getattr(process, "exitcode", None)
            if exitcode is None or exitcode in (0, -signal.SIGTERM):
                continue
            first_seen = self._worker_first_seen.get(pid)
            crashed.append((pid, now - first_seen if first_seen is not None else None))
        return crashed

    def recover(self, error: BaseException) -> WorkerCrashError:
        """Discard the broken executor and wrap ``error`` for re-raising.

        Every crash :meth:`_retry_chunks` handles comes through here: after
        this returns, the pool is reusable (the next dispatch forks
        fresh workers), and the returned :class:`WorkerCrashError` explains
        what happened to whoever re-raises it.  Each identified dead worker
        gets its own :class:`~repro.telemetry.events.WorkerCrashRecovered`
        event carrying its pid and uptime at crash.
        """
        crashed = self._crashed_workers()
        self._discard_broken_executor()
        self._metric_restarts.inc()
        logger.warning("worker process crashed mid-batch (%s); pool reset for restart", error)
        if self._telemetry.enabled:
            restarts = int(self._metric_restarts.value)
            if crashed:
                for pid, uptime in crashed:
                    self._telemetry.emit(
                        WorkerCrashRecovered(
                            detail=str(error), restarts=restarts, pid=pid, uptime_s=uptime
                        )
                    )
            else:
                self._telemetry.emit(WorkerCrashRecovered(detail=str(error), restarts=restarts))
        pids = ", ".join(str(pid) for pid, _ in crashed) if crashed else "unknown pid"
        return WorkerCrashError(
            f"a worker process crashed mid-batch ({error}; {pids}); the pool "
            "has been reset and the next call will start fresh workers — "
            "deterministic seeds make it safe to re-submit the failed work"
        )
