"""Lifecycle, chunking, reduction, and crash-recovery tests for ExecutionPool.

The pool's contract has three legs:

* **bit-identity** — pooled / chunked / reduced execution produces exactly
  the results (and reduced rows) of a serial run, for any chunk size;
* **persistence** — one executor start serves arbitrarily many calls (and
  arbitrarily many ``CampaignRunner.run`` / search invocations);
* **crash safety** — a worker dying (a hard ``os._exit`` or a SIGKILL, not a
  Python exception) is retried within one ``crash_retries`` budget whether
  ``executor.submit`` or a future reports it, on every path including a
  pooled campaign; past the budget it surfaces as :class:`WorkerCrashError`
  and the same pool object is usable again immediately, on fresh workers.
"""

from __future__ import annotations

import json
import os
import signal
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.adversary.activation import StaggeredActivation
from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.adversary.jammers import RandomJammer
from repro.campaigns.query import export_campaign
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CAMPAIGN_WORKLOADS, CampaignSpec
from repro.campaigns.store import ResultStore
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
import repro.engine.pool as pool_module
from repro.engine.pool import ExecutionPool, ReducedTrial, WorkerCrashError, WorkUnit, run_units
from repro.engine.runner import run_reduced_trials, run_trials
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.experiments.workloads import Workload, quiet_start
from repro.protocols.trapdoor.protocol import TrapdoorProtocol
from repro.telemetry import Telemetry


@pytest.fixture
def batch_config(params):
    return SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=4, spacing=2),
        adversary=RandomJammer(),
        max_rounds=10_000,
        trace_level=TraceLevel.NONE,
    )


@pytest.fixture
def pool():
    with ExecutionPool(workers=2, chunk_size=2) as pool:
        yield pool


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ExecutionPool(workers=0)

    def test_rejects_non_positive_chunk(self):
        with pytest.raises(ConfigurationError):
            ExecutionPool(workers=2, chunk_size=0)

    def test_rejects_negative_crash_retries(self):
        with pytest.raises(ConfigurationError):
            ExecutionPool(workers=2, crash_retries=-1)

    def test_construction_is_lazy(self):
        pool = ExecutionPool(workers=2)
        assert not pool.running
        assert pool.starts == 0


class TestChunking:
    def test_explicit_chunk_size_partitions_in_order(self):
        pool = ExecutionPool(workers=2, chunk_size=3)
        assert pool.chunk(list(range(8))) == [(0, 1, 2), (3, 4, 5), (6, 7)]

    def test_automatic_chunking_targets_four_chunks_per_worker(self):
        pool = ExecutionPool(workers=2)
        chunks = pool.chunk(list(range(80)))
        assert len(chunks) == 8
        assert [item for chunk in chunks for item in chunk] == list(range(80))

    def test_small_batches_fall_back_to_single_item_chunks(self):
        pool = ExecutionPool(workers=4)
        assert pool.chunk([1, 2]) == [(1,), (2,)]

    def test_batch_kernel_chunks_are_one_per_worker(self):
        pool = ExecutionPool(workers=2)
        # A 6-seed cell reaches the lockstep kernel as two 3-seed batches,
        # not six 1-seed ones.
        assert pool.chunk(list(range(6)), batch=True) == [(0, 1, 2), (3, 4, 5)]
        assert pool.chunk(list(range(7)), batch=True) == [(0, 1, 2, 3), (4, 5, 6)]
        assert pool.chunk([0], batch=True) == [(0,)]
        assert len(pool.chunk(list(range(6)))) == 6

    def test_batch_kernel_chunking_honours_an_explicit_chunk_size(self):
        pool = ExecutionPool(workers=2, chunk_size=2)
        assert pool.chunk(list(range(6)), batch=True) == [(0, 1), (2, 3), (4, 5)]

    def test_batch_dispatch_submits_one_chunk_per_worker(self, batch_config):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        with ExecutionPool(workers=2, telemetry=telemetry) as pool:
            rows = pool.run_seeds(batch_config, range(6), reduce=True, batch=True)
        assert rows == list(run_reduced_trials(batch_config, seeds=range(6)))
        counters = telemetry.snapshot()["counters"]
        assert counters["pool.batch_chunks"] == 2
        assert counters["pool.trials_dispatched"] == 6


class TestBitIdentity:
    def test_pooled_matches_serial_for_every_chunk_size(self, batch_config):
        serial = run_trials(batch_config, seeds=5)
        for chunk_size in (1, 2, 5, None):
            with ExecutionPool(workers=2, chunk_size=chunk_size) as pool:
                pooled = run_trials(batch_config, seeds=5, pool=pool)
            assert pooled.seeds == serial.seeds
            assert pooled.latencies() == serial.latencies()
            for serial_result, pooled_result in zip(serial.results, pooled.results):
                assert pooled_result.metrics == serial_result.metrics
                assert pooled_result.report.violations == serial_result.report.violations

    def test_in_worker_reduction_matches_parent_reduction(self, batch_config, pool):
        summary = run_trials(batch_config, seeds=5)
        reduced = run_reduced_trials(batch_config, seeds=5, pool=pool)
        assert reduced == tuple(
            ReducedTrial.from_result(seed, result)
            for seed, result in zip(summary.seeds, summary.results)
        )

    def test_serial_reduction_matches_pooled_reduction(self, batch_config, pool):
        assert run_reduced_trials(batch_config, seeds=5) == run_reduced_trials(
            batch_config, seeds=5, pool=pool
        )

    def test_explicit_seed_order_is_preserved(self, batch_config, pool):
        reduced = run_reduced_trials(batch_config, seeds=(9, 2, 5), pool=pool)
        assert tuple(trial.seed for trial in reduced) == (9, 2, 5)

    def test_config_hook_routes_through_the_pool_generic_path(self, batch_config, pool):
        hook_seeds = []

        def hook(config, seed):
            hook_seeds.append(seed)
            return config

        serial = run_trials(batch_config, seeds=3, config_for_seed=hook)
        pooled = run_trials(batch_config, seeds=3, config_for_seed=hook, pool=pool)
        assert hook_seeds == [0, 1, 2, 0, 1, 2]  # the hook always runs in the parent
        assert pooled.latencies() == serial.latencies()


class TestPersistence:
    def test_one_start_serves_many_calls(self, batch_config, pool):
        for _ in range(3):
            run_trials(batch_config, seeds=3, pool=pool)
        assert pool.starts == 1

    def test_shutdown_is_idempotent_and_pool_restarts_lazily(self, batch_config):
        pool = ExecutionPool(workers=2)
        run_trials(batch_config, seeds=2, pool=pool)
        pool.shutdown()
        pool.shutdown()
        assert not pool.running
        summary = run_trials(batch_config, seeds=2, pool=pool)
        assert summary.trials == 2
        assert pool.starts == 2
        pool.shutdown()


class TestUnpicklableFallback:
    def test_closure_template_degrades_to_serial_with_warning(self, params, pool):
        config = SimulationConfig(
            params=params,
            protocol_factory=lambda context: TrapdoorProtocol(context),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=RandomJammer(),
            max_rounds=10_000,
        )
        serial = run_trials(config, seeds=2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = run_trials(config, seeds=2, pool=pool)
        assert fallback.latencies() == serial.latencies()
        assert not pool.running  # nothing was ever dispatched


def _closure_config(config):
    """``config`` with a lambda protocol factory: equal rows, but it cannot pickle."""
    return replace(config, protocol_factory=lambda context: TrapdoorProtocol(context))


class TestRunUnits:
    """The one drain: ordered units in, each unit's rows out, on every route."""

    @pytest.fixture
    def units(self, batch_config):
        other = replace(batch_config, activation=StaggeredActivation(count=3, spacing=1))
        return [
            WorkUnit(batch_config, (0, 1, 2)),
            WorkUnit(other, (4, 2)),
            WorkUnit(batch_config, (7,)),
        ]

    def test_serial_units_come_back_in_unit_order(self, units):
        rows = list(run_units(units, reduce=True))
        assert rows == [
            list(run_reduced_trials(unit.template, seeds=unit.items)) for unit in units
        ]

    def test_pooled_units_match_serial_units(self, units, pool):
        assert list(run_units(units, pool, reduce=True)) == list(run_units(units, reduce=True))

    def test_full_results_keep_seed_order_within_each_unit(self, units, pool):
        pooled = list(run_units(units, pool))
        serial = list(run_units(units))
        assert [len(rows) for rows in pooled] == [len(unit.items) for unit in units]
        for pooled_rows, serial_rows in zip(pooled, serial):
            assert [r.metrics for r in pooled_rows] == [r.metrics for r in serial_rows]

    def test_serial_run_is_lazy_one_unit_per_next(self, units, monkeypatch):
        ran = []
        real = pool_module._run_in_process

        def recording(unit, chunk, reduce, batch):
            ran.append(unit)
            return real(unit, chunk, reduce, batch)

        monkeypatch.setattr(pool_module, "_run_in_process", recording)
        drain = run_units(units, reduce=True)
        assert ran == []
        next(drain)
        assert ran == units[:1]
        next(drain)
        assert ran == units[:2]

    def test_no_units_start_no_workers(self):
        with ExecutionPool(workers=2) as pool:
            assert list(pool.run([])) == []
            assert pool.starts == 0

    def test_run_seeds_is_one_unit_of_run(self, batch_config, pool):
        [rows] = pool.run([WorkUnit(batch_config, (3, 1))], reduce=True)
        assert pool.run_seeds(batch_config, (3, 1), reduce=True) == rows

    def test_config_unit_on_a_pool_matches_in_process(self, batch_config, pool):
        unit = WorkUnit.of_configs(replace(batch_config, seed=seed) for seed in (5, 0, 2))
        [pooled] = run_units([unit], pool)
        [serial] = run_units([unit])
        assert [r.metrics for r in pooled] == [r.metrics for r in serial]

    def test_config_units_are_never_reduced_or_batched(self, batch_config):
        telemetry = Telemetry()
        unit = WorkUnit.of_configs(replace(batch_config, seed=seed) for seed in range(3))
        with ExecutionPool(workers=2, chunk_size=1, telemetry=telemetry) as pool:
            [rows] = pool.run([unit], reduce=True, batch=True)
        assert not any(isinstance(row, ReducedTrial) for row in rows)
        counters = telemetry.snapshot()["counters"]
        assert counters["pool.scalar_chunks"] == 3
        assert counters["pool.batch_chunks"] == 0

    def test_every_unit_is_counted_once_per_chunk(self, units):
        telemetry = Telemetry()
        with ExecutionPool(workers=2, chunk_size=2, telemetry=telemetry) as pool:
            list(pool.run(units, reduce=True))
        counters = telemetry.snapshot()["counters"]
        assert counters["pool.trials_dispatched"] == 6
        # (0, 1) (2,) | (4, 2) | (7,)
        assert counters["pool.chunks_dispatched"] == 4
        assert counters["events.chunk-dispatched"] == 4

    def test_unpicklable_units_warn_once_per_call_and_keep_their_place(self, units, pool):
        mixed = [
            WorkUnit(_closure_config(units[0].template), units[0].items),
            units[1],
            WorkUnit(_closure_config(units[2].template), units[2].items),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = list(pool.run(mixed, reduce=True))
        fallbacks = [w for w in caught if "not picklable" in str(w.message)]
        assert len(fallbacks) == 1
        assert rows == list(run_units(units, reduce=True))

    def test_a_consumer_that_stops_early_leaves_the_pool_usable(self, batch_config, units):
        many = units + [WorkUnit(batch_config, tuple(range(8)))]
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            drain = pool.run(many, reduce=True)
            first = next(drain)
            drain.close()
            assert first == list(run_reduced_trials(batch_config, seeds=(0, 1, 2)))
            again = pool.run_seeds(batch_config, (0, 1, 2), reduce=True)
            assert again == first
            assert pool.starts == 1


@dataclass(frozen=True)
class PoisonAdversary(InterferenceAdversary):
    """Kills the worker process outright on its first round.

    ``os._exit`` bypasses every Python-level handler — what an OOM kill or a
    segfault looks like from the parent's side — so it exercises the
    BrokenProcessPool path rather than ordinary exception propagation.  The
    adversary is a picklable dataclass on purpose: the batch must *reach* the
    workers (an unpicklable poison would just take the serial fallback, and
    running it in-process would kill the test itself).
    """

    def choose_disruption(self, context: AdversaryContext) -> frozenset:
        os._exit(1)


@dataclass(frozen=True)
class CrashOnceAdversary(InterferenceAdversary):
    """Kills the first worker to run it, then behaves like no interference.

    The sentinel file is created *before* ``os._exit``, so every later
    attempt — the pool's automatic retry, or a serial comparison run — sees
    it and chooses no disruption: one deterministic crash, then a clean
    deterministic execution, which is exactly what the retry budget exists
    to absorb.
    """

    sentinel: str

    def choose_disruption(self, context: AdversaryContext) -> frozenset:
        if not os.path.exists(self.sentinel):
            Path(self.sentinel).touch()
            os._exit(1)
        return frozenset()


class TestCrashRecovery:
    def _poison_config(self, params):
        return SimulationConfig(
            params=params,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=PoisonAdversary(),
            max_rounds=5_000,
            trace_level=TraceLevel.NONE,
        )

    def test_worker_crash_raises_and_pool_recovers(self, params, batch_config):
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            healthy = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 1
            with pytest.raises(WorkerCrashError, match="crashed mid-batch"):
                run_trials(self._poison_config(params), seeds=3, pool=pool)
            # An always-crashing batch burns the full default retry budget:
            # one executor restart per retry round (starts 2 and 3), then the
            # third crash exhausts the budget and raises.  The broken
            # executor was discarded either way; the same pool object works
            # again on fresh workers, bit-identically.
            assert not pool.running
            again = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 4
            assert again.latencies() == healthy.latencies()

    def test_crash_during_reduction_recovers_too(self, params, batch_config):
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            with pytest.raises(WorkerCrashError):
                run_reduced_trials(self._poison_config(params), seeds=2, pool=pool)
            reduced = run_reduced_trials(batch_config, seeds=2, pool=pool)
            assert reduced == run_reduced_trials(batch_config, seeds=2)


class TestCrashRetry:
    def _crash_once_config(self, params, tmp_path):
        return SimulationConfig(
            params=params,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=CrashOnceAdversary(sentinel=str(tmp_path / "crashed-once")),
            max_rounds=5_000,
            trace_level=TraceLevel.NONE,
        )

    def test_retry_completes_the_batch_after_a_single_crash(self, params, tmp_path):
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            summary = run_trials(config, seeds=3, pool=pool)
            # One crash, one retry round, no error surfaced to the caller.
            assert pool.starts == 2
        assert summary.trials == 3
        # The sentinel exists now, so a serial run takes the quiet branch —
        # the retried batch must match it bit-for-bit.
        serial = run_trials(config, seeds=3)
        assert summary.latencies() == serial.latencies()
        for pooled_result, serial_result in zip(summary.results, serial.results):
            assert pooled_result.metrics == serial_result.metrics

    def test_zero_retries_restores_fail_fast(self, params, tmp_path):
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            with pytest.raises(WorkerCrashError):
                run_trials(config, seeds=3, pool=pool)
            assert pool.starts == 1

    def test_retry_counts_land_in_telemetry(self, params, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1, telemetry=telemetry) as pool:
            run_trials(config, seeds=3, pool=pool)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["pool.worker_restarts"] == 1
        # The crash broke the whole executor, so every not-yet-consumed chunk
        # of the batch was re-dispatched together.
        assert snapshot["counters"]["pool.chunk_retries"] >= 1
        assert snapshot["counters"]["events.chunk-retried"] >= 1

    def test_reduced_rows_survive_a_retry(self, params, tmp_path):
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            reduced = run_reduced_trials(config, seeds=2, pool=pool)
        assert reduced == run_reduced_trials(config, seeds=2)


class TestOneCrashBudget:
    """Submit-time, drain-time and pooled-campaign crashes spend one budget."""

    def test_workers_killed_between_calls_are_retried(self, batch_config):
        serial = run_trials(batch_config, seeds=3)
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            run_trials(batch_config, seeds=3, pool=pool)
            executor = pool._executor
            for process in list(executor._processes.values()):
                os.kill(process.pid, signal.SIGKILL)
            # The executor's manager thread marks the executor broken and
            # exits, so once it is joined the next executor.submit itself
            # raises BrokenProcessPool: no sleep, no race.
            manager = executor._executor_manager_thread
            manager.join(timeout=30)
            assert not manager.is_alive()
            again = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 2
        assert again.latencies() == serial.latencies()
        for pooled_result, serial_result in zip(again.results, serial.results):
            assert pooled_result.metrics == serial_result.metrics

    @staticmethod
    def _kill_workers(pool):
        """SIGKILL every worker and wait until the executor knows it is broken."""
        executor = pool._executor
        for process in list(executor._processes.values()):
            os.kill(process.pid, signal.SIGKILL)
        manager = executor._executor_manager_thread
        manager.join(timeout=30)
        assert not manager.is_alive()

    def test_killed_workers_with_no_budget_raise_and_the_pool_recovers(self, batch_config):
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            healthy = run_trials(batch_config, seeds=3, pool=pool)
            self._kill_workers(pool)
            with pytest.raises(WorkerCrashError, match="crashed mid-batch"):
                run_trials(batch_config, seeds=3, pool=pool)
            assert not pool.running
            again = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 2
        assert again.latencies() == healthy.latencies()

    def test_a_submit_time_crash_is_counted_as_one_retry_round(self, batch_config):
        telemetry = Telemetry()
        with ExecutionPool(workers=2, chunk_size=1, telemetry=telemetry) as pool:
            run_reduced_trials(batch_config, seeds=3, pool=pool)
            self._kill_workers(pool)
            reduced = run_reduced_trials(batch_config, seeds=3, pool=pool)
        assert reduced == run_reduced_trials(batch_config, seeds=3)
        counters = telemetry.snapshot()["counters"]
        assert counters["pool.worker_restarts"] == 1
        assert counters["events.chunk-retried"] == 1
        # Every chunk of the second call failed at submit and went out again.
        assert counters["pool.chunk_retries"] == 3

    def test_a_mid_run_crash_keeps_every_unit_in_order(
        self, params, batch_config, tmp_path
    ):
        crash_once = replace(
            batch_config,
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=CrashOnceAdversary(sentinel=str(tmp_path / "crashed-once")),
            max_rounds=5_000,
        )
        units = [
            WorkUnit(batch_config, (0, 1)),
            WorkUnit(crash_once, (0, 1, 2)),
            WorkUnit(batch_config, (2, 3)),
        ]
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            pooled = list(pool.run(units, reduce=True))
            assert pool.starts == 2
        assert pooled == list(run_units(units, reduce=True))

    def test_an_exhausted_budget_surfaces_after_the_earlier_units(self, params, batch_config):
        poison = TestCrashRecovery()._poison_config(params)
        # The first unit runs in-process, so no crash can reach it: its rows
        # must come out before the second unit's crash is raised.
        units = [WorkUnit(_closure_config(batch_config), (0, 1)), WorkUnit(poison, (0, 1))]
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=1) as pool:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                drain = pool.run(units, reduce=True)
            assert next(drain) == list(run_reduced_trials(batch_config, seeds=(0, 1)))
            with pytest.raises(WorkerCrashError):
                next(drain)
            # One retry round, then the second crash exhausted the budget.
            assert pool.starts == 2
            assert not pool.running

    def test_pooled_campaign_retries_a_crashed_cell(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "crashed-once"

        def crash_once(node_count):
            base = quiet_start(node_count)
            return Workload(
                name="crash_once",
                activation=base.activation,
                adversary=CrashOnceAdversary(sentinel=str(sentinel)),
                description="kills the first worker to run it",
            )

        monkeypatch.setitem(CAMPAIGN_WORKLOADS, "pool_test_crash_once", crash_once)
        spec = CampaignSpec(
            name="crash",
            protocols=("trapdoor",),
            workloads=("quiet_start", "pool_test_crash_once"),
            frequencies=(4,),
            budgets=(1,),
            participants=(8,),
            node_counts=(2, 3),
            seeds=2,
            max_rounds=5_000,
        )
        with ResultStore(tmp_path / "pooled.db") as pooled:
            with CampaignRunner(spec, pooled, plan=ExecutionPlan(workers=2)) as runner:
                assert runner.run().complete
                assert runner.pool is not None and runner.pool.starts == 2
            assert sentinel.exists()
            # The sentinel now exists, so a serial run takes the quiet branch
            # the retried chunks took.
            with ResultStore(tmp_path / "serial.db") as serial:
                CampaignRunner(spec, serial, plan=ExecutionPlan(workers=1)).run()
                assert list(pooled.iter_cells("crash")) == list(serial.iter_cells("crash"))
                exported = [
                    export_campaign(store, "crash", tmp_path / f"{label}.json").read_bytes()
                    for label, store in (("pooled", pooled), ("serial", serial))
                ]
        assert exported[0] == exported[1]
        assert len(json.loads(exported[0])["cells"]) == 4
