"""The unified execution surface: ExecutionPlan.

Pins the three contracts of the API redesign:

- :class:`~repro.engine.plan.ExecutionPlan` is a frozen, validated,
  JSON-round-trippable value — the one serializable spelling of "how should
  this execute" shared by the Python API, the CLI, and the service wire
  schema.
- Every public entry point (:func:`run_trials`, :func:`run_reduced_trials`,
  :class:`CampaignRunner`, :class:`StrategySearch`,
  :meth:`SearchObjective.evaluate`) takes ``plan=`` (plus ``pool=`` for a
  shared live pool) and no other execution parameter.
- Results are identical under every plan.
"""

from __future__ import annotations

import inspect
import json
import warnings

import pytest

from repro.adversary.activation import SimultaneousActivation
from repro.adversary.jammers import NoInterference
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
import repro.engine.plan as plan_module
from repro.engine.plan import AUTO, PLAN_SCHEMA, ExecutionPlan, choose_workers
from repro.engine.pool import ExecutionPool
from repro.engine.runner import run_reduced_trials, run_trials
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory
from repro.search.checkpoint import SearchSpec
from repro.search.objective import SearchObjective
from repro.search.runner import StrategySearch
from repro.search.space import ParametricGenome

PARAMS = ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8)


def small_config() -> SimulationConfig:
    return SimulationConfig(
        params=PARAMS,
        protocol_factory=protocol_factory("trapdoor"),
        activation=SimultaneousActivation(count=2),
        adversary=NoInterference(),
        max_rounds=2_000,
    )


class TestExecutionPlanValue:
    def test_json_round_trip_is_identity(self):
        plan = ExecutionPlan(
            workers=4,
            pool_chunk=2,
            batch=True,
            telemetry_events="events.jsonl",
            telemetry_rotate_bytes=1_000_000,
            metrics_out="metrics.json",
        )
        assert ExecutionPlan.from_json(plan.to_json()) == plan
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_default_plan_is_serial(self):
        plan = ExecutionPlan()
        assert not plan.parallel
        assert plan.workers == 1
        assert plan.pool() is None

    def test_dict_form_is_schema_tagged(self):
        assert ExecutionPlan().to_dict()["schema"] == PLAN_SCHEMA

    def test_serial_keeps_batch_drops_dispatch(self):
        plan = ExecutionPlan(workers=8, pool_chunk=4, batch=True)
        serial = plan.serial()
        assert serial.workers == 1
        assert serial.pool_chunk is None
        assert serial.batch is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"workers": "fast"},
            {"workers": "2"},
            {"workers": True},
            {"pool_chunk": 0},
            {"telemetry_rotate_bytes": 0},
        ],
    )
    def test_invalid_fields_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(**kwargs)

    def test_from_dict_rejects_unknown_schema(self):
        data = ExecutionPlan().to_dict()
        data["schema"] = "repro.execution-plan/v999"
        with pytest.raises(ConfigurationError, match="schema"):
            ExecutionPlan.from_dict(data)

    def test_from_dict_rejects_unknown_fields(self):
        data = ExecutionPlan().to_dict()
        data["wrokers"] = 4
        with pytest.raises(ConfigurationError, match="wrokers"):
            ExecutionPlan.from_dict(data)

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan.from_json("{not json")


class TestAutoPlan:
    def test_auto_round_trips_through_json(self):
        plan = ExecutionPlan(workers=AUTO, pool_chunk=2)
        assert plan.auto and not plan.parallel and plan.worker_count == 1
        assert json.loads(plan.to_json())["workers"] == "auto"
        assert ExecutionPlan.from_json(plan.to_json()) == plan
        assert plan.pool() is None
        assert plan.describe().startswith("auto workers")

    def test_library_default_stays_serial(self):
        assert not ExecutionPlan().auto

    def test_settle_resolves_only_auto(self, monkeypatch):
        monkeypatch.setattr(plan_module, "usable_cores", lambda: 4)
        monkeypatch.setattr(plan_module, "POOL_SPINUP_S", 0.05)
        auto = ExecutionPlan(workers=AUTO, pool_chunk=3)
        assert auto.settle(0.01, remaining_trials=100, parallel_units=8) == ExecutionPlan(
            workers=4, pool_chunk=3
        )
        assert auto.settle(0.01, remaining_trials=2, parallel_units=8).workers == 1
        fixed = ExecutionPlan(workers=3)
        assert fixed.settle(0.0, remaining_trials=0, parallel_units=0) is fixed

    def test_run_trials_treats_auto_as_serial(self):
        serial = run_trials(small_config(), seeds=3)
        auto = run_trials(small_config(), seeds=3, plan=ExecutionPlan(workers=AUTO))
        assert [r.max_sync_latency for r in auto.results] == [
            r.max_sync_latency for r in serial.results
        ]


class TestChooseWorkers:
    """The auto rule on injected costs, cores and work: no wall-clock timing."""

    def test_tiny_grids_stay_serial(self):
        # 3 trials at 5 ms each cost less than one pool spin-up.
        assert choose_workers(0.005, 3, 3, cores=2, spinup_s=0.06) == 1

    def test_large_grids_switch_to_a_pool(self):
        assert choose_workers(0.07, 30, 15, cores=2, spinup_s=0.06) == 2

    def test_pool_size_is_capped_by_cores_and_parallel_units(self):
        assert choose_workers(0.07, 300, 15, cores=8, spinup_s=0.06) == 8
        assert choose_workers(0.07, 300, 3, cores=8, spinup_s=0.06) == 3

    def test_one_core_never_pools(self):
        assert choose_workers(10.0, 10_000, 100, cores=1, spinup_s=0.06) == 1

    def test_one_remaining_unit_never_pools(self):
        assert choose_workers(10.0, 10_000, 1, cores=8, spinup_s=0.06) == 1
        assert choose_workers(10.0, 0, 0, cores=8, spinup_s=0.06) == 1

    def test_break_even_stays_serial(self):
        assert choose_workers(0.25, 2, 6, cores=2, spinup_s=0.5) == 1
        assert choose_workers(0.25, 3, 6, cores=2, spinup_s=0.5) == 2

    def test_batch_kernel_work_never_pools(self):
        assert choose_workers(10.0, 10_000, 100, cores=8, spinup_s=0.06, batch=True) == 1


class TestOneExecutionSurface:
    """``plan=`` and ``pool=`` are the only execution parameters left."""

    @pytest.mark.parametrize(
        "api",
        [
            run_trials,
            run_reduced_trials,
            CampaignRunner.__init__,
            StrategySearch.__init__,
            SearchObjective.evaluate,
        ],
        ids=["run_trials", "run_reduced_trials", "CampaignRunner", "StrategySearch", "evaluate"],
    )
    def test_no_legacy_execution_kwargs(self, api):
        parameters = inspect.signature(api).parameters
        assert "plan" in parameters
        assert not {"workers", "pool_chunk", "batch"} & set(parameters)

    def test_plan_spelling_is_warning_free(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_trials(small_config(), seeds=1, plan=ExecutionPlan())
            run_reduced_trials(small_config(), seeds=1, plan=ExecutionPlan())
            _search_spec("plan-objective").objective.evaluate(
                ParametricGenome(name="fixed-band"), plan=ExecutionPlan()
            )
            with ResultStore(str(tmp_path / "store.sqlite")) as store:
                with CampaignRunner(
                    _campaign_spec("plan-campaign"), store, plan=ExecutionPlan()
                ) as runner:
                    runner.run()
                with StrategySearch(_search_spec("plan-search"), store, plan=ExecutionPlan()):
                    pass

    def test_a_parallel_plan_without_a_pool_shuts_its_own_pool_down(self, monkeypatch):
        shut_down = []
        real = ExecutionPool.shutdown

        def recording(pool):
            shut_down.append(pool)
            real(pool)

        monkeypatch.setattr(ExecutionPool, "shutdown", recording)
        summary = run_trials(small_config(), seeds=3, plan=ExecutionPlan(workers=2))
        assert summary.latencies() == run_trials(small_config(), seeds=3).latencies()
        [scoped] = shut_down
        assert scoped.starts == 1 and not scoped.running

    def test_a_shared_pool_outlives_the_call(self):
        with ExecutionPool(workers=2) as pool:
            run_reduced_trials(small_config(), seeds=3, plan=ExecutionPlan(workers=2), pool=pool)
            assert pool.running
            run_trials(small_config(), seeds=3, pool=pool)
            assert pool.starts == 1


class TestSpellingEquivalence:
    """Every plan dispatches to identical results."""

    def test_run_trials_parallel_plan_equals_serial(self):
        serial = run_trials(small_config(), seeds=3)
        via_plan = run_trials(small_config(), seeds=3, plan=ExecutionPlan(workers=2))
        assert via_plan.latencies() == serial.latencies()
        for a, b in zip(via_plan.results, serial.results):
            assert a.metrics == b.metrics

    def test_run_trials_chunked_plan_matches_serial(self):
        serial = run_trials(small_config(), seeds=4)
        chunked = run_trials(
            small_config(), seeds=4, plan=ExecutionPlan(workers=2, pool_chunk=2)
        )
        assert chunked.latencies() == serial.latencies()

    def test_run_reduced_trials_parallel_plan_matches_serial(self):
        serial = run_reduced_trials(small_config(), seeds=3)
        parallel = run_reduced_trials(
            small_config(), seeds=3, plan=ExecutionPlan(workers=2, pool_chunk=1)
        )
        assert parallel == serial

    def test_campaign_runner_pooled_plan_matches_serial_store(self, tmp_path):
        spec = _campaign_spec("equivalence")
        with ResultStore(str(tmp_path / "pooled.sqlite")) as store:
            with CampaignRunner(spec, store, plan=ExecutionPlan(workers=2)) as runner:
                runner.run()
            pooled_cells = list(store.iter_cells("equivalence"))
        with ResultStore(str(tmp_path / "serial.sqlite")) as store:
            CampaignRunner(spec, store, plan=ExecutionPlan()).run()
            serial_cells = list(store.iter_cells("equivalence"))
        assert pooled_cells == serial_cells


def _campaign_spec(name: str) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        protocols=("trapdoor",),
        workloads=("quiet_start",),
        frequencies=(4,),
        budgets=(1,),
        participants=(16,),
        node_counts=(3,),
        seeds=(0, 1),
        max_rounds=2_000,
    )


def _search_spec(name: str) -> SearchSpec:
    objective = SearchObjective(
        protocol="trapdoor",
        workload="quiet_start",
        frequencies=4,
        budget=1,
        participants=16,
        node_count=3,
        seeds=(0, 1),
        max_rounds=2_000,
    )
    return SearchSpec(
        name=name,
        objective=objective,
        optimizer="hill-climb",
        population=2,
        generations=1,
        master_seed=0,
    )


class TestPlanOnTheWire:
    """The plan travels inside service job requests byte-for-byte."""

    def test_job_request_embeds_the_plan_json(self):
        from repro.service import JobRequest

        plan = ExecutionPlan(workers=2, pool_chunk=2, batch=True)
        request = JobRequest.for_campaign(_campaign_spec("wire"), store="s.sqlite", plan=plan)
        wire = json.loads(request.to_json())
        assert wire["plan"] == plan.to_dict()
        assert JobRequest.from_json(request.to_json()).plan == plan
