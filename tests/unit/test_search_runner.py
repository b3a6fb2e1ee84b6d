"""Unit tests for the search driver: checkpointing, resume, and read-backs.

The load-bearing property is *exact resume*: a search killed mid-generation
and re-run on the same store must evaluate only the missing candidates and
end in a state bit-identical to an uninterrupted run — same candidate keys,
same scores, same best strategy.
"""

from __future__ import annotations

import json

import pytest

from repro.campaigns.store import ResultStore
from repro.engine.plan import ExecutionPlan
from repro.exceptions import ConfigurationError, ExperimentError
from repro.search.checkpoint import SearchCheckpoint, SearchSpec, is_search_spec_json
from repro.search.objective import SearchObjective
from repro.search.runner import StrategySearch, export_search, search_status

TINY_OBJECTIVE = SearchObjective(
    protocol="trapdoor",
    workload="quiet_start",
    frequencies=4,
    budget=1,
    participants=8,
    node_count=2,
    seeds=(0, 1),
    max_rounds=4_000,
)


def tiny_spec(name="unit-search", **overrides):
    defaults = dict(
        name=name,
        objective=TINY_OBJECTIVE,
        optimizer="hill-climb",
        population=2,
        generations=2,
        master_seed=7,
    )
    defaults.update(overrides)
    return SearchSpec(**defaults)


class TestSpec:
    def test_round_trips_through_json(self):
        spec = tiny_spec()
        rebuilt = SearchSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert is_search_spec_json(spec.to_json())
        assert not is_search_spec_json(None)
        assert not is_search_spec_json("not json at all")
        assert not is_search_spec_json(json.dumps({"kind": "campaign"}))

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="optimizer"):
            tiny_spec(optimizer="annealing")
        with pytest.raises(ConfigurationError, match="population"):
            tiny_spec(population=0)
        with pytest.raises(ConfigurationError, match="name"):
            tiny_spec(name="")


class TestRun:
    def test_completes_and_checkpoints_every_candidate(self):
        with ResultStore(":memory:") as store:
            result = StrategySearch(tiny_spec(), store).run()
            assert result.complete
            assert result.best is not None
            assert result.generations_completed == 3  # warm start + 2
            assert result.evaluations_total == store.cell_count("unit-search")
            assert result.executed == result.evaluations_total

    def test_search_is_deterministic_across_fresh_stores(self):
        with ResultStore(":memory:") as first_store, ResultStore(":memory:") as second_store:
            first = StrategySearch(tiny_spec(), first_store).run()
            second = StrategySearch(tiny_spec(), second_store).run()
            assert first.best.key == second.best.key
            assert first.best.score == second.best.score
            assert first.evaluations_total == second.evaluations_total
            assert first_store.completed_keys() == second_store.completed_keys()

    def test_interrupted_search_resumes_bit_identically(self, tmp_path):
        spec = tiny_spec()
        with ResultStore(":memory:") as store:
            uninterrupted = StrategySearch(spec, store).run()
            uninterrupted_keys = sorted(store.completed_keys())

        resumed_store = ResultStore(tmp_path / "resumable.db")
        with resumed_store as store:
            # "Kill" the search after 3 live evaluations, mid-warm-start ...
            partial = StrategySearch(spec, store).run(max_evaluations=3)
            assert not partial.complete
            assert partial.executed == 3
            assert store.cell_count(spec.name) == 3
            # ... then resume: only the missing candidates are evaluated.
            resumed = StrategySearch(spec, store).run()
            assert resumed.complete
            assert resumed.executed == uninterrupted.evaluations_total - 3
            assert resumed.best.key == uninterrupted.best.key
            assert resumed.best.score == uninterrupted.best.score
            assert resumed.best.generation == uninterrupted.best.generation
            assert resumed.evaluations_total == uninterrupted.evaluations_total
            assert sorted(store.completed_keys()) == uninterrupted_keys

    def test_rerunning_a_complete_search_evaluates_nothing(self):
        with ResultStore(":memory:") as store:
            first = StrategySearch(tiny_spec(), store).run()
            replay = StrategySearch(tiny_spec(), store).run()
            assert replay.executed == 0
            assert replay.reused >= first.evaluations_total
            assert replay.best.key == first.best.key

    def test_searches_differing_only_in_metric_share_evaluations(self):
        # The metric only changes scoring, never the simulated records, so a
        # second search over the same configuration re-simulates nothing.
        # (Random search proposes independently of scores, so both searches
        # name exactly the same candidates.)
        latency_spec = tiny_spec(name="by-latency", optimizer="random")
        failure_spec = tiny_spec(
            name="by-failure",
            optimizer="random",
            objective=SearchObjective.from_dict(
                {**TINY_OBJECTIVE.describe_dict(), "metric": "failure_rate"}
            ),
        )
        with ResultStore(":memory:") as store:
            first = StrategySearch(latency_spec, store).run()
            second = StrategySearch(failure_spec, store).run()
            assert second.executed == 0
            assert second.reused >= first.evaluations_total

    def test_same_name_with_a_different_spec_is_refused(self):
        with ResultStore(":memory:") as store:
            StrategySearch(tiny_spec(), store).run(max_evaluations=1)
            changed = tiny_spec(master_seed=8)
            with pytest.raises(ExperimentError, match="different spec"):
                StrategySearch(changed, store).run()

    def test_warm_start_guarantees_dominance_over_registry_jammers(self):
        from repro.adversary.registry import names as adversary_names
        from repro.search.space import ParametricGenome

        spec = tiny_spec(optimizer="random", generations=1)
        with ResultStore(":memory:") as store:
            result = StrategySearch(spec, store).run()
            checkpoint = SearchCheckpoint(store, spec)
            for name in adversary_names():
                key = checkpoint.key_for(ParametricGenome(name=name))
                records = checkpoint.stored_records(key)
                assert records is not None
                assert result.best.score >= spec.objective.score_records(records)

    def test_on_candidate_sees_every_candidate_in_order(self):
        seen = []
        with ResultStore(":memory:") as store:
            StrategySearch(tiny_spec(), store).run(on_candidate=seen.append)
        generations = [outcome.generation for outcome in seen]
        assert generations == sorted(generations)
        assert all(not outcome.reused for outcome in seen if outcome.generation == 0)


class TestReadBacks:
    def test_status_reports_the_run_best(self):
        with ResultStore(":memory:") as store:
            result = StrategySearch(tiny_spec(), store).run()
            status = search_status(store, "unit-search")
            assert status["evaluations"] == result.evaluations_total
            assert status["best_score"] == result.best.score
            assert status["best_key"] == result.best.key
            assert status["optimizer"] == "hill-climb"

    def test_status_rejects_non_search_campaigns(self):
        with ResultStore(":memory:") as store:
            store.register_campaign("plain-campaign")
            with pytest.raises(ConfigurationError, match="not an adversary search"):
                search_status(store, "plain-campaign")

    def test_export_round_trips_the_best_genome(self, tmp_path):
        from repro.search.space import genome_from_dict

        with ResultStore(":memory:") as store:
            result = StrategySearch(tiny_spec(), store).run()
            path = export_search(store, "unit-search", tmp_path / "best.json", top=3)
            document = json.loads(path.read_text())
            assert document["best"]["key"] == result.best.key
            assert document["best"]["score"] == result.best.score
            assert len(document["top"]) == 3
            scores = [row["score"] for row in document["top"]]
            assert scores == sorted(scores, reverse=True)
            rebuilt = genome_from_dict(document["best"]["genome"])
            assert rebuilt == result.best.genome

    def test_export_requires_evaluations(self, tmp_path):
        with ResultStore(":memory:") as store:
            spec = tiny_spec()
            SearchCheckpoint(store, spec).register()
            with pytest.raises(ExperimentError, match="no evaluations"):
                export_search(store, spec.name, tmp_path / "best.json")


class TestPooledSearch:
    """One persistent pool across all generations: identity and lifecycle."""

    def test_pooled_search_matches_serial_exactly(self, tmp_path):
        spec = tiny_spec()
        with ResultStore(tmp_path / "serial.db") as serial_store:
            serial = StrategySearch(spec, serial_store).run()
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                with StrategySearch(
                    spec, pooled_store, plan=ExecutionPlan(workers=2, pool_chunk=1)
                ) as search:
                    pooled = search.run()
                    assert search.pool is not None
                    # One executor start serves the warm start and every
                    # generation of every candidate.
                    assert search.pool.starts == 1
                assert pooled.best.key == serial.best.key
                assert pooled.best.score == serial.best.score
                assert pooled.evaluations_total == serial.evaluations_total
                # The stored evaluations are byte-identical, insertion order
                # included (proposal order is deterministic).
                assert list(pooled_store.iter_cells(spec.name)) == list(
                    serial_store.iter_cells(spec.name)
                )

    def test_interrupted_pooled_search_resumes_on_a_fresh_pool_exactly(self, tmp_path):
        """Kill a pooled search mid-budget; resume on a *new* pool: identical."""
        spec = tiny_spec()
        with ResultStore(":memory:") as store:
            uninterrupted = StrategySearch(spec, store).run()
            uninterrupted_keys = sorted(store.completed_keys())

        with ResultStore(tmp_path / "resumable.db") as store:
            with StrategySearch(spec, store, plan=ExecutionPlan(workers=2)) as search:
                partial = search.run(max_evaluations=3)
            assert not partial.complete
            assert partial.executed == 3
            # A brand-new search object — and therefore a brand-new pool, as
            # after a crash or a process restart — finishes the budget.
            with StrategySearch(spec, store, plan=ExecutionPlan(workers=2)) as search:
                resumed = search.run()
            assert resumed.complete
            assert resumed.best.key == uninterrupted.best.key
            assert resumed.best.score == uninterrupted.best.score
            assert resumed.evaluations_total == uninterrupted.evaluations_total
            assert sorted(store.completed_keys()) == uninterrupted_keys

    def test_cache_only_run_never_starts_the_pool(self):
        spec = tiny_spec()
        with ResultStore(":memory:") as store:
            StrategySearch(spec, store).run()
            with StrategySearch(spec, store, plan=ExecutionPlan(workers=2)) as search:
                replay = search.run()
                assert replay.executed == 0
                assert search.pool is not None
                assert search.pool.starts == 0  # lazy: no live work, no fork
