"""The command-line paths for submitting, watching, resuming and inspecting runs.

Every long run goes through ``repro campaign run`` or ``repro search run``
against a WAL result store.  This module pins the four jobs those commands do
end to end:

- **Submit** — a CLI run writes the same store rows as a direct serial
  :class:`CampaignRunner` / :class:`StrategySearch` run, on every execution
  plan and when several campaigns share one store.
- **Status and watch** — ``--status-file``/``--monitor-port`` publish
  schema-complete status documents that ``repro monitor watch`` reads, and
  ``--telemetry`` streams the lifecycle events in order.
- **Cancel and resume** — a run stopped by ``--max-cells``,
  ``--max-evaluations`` or an interrupt leaves a committed prefix, and
  re-running the same command completes a store equal to an uninterrupted one.
- **Store status** — ``repro campaign status`` reports each campaign in a
  shared store.
"""

from __future__ import annotations

import json

import pytest

import repro.campaigns.runner as campaign_runner_module
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.search.checkpoint import SearchSpec
from repro.search.objective import SearchObjective
from repro.search.runner import StrategySearch
from repro.telemetry.events import read_jsonl_events
from repro.telemetry.monitor import validate_status

#: A four-cell grid: 2 budgets × 2 node counts, 2 seeds per cell.
GRID = [
    "--protocols", "trapdoor", "--workloads", "quiet_start",
    "-F", "4", "-t", "1,2", "-N", "8", "--node-counts", "2,3",
    "--seeds", "2", "--max-rounds", "5000",
]
GRID_CELLS = 4

SEARCH = [
    "--protocol", "trapdoor", "--workload", "quiet_start",
    "-F", "4", "-t", "1", "-N", "8", "--nodes", "2",
    "--seeds", "2", "--max-rounds", "4000",
    "--optimizer", "hill-climb", "--population", "2", "--generations", "1",
    "--master-seed", "7",
]
SEARCH_EVALUATIONS = 10  # warm start seeds generation 0 with every registered jammer


def grid_spec(name: str) -> CampaignSpec:
    """The :class:`CampaignSpec` that ``campaign run --name name *GRID`` builds."""
    return CampaignSpec(
        name=name,
        protocols=("trapdoor",),
        workloads=("quiet_start",),
        frequencies=(4,),
        budgets=(1, 2),
        participants=(8,),
        node_counts=(2, 3),
        seeds=2,
        max_rounds=5000,
    )


def search_spec(name: str) -> SearchSpec:
    """The :class:`SearchSpec` that ``search run --name name *SEARCH`` builds."""
    objective = SearchObjective(
        protocol="trapdoor",
        workload="quiet_start",
        frequencies=4,
        budget=1,
        participants=8,
        node_count=2,
        seeds=2,
        max_rounds=4000,
    )
    return SearchSpec(
        name=name,
        objective=objective,
        optimizer="hill-climb",
        population=2,
        generations=1,
        master_seed=7,
    )


def cells_of(path, name: str) -> list:
    with ResultStore(str(path)) as store:
        return list(store.iter_cells(name))


@pytest.fixture(scope="module")
def direct_grid(tmp_path_factory) -> list:
    """The grid's rows from a direct serial :class:`CampaignRunner` run."""
    path = tmp_path_factory.mktemp("direct") / "grid.db"
    with ResultStore(str(path)) as store:
        with CampaignRunner(grid_spec("grid"), store) as runner:
            runner.run()
    return cells_of(path, "grid")


@pytest.fixture(scope="module")
def direct_search(tmp_path_factory) -> list:
    """The search's rows from a direct serial :class:`StrategySearch` run."""
    path = tmp_path_factory.mktemp("direct") / "search.db"
    with ResultStore(str(path)) as store:
        with StrategySearch(search_spec("search"), store) as search:
            search.run()
    return cells_of(path, "search")


def run_grid(store, *extra: str, name: str = "grid") -> int:
    return main(["campaign", "run", "--store", str(store), "--name", name, *GRID, *extra])


def run_search(store, *extra: str, name: str = "search") -> int:
    return main(["search", "run", "--store", str(store), "--name", name, *SEARCH, *extra])


class TestSubmit:
    @pytest.mark.parametrize("workers", ["1", "2", "auto"])
    def test_campaign_run_store_matches_a_direct_serial_run(
        self, tmp_path, direct_grid, workers
    ):
        store = tmp_path / "grid.db"
        assert run_grid(store, "--workers", workers, "--quiet") == 0
        assert cells_of(store, "grid") == direct_grid

    def test_batch_campaign_run_store_matches_a_direct_serial_run(self, tmp_path, direct_grid):
        store = tmp_path / "grid.db"
        assert run_grid(store, "--workers", "1", "--batch", "--quiet") == 0
        assert cells_of(store, "grid") == direct_grid

    def test_pool_chunk_does_not_change_the_store(self, tmp_path, direct_grid):
        store = tmp_path / "grid.db"
        assert run_grid(store, "--workers", "2", "--pool-chunk", "1", "--quiet") == 0
        assert cells_of(store, "grid") == direct_grid

    def test_campaigns_sharing_a_store_each_match_their_direct_run(
        self, tmp_path, direct_grid, capsys
    ):
        store = tmp_path / "shared.db"
        assert run_grid(store, "--quiet", name="alpha") == 0
        assert run_grid(store, "--quiet", name="beta") == 0
        # Same grid under a second name: the cells are reused, not re-run.
        assert "0 executed now, 4 reused" in capsys.readouterr().out
        for name in ("alpha", "beta"):
            assert cells_of(store, name) == direct_grid

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_search_run_store_matches_a_direct_serial_run(
        self, tmp_path, direct_search, workers
    ):
        store = tmp_path / "search.db"
        assert run_search(store, "--workers", workers) == 0
        assert cells_of(store, "search") == direct_search

    def test_search_run_reports_the_best_strategy(self, tmp_path, capsys):
        assert run_search(tmp_path / "search.db") == 0
        output = capsys.readouterr().out
        assert f"({SEARCH_EVALUATIONS} executed now, 0 reused)" in output
        assert "best      :" in output


class TestPlanOptionsReachValidation:
    """The CLI's execution knobs reach :class:`ExecutionPlan`'s validation."""

    @pytest.mark.parametrize("chunk", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["trials", "--trials", "2", "--nodes", "2", "-N", "8", "-F", "4", "-t", "1"],
            ["campaign", "run", *GRID],
            ["search", "run", *SEARCH],
        ],
        ids=["trials", "campaign", "search"],
    )
    def test_non_positive_pool_chunk_is_a_configuration_error(self, tmp_path, command, chunk):
        argv = list(command)
        if command[0] != "trials":
            argv[2:2] = ["--store", str(tmp_path / "s.db")]
        with pytest.raises(ConfigurationError, match="pool_chunk must be positive"):
            main([*argv, "--pool-chunk", chunk])


class TestStatusAndWatch:
    def test_campaign_status_file_is_final_and_schema_complete(self, tmp_path):
        status = tmp_path / "status.json"
        assert run_grid(tmp_path / "grid.db", "--quiet", "--status-file", str(status)) == 0
        document = validate_status(json.loads(status.read_text()))
        assert document["final"] is True
        assert document["unit"] == "cells"
        assert document["progress"] == {
            "done": GRID_CELLS, "total": GRID_CELLS, "fraction": 1.0,
        }

    def test_monitor_watch_reads_a_finished_campaign_status_file(self, tmp_path, capsys):
        status = tmp_path / "status.json"
        assert run_grid(tmp_path / "grid.db", "--quiet", "--status-file", str(status)) == 0
        capsys.readouterr()
        assert main(["monitor", "watch", str(status)]) == 0
        output = capsys.readouterr().out
        assert f"{GRID_CELLS}/{GRID_CELLS} cells" in output and "final" in output

    def test_capped_run_status_shows_the_committed_prefix(self, tmp_path):
        status = tmp_path / "status.json"
        assert run_grid(
            tmp_path / "grid.db", "--quiet", "--max-cells", "1", "--status-file", str(status)
        ) == 0
        document = validate_status(json.loads(status.read_text()))
        assert document["final"] is True
        assert document["progress"] == {
            "done": 1, "total": GRID_CELLS, "fraction": 1 / GRID_CELLS,
        }

    def test_resumed_run_status_counts_reused_cells(self, tmp_path):
        store = tmp_path / "grid.db"
        status = tmp_path / "status.json"
        assert run_grid(store, "--quiet", "--max-cells", "3") == 0
        assert run_grid(store, "--quiet", "--status-file", str(status)) == 0
        document = validate_status(json.loads(status.read_text()))
        assert document["progress"]["done"] == GRID_CELLS

    def test_monitor_port_and_status_file_compose(self, tmp_path, direct_grid, capsys):
        store = tmp_path / "grid.db"
        status = tmp_path / "status.json"
        assert run_grid(
            store, "--quiet", "--monitor-port", "0", "--status-file", str(status)
        ) == 0
        output = capsys.readouterr().out
        assert "monitor   : http://127.0.0.1:" in output
        assert "monitor   : status snapshots at" in output
        assert validate_status(json.loads(status.read_text()))["final"] is True
        assert cells_of(store, "grid") == direct_grid

    def test_search_status_file_carries_the_best_candidate(self, tmp_path, capsys):
        status = tmp_path / "status.json"
        assert run_search(tmp_path / "search.db", "--status-file", str(status)) == 0
        document = validate_status(json.loads(status.read_text()))
        assert document["final"] is True
        assert document["unit"] == "evaluations"
        assert document["progress"]["done"] == SEARCH_EVALUATIONS
        assert document["best"]["strategy"] is not None
        capsys.readouterr()
        assert main(["monitor", "watch", str(status)]) == 0
        assert f"{SEARCH_EVALUATIONS} evaluations" in capsys.readouterr().out

    def test_pooled_trials_status_file_counts_trials(self, tmp_path):
        status = tmp_path / "status.json"
        assert main([
            "trials", "--trials", "3", "--workload", "quiet_start", "--nodes", "2",
            "-N", "8", "-F", "4", "-t", "1", "--workers", "2",
            "--status-file", str(status),
        ]) == 0
        document = validate_status(json.loads(status.read_text()))
        assert document["unit"] == "trials"
        assert document["progress"]["done"] == 3

    def test_campaign_telemetry_streams_the_lifecycle_in_order(self, tmp_path):
        events = tmp_path / "events.jsonl"
        assert run_grid(tmp_path / "grid.db", "--quiet", "--telemetry", str(events)) == 0
        kinds = [record["kind"] for record in read_jsonl_events(events)]
        lifecycle = [kind for kind in kinds if kind.startswith(("campaign-", "cell-"))]
        assert lifecycle == (
            ["campaign-started"] + ["cell-committed"] * GRID_CELLS + ["campaign-completed"]
        )

    def test_search_telemetry_streams_generations_and_best_candidates(self, tmp_path):
        events = tmp_path / "events.jsonl"
        assert run_search(tmp_path / "search.db", "--telemetry", str(events)) == 0
        kinds = [record["kind"] for record in read_jsonl_events(events)]
        assert kinds.index("search-started") < kinds.index("generation-completed")
        assert "best-candidate-improved" in kinds
        assert [kind for kind in kinds if kind.startswith("search-")][-1] == "search-completed"


class TestCancelAndResume:
    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_capped_run_then_rerun_equals_the_uninterrupted_store(
        self, tmp_path, direct_grid, capsys, cap
    ):
        store = tmp_path / "grid.db"
        assert run_grid(store, "--quiet", "--max-cells", str(cap)) == 0
        assert len(cells_of(store, "grid")) == cap
        capsys.readouterr()
        assert run_grid(store, "--quiet") == 0
        output = capsys.readouterr().out
        assert f"resume    : {cap} cells already complete" in output
        assert f"({GRID_CELLS - cap} executed now, {cap} reused, 0 remaining)" in output
        assert cells_of(store, "grid") == direct_grid

    def test_rerunning_a_complete_campaign_executes_nothing(self, tmp_path, direct_grid, capsys):
        store = tmp_path / "grid.db"
        assert run_grid(store, "--quiet") == 0
        capsys.readouterr()
        assert run_grid(store, "--quiet") == 0
        assert f"(0 executed now, {GRID_CELLS} reused, 0 remaining)" in capsys.readouterr().out
        assert cells_of(store, "grid") == direct_grid

    def test_interrupt_keeps_the_committed_prefix_and_rerun_resumes(
        self, tmp_path, direct_grid, monkeypatch, capsys
    ):
        class InterruptedAfterFirstCommit(CampaignRunner):
            """Raises the Ctrl-C exception right after the first cell commits."""

            def run(self, max_cells=None, on_cell=None):
                def interrupt(cell, progress):
                    raise KeyboardInterrupt

                return super().run(max_cells=max_cells, on_cell=interrupt)

        store = tmp_path / "grid.db"
        with monkeypatch.context() as patched:
            patched.setattr(campaign_runner_module, "CampaignRunner", InterruptedAfterFirstCommit)
            with pytest.raises(KeyboardInterrupt):
                run_grid(store, "--workers", "1")
        assert len(cells_of(store, "grid")) == 1
        capsys.readouterr()
        assert run_grid(store, "--quiet") == 0
        assert "resume    : 1 cells already complete" in capsys.readouterr().out
        assert cells_of(store, "grid") == direct_grid

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_capped_search_then_rerun_equals_the_uninterrupted_store(
        self, tmp_path, direct_search, capsys, cap
    ):
        store = tmp_path / "search.db"
        assert run_search(store, "--max-evaluations", str(cap)) == 0
        assert "stopped (resume by re-running)" in capsys.readouterr().out
        assert len(cells_of(store, "search")) == cap
        assert run_search(store) == 0
        output = capsys.readouterr().out
        assert f"resume    : {cap} evaluation(s) already stored" in output
        assert cells_of(store, "search") == direct_search


class TestStoreStatus:
    def test_status_json_lists_every_campaign_in_a_shared_store(self, tmp_path, capsys):
        store = tmp_path / "shared.db"
        assert run_grid(store, "--quiet", name="alpha") == 0
        assert run_grid(store, "--quiet", "--max-cells", "1",
                        "-t", "3", name="beta") == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--store", str(store), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["campaigns"] == [
            {"campaign": "alpha", "completed": GRID_CELLS, "total": GRID_CELLS},
            {"campaign": "beta", "completed": 1, "total": 2},
        ]

    def test_status_by_name_reports_one_campaign(self, tmp_path, capsys):
        store = tmp_path / "shared.db"
        assert run_grid(store, "--quiet", name="alpha") == 0
        assert run_grid(store, "--quiet", "--max-cells", "1", "-t", "3", name="beta") == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--store", str(store), "--name", "beta"]) == 0
        output = capsys.readouterr().out
        assert "1/2" in output
        assert "alpha" not in output
