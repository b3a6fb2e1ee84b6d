"""Self-checks of the end-to-end benchmark.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import Invocation, Rep, check_rep, tail  # noqa: E402
from workloads import WORKLOADS, Command, _serial, fault_plan, fault_plan_json, generate  # noqa: E402


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("store")
    argv = [
        "campaign", "run", "--store", str(directory / "s.db"), "--name", "tiny", "--quiet",
        "--protocols", "trapdoor", "--workloads", "quiet_start,crowded_cafe", "-F", "4",
        "-t", "1", "-N", "8", "--node-counts", "2", "--seeds", "2",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "repro", *argv], env=env, check=True,
                   capture_output=True)
    return directory


def _checked(directory: Path, reference: dict | None) -> Invocation:
    argv = ["campaign", "run", "--store", str(directory / "s.db")]
    rep = Rep(directory, (Command(tuple(argv), completes="tiny"),))
    rep.invocations.append(Invocation(argv, 0, 1.0, 10.0))
    check_rep(rep, reference)
    return rep


def test_corrupted_store_row_is_caught(tiny_store: Path, tmp_path: Path) -> None:
    clean = _checked(tiny_store, None)
    reference = clean.digests
    assert reference["tiny"] is not None
    assert not _checked(tiny_store, reference).invocations[0].failed

    corrupted = tmp_path / "corrupted"
    corrupted.mkdir()
    (corrupted / "s.db").write_bytes((tiny_store / "s.db").read_bytes())
    with sqlite3.connect(corrupted / "s.db") as connection:
        connection.execute(
            "UPDATE trials SET rounds_simulated = rounds_simulated + 1 "
            "WHERE rowid = (SELECT MIN(rowid) FROM trials)"
        )
    assert _checked(corrupted, reference).invocations[0].failed


def test_missing_store_row_is_caught(tiny_store: Path, tmp_path: Path) -> None:
    (tmp_path / "s.db").write_bytes((tiny_store / "s.db").read_bytes())
    with sqlite3.connect(tmp_path / "s.db") as connection:
        connection.execute("DELETE FROM trials WHERE rowid = (SELECT MAX(rowid) FROM trials)")
    rep = _checked(tmp_path, None)
    assert rep.invocations[0].failed
    assert rep.digests["tiny"] is None


def test_failed_exit_is_caught(tiny_store: Path) -> None:
    reference = _checked(tiny_store, None).digests
    argv = ["campaign", "run", "--store", str(tiny_store / "s.db")]
    rep = Rep(tiny_store, (Command(tuple(argv), completes="tiny"),))
    rep.invocations.append(Invocation(argv, 1, 1.0, 10.0))
    check_rep(rep, reference)
    assert rep.invocations[0].failed


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_fault_plan_file_is_what_fault_plan_to_json_writes(seed: int) -> None:
    from repro.faults import FaultPlan

    plan = FaultPlan.from_dict(fault_plan(seed, 8))
    assert plan.to_json() == fault_plan_json(seed, 8)
    assert plan.churn and plan.byzantine_count == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded(name: str) -> None:
    assert generate(name, 3) == generate(name, 3)
    variants = {(generate(name, seed).commands, tuple(generate(name, seed).files.items()))
                for seed in range(8)}
    assert len(variants) > 1


def test_serial_path_strips_execution_flags() -> None:
    argv = ("campaign", "run", "--workers", "2", "--batch", "--seeds", "3")
    assert _serial(argv) == ("campaign", "run", "--seeds", "3")


def test_tail_never_falls_below_the_median() -> None:
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0)
    samples = [float(value) for value in range(41)]
    value, percentile = tail(samples)
    assert value == 30.0 and sum(sample > value for sample in samples) == 10
    assert percentile == 75.0


def test_benchmark_json_matches_layer_map_and_generator() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())["metrics"]
    assert benchmark["per_layer"] == [
        {key: entry[key] for key in ("name", "unit", "better")} for entry in layer_map
    ]
    assert benchmark["workloads"] == [
        {"name": name, "why": generate(name, 0).why} for name in WORKLOADS
    ]
    end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
    for entry in layer_map:
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= set(WORKLOADS)
