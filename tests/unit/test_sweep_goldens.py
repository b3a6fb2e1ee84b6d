"""Golden digests on the shape of the end-to-end ``sweep`` benchmark grid.

``test_engine_equivalence.py`` pins every protocol × jammer × activation
combination, but only at ``F=4, t=1, N=8`` and one seed.  The scalar round
loop is tuned against the sweep grid, whose parameters exercise longer
schedules, wider bands and larger budgets, so this suite pins that grid too:

* Trapdoor at ``F ∈ {6, 8}``, ``t ∈ {1, 3}``, ``N = 64``, 8 nodes;
* Good Samaritan at ``F = 4``, ``t = 1``, ``N = 16``, 4 nodes;

each crossed with the ``crowded_cafe``, ``adversarial_sweep`` and
``reactive_attack`` workloads and seeds 0–2, at
:attr:`~repro.engine.observers.TraceLevel.FULL`.  A digest covers the full
per-round trace, every metrics counter and every checker verdict (see
:func:`repro.engine.serialization.execution_digest`).

When a change is an *intentional* behaviour change, regenerate with::

    PYTHONPATH=src python tests/unit/test_sweep_goldens.py --regen
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaigns.spec import CampaignCell
from repro.engine.observers import TraceLevel
from repro.engine.serialization import execution_digest
from repro.engine.simulator import SimulationConfig, simulate
from repro.params import ModelParameters

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "sweep_shape.json"

WORKLOADS = ("crowded_cafe", "adversarial_sweep", "reactive_attack")
SEEDS = (0, 1, 2)
#: The ``campaign run`` default round cap.
MAX_ROUNDS = 50_000

#: ``(protocol, F, t, N, node count)`` for each pinned grid point.
POINTS = (
    ("trapdoor", 6, 1, 64, 8),
    ("trapdoor", 6, 3, 64, 8),
    ("trapdoor", 8, 1, 64, 8),
    ("trapdoor", 8, 3, 64, 8),
    ("good-samaritan", 4, 1, 16, 4),
)


def matrix_keys() -> list[str]:
    """Every ``protocol|workload|F|t|N|n|seed`` key, deterministically ordered."""
    return [
        f"{protocol}|{workload}|F{f}|t{t}|N{n}|n{count}|s{seed}"
        for protocol, f, t, n, count in POINTS
        for workload in WORKLOADS
        for seed in SEEDS
    ]


def config_for(key: str) -> SimulationConfig:
    """The full-trace configuration one key names, built the way a campaign cell is."""
    protocol, workload, f, t, n, count, seed = key.split("|")
    cell = CampaignCell(
        protocol=protocol,
        workload=workload,
        params=ModelParameters(
            frequencies=int(f[1:]), disruption_budget=int(t[1:]), participant_bound=int(n[1:])
        ),
        node_count=int(count[1:]),
        seeds=(int(seed[1:]),),
        max_rounds=MAX_ROUNDS,
    )
    return replace(cell.config(), seed=int(seed[1:]), trace_level=TraceLevel.FULL)


def compute_digest(key: str) -> str:
    return execution_digest(simulate(config_for(key)))


@pytest.fixture(scope="module")
def goldens() -> dict[str, str]:
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_the_grid(goldens):
    assert sorted(goldens) == sorted(matrix_keys())


@pytest.mark.parametrize("key", matrix_keys())
def test_sweep_shape_execution_matches_golden(key, goldens):
    assert compute_digest(key) == goldens[key], (
        f"execution digest changed for {key}: the engine no longer reproduces "
        "the recorded sweep-shape execution (trace, metrics, or checker verdicts differ)"
    )


def regenerate() -> None:
    """Record the digest of every grid point into the golden file."""
    goldens = {key: compute_digest(key) for key in matrix_keys()}
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} golden digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
