"""Read a campaign store back and digest its trial rows.

The digest covers every trial row of one campaign (or search), cell by cell
in grid order, each cell identified by its full stored description, so a
changed value, a missing or extra row, or a row moved to another cell all
change it.  Grid order comes from the stored spec's axes, so the digest does
not depend on which execution path wrote the rows or in which order.

Only the standard library's ``sqlite3`` is used: the benchmark reads the
store from outside the program.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path

_TRIAL_COLUMNS = (
    "seed, synchronized, agreement, safety, leader_count, max_sync_latency, "
    "rounds_simulated, stabilization_rounds"
)

# (spec axis, cell field) pairs, in the order CampaignSpec.cells() nests them.
_GRID_AXES = (
    ("protocols", "protocol"),
    ("workloads", "workload"),
    ("frequencies", "frequencies"),
    ("budgets", "budget"),
    ("participants", "participants"),
    ("node_counts", "node_count"),
)


@dataclass(frozen=True)
class CampaignDigest:
    """What a store holds for one campaign."""

    digest: str
    cells: int
    rows: int
    complete: bool


def _canonical(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _grid_position(spec: dict, cell: dict) -> tuple:
    if "protocols" not in spec:  # a search: evaluations have no grid
        return (_canonical(cell),)
    position = [spec[axis].index(cell[key]) for axis, key in _GRID_AXES]
    position.append(spec.get("fault_plans", [None]).index(cell.get("faults")))
    return tuple(position)


def _expected_cells(spec: dict) -> int | None:
    if "protocols" not in spec:
        return None
    count = len(spec.get("fault_plans", [None]))
    for axis, _ in _GRID_AXES:
        count *= len(spec[axis])
    return count


def campaign_digest(store: str | Path, name: str) -> CampaignDigest | None:
    """Digest campaign ``name`` in ``store``; None if the store does not hold it."""
    if not Path(store).exists():
        return None
    connection = sqlite3.connect(str(store))
    try:
        found = connection.execute(
            "SELECT spec_json FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if found is None:
            return None
        spec = json.loads(found[0])
        cells = [
            (key, json.loads(cell_json))
            for key, cell_json in connection.execute(
                "SELECT c.key, c.cell_json FROM campaign_cells AS cc "
                "JOIN cells AS c ON c.key = cc.cell_key WHERE cc.campaign = ?",
                (name,),
            )
        ]
        cells.sort(key=lambda item: _grid_position(spec, item[1]))
        digest = hashlib.sha256()
        rows = 0
        complete = _expected_cells(spec) in (None, len(cells)) and bool(cells)
        for key, cell in cells:
            trials = connection.execute(
                f"SELECT {_TRIAL_COLUMNS} FROM trials WHERE cell_key = ? ORDER BY seed", (key,)
            ).fetchall()
            seeds = cell["seeds"] if "seeds" in cell else cell["objective"]["seeds"]
            complete = complete and [row[0] for row in trials] == seeds
            rows += len(trials)
            digest.update(_canonical(cell).encode())
            for row in trials:
                digest.update(_canonical(list(row)).encode())
        return CampaignDigest(digest.hexdigest()[:32], len(cells), rows, complete)
    finally:
        connection.close()


def store_totals(store: str | Path) -> tuple[int, int]:
    """(trial rows, sum of rounds_simulated) over a whole store."""
    connection = sqlite3.connect(str(store))
    try:
        rows, rounds = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(rounds_simulated), 0) FROM trials"
        ).fetchone()
        return int(rows), int(rounds)
    finally:
        connection.close()
