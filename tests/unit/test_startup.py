"""Start-up guard: each CLI command imports only the modules it runs.

Every check runs in a fresh interpreter, because the test process itself has
long since imported everything.  ``import repro.cli`` and a serial
``campaign run`` must load none of the heavy subsystems below; numpy, in
particular, loads only with the ``--batch`` kernel and the analysis fitting
code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Modules a plain ``campaign run`` (and ``import repro.cli``) must not load.
NOT_AT_STARTUP = (
    "numpy",
    "repro.bench",
    "repro.telemetry.monitor",
    "repro.search.runner",
    "repro.analysis.fitting",
)

#: Runs ``python -m repro <argv>`` in-process, then reports ``sys.modules``.
_PROBE = """
import json, runpy, sys
argv, out = json.loads(sys.argv[1]), sys.argv[2]
if argv is not None:
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        assert not exit_.code, exit_.code
else:
    import repro.cli
with open(out, "w") as handle:
    json.dump(sorted(sys.modules), handle)
"""

GRID = [
    "--protocols", "trapdoor", "--workloads", "quiet_start",
    "-F", "4", "-t", "1", "-N", "8", "--node-counts", "2",
    "--seeds", "2", "--max-rounds", "5000", "--quiet",
]


def loaded_modules(tmp_path: Path, argv: list[str] | None) -> set[str]:
    """The modules a fresh interpreter holds after ``python -m repro argv``
    (``argv=None``: after ``import repro.cli`` alone)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) if not existing else f"{SRC_DIR}{os.pathsep}{existing}"
    out = tmp_path / "modules.json"
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
        cwd=tmp_path,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return set(json.loads(out.read_text()))


def test_import_cli_loads_no_heavy_subsystem(tmp_path):
    modules = loaded_modules(tmp_path, None)
    assert "repro.cli" in modules
    assert sorted(modules.intersection(NOT_AT_STARTUP)) == []


def test_serial_campaign_run_loads_no_heavy_subsystem(tmp_path):
    argv = ["campaign", "run", "--store", "guard.db", "--name", "guard", *GRID, "--max-cells", "0"]
    modules = loaded_modules(tmp_path, argv)
    assert "repro.campaigns.runner" in modules
    assert sorted(modules.intersection(NOT_AT_STARTUP)) == []


def test_batch_campaign_run_still_loads_the_kernel(tmp_path):
    argv = ["campaign", "run", "--store", "guard.db", "--name", "guard", *GRID, "--batch"]
    modules = loaded_modules(tmp_path, argv)
    assert "repro.engine.batch" in modules
    assert "numpy" in modules
