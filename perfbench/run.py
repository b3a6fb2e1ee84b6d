"""End-to-end benchmark of the ``repro`` CLI (see perfbench/README.md).

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Runs the workload's ``python -m repro`` invocations one after another from
this single process, reads the results back from the SQLite stores
they write, checks every campaign's stored rows against a reference digest,
and prints one JSON object as the last line of standard output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
traced run and reports the per-layer metrics of ``layer_map.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from digest import campaign_digest, store_totals
from workloads import DEFAULT_SEED, WORKLOADS, Command, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 60
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass
class Invocation:
    argv: list[str]
    rc: int
    seconds: float
    rss_mb: float
    failed: bool = False


@dataclass
class Rep:
    """One repetition: a workload's commands run back to back in a fresh directory."""

    directory: Path
    commands: tuple[Command, ...]
    wall_s: float = 0.0
    invocations: list[Invocation] = field(default_factory=list)
    digests: dict[str, str | None] = field(default_factory=dict)

    def totals(self) -> tuple[int, int]:
        """(trial rows, rounds simulated) over every store the repetition wrote."""
        rows = rounds = 0
        for store in self.directory.glob("*.db"):
            store_rows, store_rounds = store_totals(store)
            rows += store_rows
            rounds += store_rounds
        return rows, rounds

    def store_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.directory.glob("*.db*"))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_cli(argv: list[str], log: Path, trace: tuple[Path, str] | None = None) -> Invocation:
    """Run one CLI invocation to completion; time it and take its tree's peak RSS."""
    if trace is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        spans, invocation = trace
        command = [sys.executable, str(HERE / "trace_cli.py"), str(spans), invocation, "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "ab") as output:
        output.write(("$ " + " ".join(argv) + "\n").encode())
        output.flush()
        started = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=output,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (process.pid,))
        timer.start()
        previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
        try:
            # wait4 reports the peak RSS of the largest process in the tree it reaped.
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            _kill_group(process.pid)
            raise
        finally:
            signal.signal(signal.SIGTERM, previous)
            timer.cancel()
        seconds = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(process.pid)  # nothing the invocation started may outlive it
    return Invocation(argv, process.returncode, seconds, usage.ru_maxrss / 1024.0)


def _fresh(directory: Path, workload: Workload) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for name, text in workload.files.items():
        (directory / name).write_text(text)
    return directory


def run_rep(workload: Workload, commands, directory: Path, traced: bool = False) -> Rep:
    rep = Rep(_fresh(directory, workload), tuple(commands))
    log = directory / "cli.log"
    started = time.perf_counter()
    for index, command in enumerate(rep.commands):
        trace = (directory / f"spans-{index}.json", f"{directory.name}/{index}") if traced else None
        rep.invocations.append(run_cli(command.expand(str(directory)), log, trace))
    rep.wall_s = time.perf_counter() - started
    return rep


def check_rep(rep: Rep, reference: dict[str, str | None] | None) -> None:
    """Mark failed invocations: non-zero exit, missing rows, or a digest mismatch.

    The digests found are recorded on ``rep``; with ``reference`` None only
    completeness is checked.
    """
    for command, invocation in zip(rep.commands, rep.invocations):
        ok = invocation.rc == 0
        if command.completes:
            argv = invocation.argv
            found = campaign_digest(argv[argv.index("--store") + 1], command.completes)
            digest = found.digest if found is not None and found.complete else None
            rep.digests[command.completes] = digest
            ok = ok and digest is not None
            if reference is not None:
                ok = ok and reference.get(command.completes) == digest
        if command.output:
            try:
                json.loads((rep.directory / command.output).read_text())
            except (OSError, ValueError):
                ok = False
        invocation.failed = not ok


def pinned_digests(workload: str) -> dict[str, str] | None:
    pins = json.loads((HERE / "digests.json").read_text())
    return pins["workloads"].get(workload)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Never below the median: with fewer than ``2 * TAIL_BEYOND + 1`` samples
    the median is reported (percentile 50).
    """
    ordered = sorted(samples)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank < (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank], 100.0 * rank / (len(ordered) - 1)


def measure_setup(workload: Workload, work: Path) -> tuple[float, list[Invocation]]:
    """Median start-up: the first command with ``--max-cells 0`` on a fresh store.

    One unrecorded warm-up first, so that byte-compilation of a fresh
    checkout is not counted.
    """
    command = workload.setup_command()
    invocations = []
    for sample in range(SETUP_SAMPLES + 1):
        directory = _fresh(work / f"setup-{sample}", workload)
        invocation = run_cli(command.expand(str(directory)), directory / "cli.log")
        invocation.failed = invocation.rc != 0
        invocations.append(invocation)
    return statistics.median(i.seconds for i in invocations[1:]), invocations


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    setup_s, invocations = measure_setup(workload, work)
    reference = pinned_digests(workload.name) if seed == DEFAULT_SEED else None
    if reference is None and workload.serial:
        serial = run_rep(workload, workload.serial, work / "reference")
        check_rep(serial, None)
        invocations += serial.invocations
        reference = serial.digests
    repetitions = max(2, round(seconds / workload.nominal_rep_s))
    reps = []
    for index in range(repetitions):
        rep = run_rep(workload, workload.commands, work / f"rep-{index}")
        # Without a pinned or serial reference the chosen path is the serial
        # scalar path itself: the first repetition is the reference.
        check_rep(rep, reference)
        if reference is None:
            reference = rep.digests
        invocations += rep.invocations
        reps.append(rep)
    rates = [(rep.wall_s, *rep.totals()) for rep in reps]
    jobs = [invocation.seconds for rep in reps for invocation in rep.invocations]
    tail_s, tail_pct = tail(jobs)
    print(f"{workload.name}: {repetitions} repetitions, {len(jobs)} invocations; "
          f"job_s_tail is p{tail_pct:.1f} of {len(jobs)} invocation times")
    print(f"wall_s per repetition: {', '.join(f'{rep.wall_s:.3f}' for rep in reps)}")
    print(f"digests: {json.dumps(reps[0].digests, sort_keys=True)}")
    return {
        "metrics": {
            "wall_s": (statistics.median(rep.wall_s for rep in reps), "s"),
            "trials_per_s": (statistics.median(rows / wall for wall, rows, _ in rates), "trials/s"),
            "rounds_per_s": (statistics.median(r / wall for wall, _, r in rates), "rounds/s"),
            "setup_s": (setup_s, "s"),
            "job_s_p50": (statistics.median(jobs), "s"),
            "job_s_tail": (tail_s, "s"),
            "peak_rss_mb": (
                statistics.median(max(i.rss_mb for i in rep.invocations) for rep in reps), "MB"
            ),
        },
        "invocations": invocations,
    }


def layer_metrics(reports: list[dict], rep: Rep, untraced: Rep, serial: Rep) -> dict:
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for report in reports:
        for into, key in ((calls, "calls"), (self_s, "self_s"), (counters, "counters")):
            for name, value in report[key].items():
                into[name] = into.get(name, 0) + value

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cli = [report["cli"] for report in reports]
    values = {
        "cli.import_s": statistics.median(c["import_s"] for c in cli),
        "cli.modules_loaded": statistics.median(c["modules_loaded"] for c in cli),
        "cli.numpy_loaded": max(c["numpy_loaded"] for c in cli),
        "simulator.rounds": counters.get("simulator.rounds", 0),
        "batch.trials": counters.get("batch.trials", 0),
        "batch.fallback_ratio": ratio(counters.get("batch.fallbacks", 0),
                                      counters.get("batch.probes", 0)),
        "pool.starts": counters.get("pool.starts", 0),
        "pool.spinup_s": self_s.get("pool.spinup", 0.0),
        "pool.chunks": counters.get("pool.chunks", 0),
        "pool.wait_s": self_s.get("pool.wait", 0.0),
        "pool.retries": counters.get("pool.retries", 0),
        "campaign.reused_ratio": ratio(counters.get("campaign.reused", 0),
                                       counters.get("campaign.cells", 0)),
        "store.open_s": self_s.get("store.open", 0.0),
        "store.db_bytes": rep.store_bytes(),
        "search.evaluations": counters.get("search.evaluations", 0),
        "trace.overhead_ratio": rep.wall_s / untraced.wall_s,
        "path.serial_wall_s": serial.wall_s,
        "path.serial_ratio": serial.wall_s / untraced.wall_s,
    }
    metrics = {}
    for entry in json.loads((HERE / "layer_map.json").read_text())["metrics"]:
        name = entry["name"]
        if name in values:
            value = values[name]
        else:
            span, kind = name.rsplit(".", 1)
            value = (calls if kind == "calls" else self_s).get(span, 0)
        metrics[name] = (value, entry["unit"])
    return metrics


def traced(workload: Workload, seed: int, work: Path) -> dict:
    # One set-up invocation first, so that byte-compilation is not timed.
    warm_up = run_cli(workload.setup_command().expand(str(_fresh(work / "setup", workload))),
                      work / "setup" / "cli.log")
    warm_up.failed = warm_up.rc != 0
    serial = run_rep(workload, workload.reference_commands(), work / "serial")
    untraced = run_rep(workload, workload.commands, work / "untraced")
    rep = run_rep(workload, workload.commands, work / "traced", traced=True)
    reference = pinned_digests(workload.name) if seed == DEFAULT_SEED else None
    check_rep(serial, reference)
    reference = reference or serial.digests
    check_rep(untraced, reference)
    check_rep(rep, reference)
    reports = [
        json.loads((rep.directory / f"spans-{index}.json").read_text())
        for index in range(len(rep.commands))
    ]
    WORK.mkdir(exist_ok=True)
    spans_out = WORK / f"trace-{workload.name}-{seed}.json"
    spans_out.write_text(json.dumps(reports))
    print(f"{workload.name}: spans of {len(reports)} traced invocations written to {spans_out}")
    return {
        "metrics": layer_metrics(reports, rep, untraced, serial),
        "invocations": [warm_up, *serial.invocations, *untraced.invocations, *rep.invocations],
    }


def pin(workload: Workload, work: Path) -> int:
    serial = run_rep(workload, workload.reference_commands(), work / "serial")
    check_rep(serial, None)
    if any(invocation.failed for invocation in serial.invocations):
        print(f"perfbench: the serial reference of {workload.name} failed", file=sys.stderr)
        return 1
    path = HERE / "digests.json"
    pins = json.loads(path.read_text())
    pins["workloads"][workload.name] = serial.digests
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {workload.name} (seed {DEFAULT_SEED}): {json.dumps(serial.digests)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="run the serial scalar reference for the default seed and pin its "
                             "store digests in digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.pin else args.seed
    workload = generate(args.workload, seed)
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        if args.pin:
            return pin(workload, work)
        if args.trace:
            result = traced(workload, seed, work)
        else:
            result = end_to_end(workload, seed, args.seconds, work)
        invocations = result["invocations"]
        failed = [invocation for invocation in invocations if invocation.failed]
        for invocation in failed:
            print(f"FAILED (rc={invocation.rc}): repro {' '.join(invocation.argv)}")
        if failed:
            logs = WORK / f"failed-{work.name}"
            shutil.copytree(work, logs, ignore=shutil.ignore_patterns("*.db*"), dirs_exist_ok=True)
            print(f"logs of the failed run kept in {logs}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
