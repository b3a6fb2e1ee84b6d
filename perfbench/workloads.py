"""Seeded workload generator for the end-to-end CLI benchmark.

Each workload is a fixed sequence of ``python -m repro`` invocations (one
*repetition*) plus the fault-plan files they read.  The benchmark seed picks
the parameter points inside bands that keep the amount of work steady — the
participant bound ``N`` is drawn within one power-of-two band, so every
schedule keeps its length while the broadcast probabilities (and therefore
every stored trial) change — and it draws the churn and Byzantine schedule of
the fault plan.  The program only ever sees the generated arguments and files.

Nothing here imports the program: the benchmark drives it from outside.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: The seed whose store digests are pinned in ``digests.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a repetition.

    Attributes
    ----------
    argv:
        Arguments after ``python -m repro``; ``{dir}`` expands to the
        repetition's scratch directory.
    completes:
        Name of the campaign or search this invocation leaves complete; its
        stored rows are digested and checked after the repetition.
    output:
        A JSON file the invocation must write (``{dir}``-relative).
    """

    argv: tuple[str, ...]
    completes: str | None = None
    output: str | None = None

    def expand(self, directory: str) -> list[str]:
        return [arg.replace("{dir}", directory) for arg in self.argv]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a repetition of CLI invocations.

    Attributes
    ----------
    name, why:
        The workload's name and the one-sentence reason it exists.
    commands:
        One repetition, in order.  The first one is a ``campaign run``; the
        set-up measurement reruns it with ``--max-cells 0`` on a fresh store.
    serial:
        The same campaigns and searches on the serial scalar path (no
        ``--workers``, no ``--batch``): the correctness reference, and the
        ``path.serial_wall_s`` timing.  Empty when ``commands`` already are
        that path.
    files:
        Files written into the repetition directory before it runs.
    nominal_rep_s:
        Rough duration of one repetition on a 2-core x86 box; the number of
        repetitions in a run is ``--seconds`` divided by it, so that the
        sample count of a run does not depend on timing noise.
    """

    name: str
    why: str
    commands: tuple[Command, ...]
    serial: tuple[Command, ...] = ()
    files: dict[str, str] = field(default_factory=dict)
    nominal_rep_s: float = 5.0

    def setup_command(self) -> Command:
        """The first command with ``--max-cells 0``: start-up, parse, store open, registration."""
        argv = list(self.commands[0].argv)
        if "--max-cells" in argv:
            argv[argv.index("--max-cells") + 1] = "0"
        else:
            argv += ["--max-cells", "0"]
        return Command(tuple(argv))

    def reference_commands(self) -> tuple[Command, ...]:
        return self.serial or self.commands


def _campaign(
    name: str,
    store: str,
    protocols: str,
    workloads: str,
    frequencies: str,
    budgets: str,
    participants: int,
    node_count: int,
    seeds: int,
    *extra: str,
) -> tuple[str, ...]:
    return (
        "campaign", "run", "--store", f"{{dir}}/{store}", "--name", name, "--quiet",
        "--protocols", protocols, "--workloads", workloads,
        "-F", frequencies, "-t", budgets, "-N", str(participants),
        "--node-counts", str(node_count), "--seeds", str(seeds), *extra,
    )


def _band(rng: random.Random, upper: int) -> int:
    """A participant bound in ``(upper/2, upper]``: same ``ceil(lg N)``, so same schedule length."""
    return rng.randint(upper // 2 + 1, upper)


def _serial(argv: tuple[str, ...]) -> tuple[str, ...]:
    """Strip the execution-path flags, leaving the serial scalar path."""
    out: list[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--workers":
            skip = True
        elif arg != "--batch":
            out.append(arg)
    return tuple(out)


def sweep(seed: int) -> Workload:
    rng = random.Random(f"sweep:{seed}")
    workloads = "crowded_cafe,adversarial_sweep,reactive_attack"
    return Workload(
        name="sweep",
        why=(
            "Theorem-style grid on the serial scalar path: the round-loop layers (protocols, "
            "radio, adversary, observers) do almost all the work."
        ),
        commands=(
            Command(
                _campaign("trapdoor-grid", "sweep.db", "trapdoor", workloads, "6,8", "1,3",
                          _band(rng, 64), 8, 6),
                completes="trapdoor-grid",
            ),
            Command(
                _campaign("samaritan-grid", "sweep.db", "good-samaritan", workloads, "4", "1",
                          _band(rng, 16), 4, 2),
                completes="samaritan-grid",
            ),
        ),
        nominal_rep_s=3.0,
    )


def seeds(seed: int) -> Workload:
    rng = random.Random(f"seeds:{seed}")
    run = _campaign("many-seeds", "seeds.db", "trapdoor", "crowded_cafe,adversarial_sweep",
                    "8", "1,3", _band(rng, 64), 8, 64, "--batch")
    return Workload(
        name="seeds",
        why=(
            "A few batchable cells x many seeds with --batch, as needed to check the w.h.p. "
            "claims: the engine.batch kernel does the work, the scalar loop none."
        ),
        commands=(Command(run, completes="many-seeds"),),
        serial=(Command(_serial(run), completes="many-seeds"),),
        nominal_rep_s=2.5,
    )


def small_jobs(seed: int) -> Workload:
    rng = random.Random(f"small_jobs:{seed}")
    pooled = ("--workers", "2", "--max-rounds", "20000")
    tiny_n = _band(rng, 8)
    tiny = _campaign("tiny", "jobs.db", "trapdoor,good-samaritan", "quiet_start,crowded_cafe",
                     "4", "1", tiny_n, 2, 2, *pooled)
    wide = _campaign("wide", "jobs.db", "trapdoor", "crowded_cafe,adversarial_sweep",
                     "4,6", "1", _band(rng, 16), 4, 3, *pooled)
    # Shares the trapdoor cells of `tiny`, which it reuses from the store.
    overlap = _campaign("overlap", "jobs.db", "trapdoor",
                        "quiet_start,crowded_cafe,reactive_attack", "4", "1", tiny_n, 2, 2,
                        *pooled)
    search = (
        "search", "run", "--store", "{dir}/jobs.db", "--name", "hunt", "--protocol", "trapdoor",
        "--workload", "quiet_start", "-F", "4", "-t", "1", "-N", str(_band(rng, 16)),
        "--nodes", "4", "--seeds", "2", "--max-rounds", "2000", "--population", "4",
        "--generations", "2", "--master-seed", str(rng.randrange(2**31)), "--workers", "2",
    )
    export = ("campaign", "export", "--store", "{dir}/jobs.db")
    return Workload(
        name="small_jobs",
        why=(
            "Many short back-to-back invocations on --workers 2: start-up, pool start, IPC, "
            "store writes and reads and queries dominate, the engine does almost nothing."
        ),
        commands=(
            Command(tiny + ("--max-cells", "2")),
            Command(tiny, completes="tiny"),
            Command(("campaign", "status", "--store", "{dir}/jobs.db", "--json")),
            Command(wide, completes="wide"),
            Command(overlap, completes="overlap"),
            Command(export + ("--name", "tiny", "--output", "{dir}/tiny.json"),
                    output="tiny.json"),
            Command(search, completes="hunt"),
            Command(export + ("--name", "wide", "--output", "{dir}/wide.json",
                              "--group-by", "frequencies"), output="wide.json"),
            Command(export + ("--name", "overlap", "--output", "{dir}/overlap.json"),
                    output="overlap.json"),
        ),
        serial=tuple(
            Command(_serial(argv), completes=name)
            for argv, name in ((tiny, "tiny"), (wide, "wide"), (overlap, "overlap"),
                               (search, "hunt"))
        ),
        nominal_rep_s=5.0,
    )


def fault_plan(seed: int, node_count: int) -> dict:
    """A churn plus Byzantine plan, in :meth:`repro.faults.FaultPlan.to_dict` layout."""
    rng = random.Random(f"faults-plan:{seed}")
    leaver, departer = rng.sample(range(node_count), 2)
    leave = rng.randint(60, 200)
    # Forging starts before the honest nodes synchronize, so nearly every trial
    # runs to --max-rounds and the amount of work does not depend on the seed.
    return {
        "byzantine": {"count": 1, "start_round": rng.randint(10, 40)},
        "churn": sorted(
            (
                {"leave": leave, "node": leaver, "rejoin": leave + rng.randint(100, 300)},
                {"leave": rng.randint(150, 400), "node": departer, "rejoin": None},
            ),
            key=lambda event: (event["leave"], event["node"]),
        ),
        "corruption": [],
        "kind": "fault-plan",
        "schema": 1,
    }


def fault_plan_json(seed: int, node_count: int) -> str:
    """The plan file exactly as ``FaultPlan.to_json`` writes it."""
    return json.dumps(fault_plan(seed, node_count), indent=2, sort_keys=True)


def faults(seed: int) -> Workload:
    rng = random.Random(f"faults:{seed}")
    node_count = 8
    run = _campaign("faulty", "faults.db", "trapdoor,fault-tolerant-trapdoor",
                    "crowded_cafe,adversarial_sweep", "6,8", "1,3", _band(rng, 64), node_count,
                    2, "--max-rounds", "1200", "--faults", "{dir}/plan.json")
    return Workload(
        name="faults",
        why=(
            "Serial campaign with a churn plus Byzantine fault plan: the only workload that "
            "drives the simulator's fault loop, repro.faults and the stabilization metric."
        ),
        commands=(Command(run, completes="faulty"),),
        files={"plan.json": fault_plan_json(seed, node_count)},
        nominal_rep_s=4.0,
    )


WORKLOADS = {"sweep": sweep, "seeds": seeds, "small_jobs": small_jobs, "faults": faults}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for benchmark seed ``seed`` (same seed, same inputs)."""
    return WORKLOADS[name](seed)
