"""The public execution surface: :class:`ExecutionPlan`.

Every execution knob — worker count, pool chunk size, the batch kernel, and
the telemetry outputs — lives in one frozen, JSON-round-trippable plan
object, and ``plan=`` is the only way to pass them:

* :func:`~repro.engine.runner.run_trials`,
  :func:`~repro.engine.runner.run_reduced_trials`,
  :class:`~repro.campaigns.runner.CampaignRunner`,
  :class:`~repro.search.runner.StrategySearch`, and
  :meth:`~repro.search.objective.SearchObjective.evaluate` take ``plan=``
  and no other execution keyword;
* a service :class:`~repro.service.protocol.JobRequest` embeds the plan's
  JSON form verbatim, so the wire schema and the Python API are one surface.

A plan never changes results: it only chooses *where* work executes (serial,
worker pool, vectorized lockstep kernel) and what observability rides along.
The golden-equivalence suite pins ``plan=`` dispatch bit-identical to the
serial engine.  A live :class:`~repro.engine.pool.ExecutionPool` is
deliberately **not** part of the plan — pools are process-local handles that
cannot cross a serialization boundary; callers that share one pool across
subsystems keep passing ``pool=`` alongside the plan (the pool wins for
dispatch; the plan still contributes ``batch``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Literal, Mapping, Optional, Union

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.pool import ExecutionPool
    from repro.telemetry import Telemetry

#: Schema tag embedded in every serialized plan.  Bump on any breaking field
#: change — the service refuses job requests whose plan schema it cannot read.
PLAN_SCHEMA = "repro.execution-plan/v1"

#: The ``workers`` value that lets the program pick the path (see
#: :func:`choose_workers`).
AUTO = "auto"

#: What starting an :class:`~repro.engine.pool.ExecutionPool` and feeding it
#: costs on top of the work itself, in seconds.  On a 2-core x86 box under
#: CPython 3.11 the traced ``pool.spinup_s`` (the forking first submit) is
#: 5–10 ms per pool start; a fresh pool's first chunk round trip, pickling
#: and the workers' shutdown bring a short pooled run's overhead to
#: ≈0.055 s, rounded up here.  An ``auto`` run pools only work that is
#: expected to take longer than this serially.
POOL_SPINUP_S = 0.06


def usable_cores() -> int:
    """CPU cores this process may run on (its affinity mask, not the box's total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity masks
        return os.cpu_count() or 1


def choose_workers(
    per_trial_s: float,
    remaining_trials: int,
    parallel_units: int,
    cores: int,
    spinup_s: float = POOL_SPINUP_S,
    batch: bool = False,
) -> int:
    """How many workers the rest of an ``auto`` run should use (``1`` = stay serial).

    The rule behind ``ExecutionPlan(workers="auto")``, a pure function of what
    the program can observe: a pool of ``min(cores, parallel_units)`` workers
    when the remaining work, priced at the measured ``per_trial_s``, costs
    more serially than pool spin-up and dispatch (``spinup_s``).  So tiny
    runs stay serial, one core never pools, and a run can be slower than
    serial by at most about one spin-up.  ``parallel_units`` is how many
    pieces of the remaining work can run at once (cells of a campaign, seeds
    of one batch).  Batch-kernel work never pools: no measurement shows the
    pool beating the in-process kernel.
    """
    workers = min(cores, parallel_units)
    if batch or workers < 2 or per_trial_s * remaining_trials <= spinup_s:
        return 1
    return workers


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """How a batch of simulations should execute — one serializable object.

    Attributes
    ----------
    workers:
        Worker processes (``1`` = serial in-process execution), or
        :data:`AUTO`: run the first piece of work serially, time it, and move
        the rest onto a pool when :func:`choose_workers` says that pays.
        Campaign runners, searches and the ``trials`` command resolve
        ``auto``; a one-shot :func:`~repro.engine.runner.run_trials` call has
        nothing to measure first and runs it serially.
    pool_chunk:
        Seeds per dispatched pool chunk (``None`` = automatic sizing).
    batch:
        Run same-template seed batches on the vectorized lockstep kernel
        (:mod:`repro.engine.batch`) where the configuration is batchable,
        with transparent scalar fallback otherwise.
    telemetry_events:
        Optional JSONL path for structured telemetry events.
    telemetry_rotate_bytes:
        Optional size cap for the events JSONL (one ``.1`` predecessor kept).
    metrics_out:
        Optional final metrics-snapshot path (JSON, or Prometheus text when
        the suffix is ``.prom``).

    None of these fields ever changes results — stores, checkpoints, and
    digests are bit-identical under every plan (the golden suite pins it).
    """

    workers: Union[int, Literal["auto"]] = 1
    pool_chunk: Optional[int] = None
    batch: bool = False
    telemetry_events: Optional[str] = None
    telemetry_rotate_bytes: Optional[int] = None
    metrics_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers != AUTO and (
            not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 1
        ):
            raise ConfigurationError(
                f"an execution plan needs >= 1 worker or {AUTO!r}, got {self.workers!r}"
            )
        if self.pool_chunk is not None and self.pool_chunk < 1:
            raise ConfigurationError(f"pool_chunk must be positive, got {self.pool_chunk}")
        if self.telemetry_rotate_bytes is not None and self.telemetry_rotate_bytes < 1:
            raise ConfigurationError(
                f"telemetry_rotate_bytes must be positive, got {self.telemetry_rotate_bytes}"
            )

    # -- derived views ------------------------------------------------------

    @property
    def auto(self) -> bool:
        """True when the program picks the worker count (``workers="auto"``)."""
        return self.workers == AUTO

    @property
    def worker_count(self) -> int:
        """Workers a dispatch starts with: the count, or 1 for ``auto`` (it starts serial)."""
        return self.workers if isinstance(self.workers, int) else 1

    @property
    def parallel(self) -> bool:
        """True when the plan asks for worker processes."""
        return self.worker_count > 1

    def settle(
        self, per_trial_s: float, remaining_trials: int, parallel_units: int
    ) -> "ExecutionPlan":
        """This plan with ``auto`` resolved by :func:`choose_workers` (others unchanged).

        Feeds the rule this process's :func:`usable_cores` and the
        :data:`POOL_SPINUP_S` constant; the caller supplies the measured
        per-trial cost and the work left.
        """
        if not self.auto:
            return self
        workers = choose_workers(
            per_trial_s,
            remaining_trials,
            parallel_units,
            usable_cores(),
            spinup_s=POOL_SPINUP_S,
            batch=self.batch,
        )
        return replace(self, workers=workers)

    def serial(self) -> "ExecutionPlan":
        """This plan forced onto one in-process worker (degrade paths)."""
        return replace(self, workers=1, pool_chunk=None)

    def pool(self, telemetry: "Optional[Telemetry]" = None) -> "Optional[ExecutionPool]":
        """A fresh :class:`~repro.engine.pool.ExecutionPool` per the plan.

        Returns ``None`` for a serial plan — callers treat that exactly like
        an absent pool.  The pool is *not* started here (it forks lazily on
        first dispatch); the caller owns its lifecycle.
        """
        if not self.parallel:
            return None
        from repro.engine.pool import ExecutionPool

        return ExecutionPool(self.worker_count, chunk_size=self.pool_chunk, telemetry=telemetry)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The plan as a JSON-shaped dict (schema-tagged, every field present)."""
        return {
            "schema": PLAN_SCHEMA,
            "workers": self.workers,
            "pool_chunk": self.pool_chunk,
            "batch": self.batch,
            "telemetry_events": self.telemetry_events,
            "telemetry_rotate_bytes": self.telemetry_rotate_bytes,
            "metrics_out": self.metrics_out,
        }

    def to_json(self) -> str:
        """The plan as canonical JSON text."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output (schema-checked, strict).

        Unknown keys are refused rather than silently dropped — a job request
        with a misspelled knob must fail admission, not run with defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"an execution plan must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ConfigurationError(
                f"unsupported execution-plan schema {schema!r} "
                f"(this build reads {PLAN_SCHEMA!r})"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known - {"schema"})
        if unknown:
            raise ConfigurationError(
                f"execution plan has unknown fields: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**{name: data[name] for name in known if name in data})

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"execution plan is not valid JSON: {error}") from error
        return cls.from_dict(data)

    def describe(self) -> str:
        """One-line summary for logs and CLI banners."""
        parts = ["auto workers" if self.auto else f"{self.workers} worker(s)"]
        if self.pool_chunk is not None:
            parts.append(f"chunk {self.pool_chunk}")
        parts.append("batch kernel" if self.batch else "scalar loop")
        return ", ".join(parts)
