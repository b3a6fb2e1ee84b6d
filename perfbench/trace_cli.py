"""Run one ``repro`` CLI invocation with spans around each layer's public functions.

Usage::

    PYTHONPATH=src python perfbench/trace_cli.py SPANS.json INVOCATION_ID -- <repro arguments>

The launcher times ``import repro.cli``, wraps the layer boundaries listed in
:func:`install` from the outside (the program itself carries no
instrumentation), calls :func:`repro.cli.main`, and writes the spans to
``SPANS.json`` when the invocation ends.  Every span has a name, start, end,
parent and the invocation id.  Round-loop functions are called millions of
times, so their spans are folded into per-name call counts and self times as
they close instead of being kept one by one; self time is a span's duration
minus the time its child spans cover.

Pool workers are forked from this process and inherit the wrappers, but
tracing is switched off in them: pooled invocations report their parent-side
spans (submit, wait, ingest) only.
"""

import os
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, invocation: str) -> None:
        self.invocation = invocation
        self.enabled = True
        self.origin = perf_counter()
        self.stack: list[list] = []  # [name, start, child_time, span index or None]
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, keep: bool, fn, *args, **kwargs):
        """Call ``fn`` inside a span; ``keep`` records the span itself, not only its totals."""
        stack = self.stack
        if not self.enabled or (stack and stack[-1][0] == name):
            # Off in forked workers; a re-entry (a super() call) belongs to the outer span.
            return fn(*args, **kwargs)
        index = None
        if keep:
            index = len(self.spans)
            parent = next((frame[3] for frame in reversed(stack) if frame[3] is not None), None)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, perf_counter(), 0.0, index]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
            if index is not None:
                self.spans[index][1:3] = [frame[1] - self.origin, end - self.origin]

    def wrap(self, name: str, fn, keep: bool = False, after=None):
        """A traced stand-in for ``fn``; ``after(args, result)`` runs on success."""
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, keep, fn, *args, **kwargs)
            if after is not None and tracer.enabled:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def report(self, argv, rc, cli: dict) -> dict:
        return {
            "invocation": self.invocation,
            "argv": list(argv),
            "rc": rc,
            "cli": cli,
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
            "spans": [[name, start, end, parent, self.invocation]
                      for name, start, end, parent in self.spans],
        }


def _subclasses(base: type) -> list[type]:
    found, pending = [base], [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _repro_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")]


def install(tracer: Tracer) -> None:
    """Wrap the public functions at each layer boundary (see the layer map)."""
    import concurrent.futures as futures
    import threading

    import repro.engine.batch as batch
    from repro.adversary.activation import ActivationSchedule
    from repro.adversary.base import InterferenceAdversary
    from repro.campaigns import runner as campaign_runner
    from repro.campaigns.query import export_campaign
    from repro.campaigns.runner import CampaignRunner
    from repro.campaigns.store import ResultStore
    from repro.engine.pool import ExecutionPool
    from repro.engine.runner import run_reduced_trials
    from repro.engine.simulator import Simulator
    from repro.faults.injector import FaultInjector
    from repro.faults.stabilization import StabilizationTracker
    from repro.protocols.base import SynchronizationProtocol
    from repro.radio.network import SingleHopRadioNetwork
    from repro.search.runner import StrategySearch

    def method(cls, attr, name, keep=False, after=None):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], keep, after))

    def function(original, name, after=None):
        """Replace ``original`` in every repro module that imported it by name."""
        traced = tracer.wrap(name, original, True, after)
        for module in _repro_modules():
            if getattr(module, original.__name__, None) is original:
                setattr(module, original.__name__, traced)

    # engine.simulator
    method(Simulator, "run", "simulator.run", keep=True,
           after=lambda args, result: tracer.count("simulator.rounds",
                                                   result.metrics.rounds_simulated))
    method(Simulator, "_run_with_faults", "simulator.fault_loop", keep=True)
    # protocols, adversary, radio, observers: the round loop
    for cls in _subclasses(SynchronizationProtocol):
        for attr in ("choose_action", "on_reception"):
            if attr in cls.__dict__:
                method(cls, attr, f"protocols.{attr}")
    for cls in _subclasses(InterferenceAdversary):
        if "choose_disruption" in cls.__dict__:
            method(cls, "choose_disruption", "adversary.disruption")
    for cls in _subclasses(ActivationSchedule):
        if "activations_for_round" in cls.__dict__:
            method(cls, "activations_for_round", "adversary.activation")
    method(SingleHopRadioNetwork, "resolve_round", "radio.resolve_round")
    observers = {
        cls
        for module in _repro_modules()
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and "on_round" in cls.__dict__ and not getattr(cls, "_is_protocol", False)
    }
    for cls in observers:
        method(cls, "on_round", "observers.on_round")
    # faults
    for cls, name in ((FaultInjector, "faults.injector"),
                      (StabilizationTracker, "faults.stabilization")):
        for attr, value in list(cls.__dict__.items()):
            if callable(value) and (attr == "__init__" or not attr.startswith("_")):
                method(cls, attr, name)

    # engine.batch: a cell whose template is not batchable falls back to the scalar loop
    fell_back = [False]

    def probed(args, ok):
        tracer.count("batch.probes")
        tracer.count("batch.fallbacks", 0 if ok else 1)
        fell_back[0] = not ok

    batch.batchable = tracer.wrap("batch.batchable", batch.batchable, after=probed)
    function(batch.run_reduced_batch, "batch.run_reduced_batch",
             after=lambda args, rows: tracer.count("batch.trials",
                                                   0 if fell_back[0] else len(rows)))

    # engine.pool: parent-side spans stand in for worker time
    method(ExecutionPool, "_retry_chunks", "pool.retry", keep=True,
           after=lambda args, fresh: tracer.count("pool.retries", len(fresh)))
    executor_init = futures.ProcessPoolExecutor.__init__
    executor_submit = futures.ProcessPoolExecutor.submit
    spun_up: set[int] = set()

    def init(self, *args, **kwargs):
        if tracer.enabled:
            tracer.count("pool.starts")
        executor_init(self, *args, **kwargs)

    def submit(self, *args, **kwargs):
        if not tracer.enabled:
            return executor_submit(self, *args, **kwargs)
        tracer.count("pool.chunks")
        # The first submit to a fresh executor forks its workers.
        first = id(self) not in spun_up
        spun_up.add(id(self))
        return tracer.call("pool.spinup" if first else "pool.submit", first,
                           executor_submit, self, *args, **kwargs)

    futures.ProcessPoolExecutor.__init__ = init
    futures.ProcessPoolExecutor.submit = submit
    future_result = futures.Future.result
    main_thread = threading.main_thread()

    def result(self, timeout=None):
        if threading.current_thread() is not main_thread:
            return future_result(self, timeout)
        return tracer.call("pool.wait", False, future_result, self, timeout)

    futures.Future.result = result
    completed = campaign_runner.as_completed

    def as_completed(fs, timeout=None):
        pending = completed(fs, timeout)
        while True:
            try:
                yield tracer.call("pool.wait", False, next, pending)
            except StopIteration:
                return

    campaign_runner.as_completed = as_completed
    method(ExecutionPool, "ingest", "pool.ingest")

    # campaigns.runner / engine.runner
    def progressed(args, progress):
        tracer.count("campaign.cells", progress.total)
        tracer.count("campaign.reused", progress.already_complete)

    method(CampaignRunner, "run", "campaign.run", keep=True, after=progressed)
    function(run_reduced_trials, "runner.run_reduced_trials")
    # campaigns.store and campaigns.query
    method(ResultStore, "__init__", "store.open", keep=True)
    method(ResultStore, "record_cell", "store.record_cell", keep=True)
    method(ResultStore, "completed_keys", "store.completed_keys", keep=True)
    function(export_campaign, "query.export")
    # search
    method(StrategySearch, "run", "search.run", keep=True,
           after=lambda args, result: tracer.count("search.evaluations",
                                                   result.executed + result.reused))


def main(argv: list[str]) -> int:
    out, invocation, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: trace_cli.py SPANS.json INVOCATION_ID -- <repro arguments>")
    before = len(sys.modules)
    started = perf_counter()
    import repro.cli

    cli = {
        "import_s": perf_counter() - started,
        "modules_loaded": len(sys.modules) - before,
        "numpy_loaded": int("numpy" in sys.modules),
    }
    tracer = Tracer(invocation)
    install(tracer)
    try:
        rc = tracer.call("cli.main", True, repro.cli.main, cli_args)
    except SystemExit as exit_:
        rc = exit_.code if isinstance(exit_.code, int) else 1
    import json

    with open(out, "w") as handle:
        json.dump(tracer.report(cli_args, rc, cli), handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
