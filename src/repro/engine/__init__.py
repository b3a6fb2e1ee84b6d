"""The synchronous round-driven simulation engine."""

from repro._lazy import lazy_exports

#: Every public name, mapped to the module that defines it (imported on
#: first access; see :mod:`repro._lazy`).
_EXPORTS = {
    "batchable": "repro.engine.batch",
    "run_batch": "repro.engine.batch",
    "run_reduced_batch": "repro.engine.batch",
    "PropertyChecker": "repro.engine.checker",
    "PropertyReport": "repro.engine.checker",
    "PropertyViolation": "repro.engine.checker",
    "StreamingPropertyChecker": "repro.engine.checker",
    "ExecutionMetrics": "repro.engine.metrics",
    "MetricsObserver": "repro.engine.metrics",
    "collect_metrics": "repro.engine.metrics",
    "NodeRuntime": "repro.engine.node",
    "BaseRoundObserver": "repro.engine.observers",
    "RoundObserver": "repro.engine.observers",
    "TraceLevel": "repro.engine.observers",
    "TraceRecorder": "repro.engine.observers",
    "replay_trace": "repro.engine.observers",
    "ExecutionPool": "repro.engine.pool",
    "ReducedTrial": "repro.engine.pool",
    "WorkerCrashError": "repro.engine.pool",
    "WorkUnit": "repro.engine.pool",
    "run_units": "repro.engine.pool",
    "SimulationResult": "repro.engine.results",
    "RandomStreams": "repro.engine.rng",
    "derive_seed": "repro.engine.rng",
    "randint_upto": "repro.engine.rng",
    "TrialSummary": "repro.engine.runner",
    "run_reduced_trials": "repro.engine.runner",
    "run_trials": "repro.engine.runner",
    "SimulationConfig": "repro.engine.simulator",
    "Simulator": "repro.engine.simulator",
    "simulate": "repro.engine.simulator",
    "ExecutionTrace": "repro.engine.trace",
    "RoundRecord": "repro.engine.trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
