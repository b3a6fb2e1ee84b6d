"""The performance-benchmark subsystem.

``repro.bench`` makes the simulator's speed a measured, regression-gated
artefact instead of folklore:

* :mod:`repro.bench.scenarios` — a registry of pinned benchmark workloads
  (trace-free trapdoor throughput, full-trace Good Samaritan, a parallel
  campaign slice, a search warm start), each returning a deterministic work
  digest alongside its work count;
* :mod:`repro.bench.harness` — a warmup/repeat/median timing harness plus a
  machine-speed calibration loop, so throughputs can be normalized and
  compared across hosts;
* :mod:`repro.bench.report` — schema-versioned JSON emission
  (``BENCH_<rev>.json``) and baseline comparison with a regression tolerance
  (what the CI ``perf-gate`` job runs).
"""

from repro._lazy import lazy_exports

#: Every public name, mapped to the module that defines it (imported on
#: first access; see :mod:`repro._lazy`).
_EXPORTS = {
    "BenchMeasurement": "repro.bench.harness",
    "BenchRun": "repro.bench.harness",
    "calibration_rate": "repro.bench.harness",
    "run_bench": "repro.bench.harness",
    "BENCH_SCHEMA_VERSION": "repro.bench.report",
    "bench_run_to_dict": "repro.bench.report",
    "compare_bench": "repro.bench.report",
    "load_bench_json": "repro.bench.report",
    "write_bench_json": "repro.bench.report",
    "BENCH_SCENARIOS": "repro.bench.scenarios",
    "BenchScenario": "repro.bench.scenarios",
    "ScenarioWork": "repro.bench.scenarios",
    "ci_scenario_names": "repro.bench.scenarios",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
