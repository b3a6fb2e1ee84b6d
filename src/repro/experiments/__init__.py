"""Workloads, table and figure rendering, and the paper-artefact registry."""

from repro._lazy import lazy_exports

#: Every public name, mapped to the module that defines it (imported on
#: first access; see :mod:`repro._lazy`).
_EXPORTS = {
    "render_bars": "repro.experiments.figures",
    "render_multi_series": "repro.experiments.figures",
    "EXPERIMENTS": "repro.experiments.registry",
    "ExperimentSpec": "repro.experiments.registry",
    "experiment_ids": "repro.experiments.registry",
    "get_experiment": "repro.experiments.registry",
    "render_comparison": "repro.experiments.tables",
    "render_table": "repro.experiments.tables",
    "SIMPLE_WORKLOADS": "repro.experiments.workloads",
    "Workload": "repro.experiments.workloads",
    "adversarial_sweep": "repro.experiments.workloads",
    "crowded_cafe": "repro.experiments.workloads",
    "low_band_attack": "repro.experiments.workloads",
    "lower_bound_worst_case": "repro.experiments.workloads",
    "microwave_oven": "repro.experiments.workloads",
    "quiet_start": "repro.experiments.workloads",
    "reactive_attack": "repro.experiments.workloads",
    "straggler": "repro.experiments.workloads",
    "synchronized_start_low_jam": "repro.experiments.workloads",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
