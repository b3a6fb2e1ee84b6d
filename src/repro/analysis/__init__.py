"""Analytical machinery: the paper's bounds, proof gadgets, and curve fitting."""

from repro._lazy import lazy_exports

#: Every public name, mapped to the module that defines it (imported on
#: first access; see :mod:`repro._lazy`).
_EXPORTS = {
    "lemma2_holds": "repro.analysis.balls_in_bins",
    "lemma2_lower_bound": "repro.analysis.balls_in_bins",
    "no_singleton_probability_exact": "repro.analysis.balls_in_bins",
    "no_singleton_probability_monte_carlo": "repro.analysis.balls_in_bins",
    "good_samaritan_adaptive_bound": "repro.analysis.bounds",
    "good_samaritan_worst_case_bound": "repro.analysis.bounds",
    "theorem1_lower_bound": "repro.analysis.bounds",
    "theorem4_lower_bound": "repro.analysis.bounds",
    "theorem5_lower_bound": "repro.analysis.bounds",
    "trapdoor_upper_bound": "repro.analysis.bounds",
    "upper_to_lower_gap": "repro.analysis.bounds",
    "ConstantFit": "repro.analysis.fitting",
    "crossover_index": "repro.analysis.fitting",
    "fit_constant": "repro.analysis.fitting",
    "monotonically_increasing": "repro.analysis.fitting",
    "claim3_column_exponents": "repro.analysis.good_probability",
    "claim3_holds": "repro.analysis.good_probability",
    "good_population_exponents": "repro.analysis.good_probability",
    "goodness_threshold": "repro.analysis.good_probability",
    "is_good": "repro.analysis.good_probability",
    "optimal_broadcast_probability": "repro.analysis.good_probability",
    "success_probability": "repro.analysis.good_probability",
    "PowerLawFit": "repro.analysis.scaling",
    "doubling_ratios": "repro.analysis.scaling",
    "fit_power_law": "repro.analysis.scaling",
    "growth_factor": "repro.analysis.scaling",
    "SampleSummary": "repro.analysis.statistics",
    "geometric_mean": "repro.analysis.statistics",
    "percentile": "repro.analysis.statistics",
    "summarize": "repro.analysis.statistics",
    "DisruptionChoice": "repro.analysis.two_node_game",
    "best_protocol_meeting_probability": "repro.analysis.two_node_game",
    "best_protocol_meeting_probability_bruteforce": "repro.analysis.two_node_game",
    "expected_rounds_to_meet": "repro.analysis.two_node_game",
    "optimal_disruption": "repro.analysis.two_node_game",
    "per_round_escape_probability": "repro.analysis.two_node_game",
    "rounds_lower_bound": "repro.analysis.two_node_game",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
