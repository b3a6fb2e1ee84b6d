"""repro — a from-scratch reproduction of *The Wireless Synchronization Problem*.

Dolev, Gilbert, Guerraoui, Kuhn, Newport (PODC 2009) study how devices that
wake up at different times on a jammed, multi-frequency radio band can agree
on a global round numbering.  This package implements the paper's model, its
two protocols (Trapdoor and Good Samaritan), the baselines they are measured
against, the analytical machinery of the lower bounds, and an experiment
harness that regenerates every figure and theorem-shaped result.

Quick start::

    from repro import (
        ModelParameters, SimulationConfig, simulate,
        TrapdoorProtocol, StaggeredActivation, RandomJammer,
    )

    params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
    config = SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=10, spacing=3),
        adversary=RandomJammer(),
    )
    result = simulate(config)
    print(result.summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Every public name, mapped to the module that defines it.  Nothing below is
#: imported until first accessed (see :mod:`repro._lazy`).
_EXPORTS = {
    "ActivationSchedule": "repro.adversary.activation",
    "BurstyJammer": "repro.adversary.jammers",
    "CyclicObliviousSchedule": "repro.adversary.oblivious",
    "ExplicitActivation": "repro.adversary.activation",
    "FixedBandJammer": "repro.adversary.jammers",
    "InterferenceAdversary": "repro.adversary.base",
    "LowBandJammer": "repro.adversary.jammers",
    "NoInterference": "repro.adversary.jammers",
    "ObliviousSchedule": "repro.adversary.oblivious",
    "PolicyJammer": "repro.adversary.policy",
    "RandomActivation": "repro.adversary.activation",
    "RandomJammer": "repro.adversary.jammers",
    "ReactiveJammer": "repro.adversary.jammers",
    "SimultaneousActivation": "repro.adversary.activation",
    "StaggeredActivation": "repro.adversary.activation",
    "SweepJammer": "repro.adversary.jammers",
    "TrickleActivation": "repro.adversary.activation",
    "TwoNodeProductJammer": "repro.adversary.jammers",
    "good_samaritan_adaptive_bound": "repro.analysis.bounds",
    "good_samaritan_worst_case_bound": "repro.analysis.bounds",
    "theorem1_lower_bound": "repro.analysis.bounds",
    "theorem4_lower_bound": "repro.analysis.bounds",
    "theorem5_lower_bound": "repro.analysis.bounds",
    "trapdoor_upper_bound": "repro.analysis.bounds",
    "CampaignRunner": "repro.campaigns.runner",
    "CampaignSpec": "repro.campaigns.spec",
    "ResultStore": "repro.campaigns.store",
    "StoredSummary": "repro.campaigns.query",
    "PropertyChecker": "repro.engine.checker",
    "RoundObserver": "repro.engine.observers",
    "SimulationConfig": "repro.engine.simulator",
    "SimulationResult": "repro.engine.results",
    "Simulator": "repro.engine.simulator",
    "StreamingPropertyChecker": "repro.engine.checker",
    "TraceLevel": "repro.engine.observers",
    "TrialSummary": "repro.engine.runner",
    "run_trials": "repro.engine.runner",
    "simulate": "repro.engine.simulator",
    "ConfigurationError": "repro.exceptions",
    "ExperimentError": "repro.exceptions",
    "ProtocolViolationError": "repro.exceptions",
    "ReproError": "repro.exceptions",
    "SimulationError": "repro.exceptions",
    "ModelParameters": "repro.params",
    "SearchObjective": "repro.search.objective",
    "SearchSpec": "repro.search.checkpoint",
    "StrategySearch": "repro.search.runner",
    "StrategySpace": "repro.search.space",
    "DecayWakeupProtocol": "repro.protocols.baselines.decay_wakeup",
    "FaultTolerantTrapdoorProtocol": "repro.protocols.fault_tolerant",
    "GoodSamaritanConfig": "repro.protocols.good_samaritan.config",
    "GoodSamaritanProtocol": "repro.protocols.good_samaritan.protocol",
    "GoodSamaritanSchedule": "repro.protocols.good_samaritan.schedule",
    "RoundRobinSweepProtocol": "repro.protocols.baselines.round_robin",
    "SingleChannelAlohaProtocol": "repro.protocols.baselines.single_channel",
    "SynchronizationProtocol": "repro.protocols.base",
    "Timestamp": "repro.timestamps",
    "TrapdoorConfig": "repro.protocols.trapdoor.config",
    "TrapdoorProtocol": "repro.protocols.trapdoor.protocol",
    "TrapdoorSchedule": "repro.protocols.trapdoor.epochs",
    "UniformWakeupProtocol": "repro.protocols.baselines.uniform_wakeup",
    "FrequencyBand": "repro.radio.frequencies",
    "SingleHopRadioNetwork": "repro.radio.network",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
