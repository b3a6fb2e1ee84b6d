"""Adversarial strategy search.

The paper's Θ-bounds hold against a *worst-case* interference adversary, but
hand-written jammers only witness the lower bounds as well as our intuition.
This package treats jammer-vs-protocol as a game and *searches* for
disruption strategies that maximize synchronization latency (or failure
rate), reusing the parallel trial runner for evaluation and the campaign
result store for exact, deduplicated, resumable checkpointing.

Modules
-------
:mod:`repro.search.space`
    Searchable strategy genomes — bounded oblivious schedules, parametric
    registry jammers, and reactive policy tables — each decoding to a
    picklable :class:`~repro.adversary.base.InterferenceAdversary`.
:mod:`repro.search.objective`
    Multi-seed evaluation of a genome against a pinned protocol/workload
    configuration, with configurable latency / success / round-count scores.
:mod:`repro.search.optimizers`
    Seeded random search, (1+λ) hill-climbing, and a cross-entropy method,
    all deterministic from one master seed.
:mod:`repro.search.checkpoint`
    The search spec and its persistence into a campaign
    :class:`~repro.campaigns.store.ResultStore` (content-hashed candidate
    keys, per-candidate trial records, spec pinning for safe resume).
:mod:`repro.search.runner`
    The ask–evaluate–tell driver: dedups candidates against the store,
    checkpoints every evaluation, and resumes bit-identically after a kill.
"""

from repro._lazy import lazy_exports

#: Every public name, mapped to the module that defines it (imported on
#: first access; see :mod:`repro._lazy`).
_EXPORTS = {
    "SearchCheckpoint": "repro.search.checkpoint",
    "SearchSpec": "repro.search.checkpoint",
    "Evaluation": "repro.search.objective",
    "SearchObjective": "repro.search.objective",
    "OPTIMIZERS": "repro.search.optimizers",
    "make_optimizer": "repro.search.optimizers",
    "SearchResult": "repro.search.runner",
    "StrategySearch": "repro.search.runner",
    "export_search": "repro.search.runner",
    "search_status": "repro.search.runner",
    "StrategySpace": "repro.search.space",
    "genome_from_dict": "repro.search.space",
    "genome_key": "repro.search.space",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
