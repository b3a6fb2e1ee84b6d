"""Engine throughput: streaming trace-free execution vs. full-trace recording.

Not a paper artefact — this benchmark instruments the execution core itself.
Two measurements:

* rounds/second of a fixed-length execution with ``TraceLevel.FULL`` (every
  round record buffered) vs ``TraceLevel.NONE`` (pure streaming: checker and
  metrics fold incrementally, nothing is retained);
* a Theorem-10-style multi-seed batch run serially with full traces vs. on a
  4-process pool with no traces — the two must produce *identical*
  liveness/agreement/latency statistics, which is what makes the fast
  configuration safe to use everywhere.
"""

from __future__ import annotations

import time
from dataclasses import replace

from _bench_helpers import run_once
from repro.adversary.activation import StaggeredActivation
from repro.adversary.jammers import RandomJammer
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.runner import run_trials
from repro.engine.simulator import SimulationConfig, simulate
from repro.experiments.tables import render_table
from repro.params import ModelParameters
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.protocols.trapdoor.protocol import TrapdoorProtocol


def _fixed_length_config(trace_level: TraceLevel) -> SimulationConfig:
    """A fixed-round-count execution so both variants simulate identical work."""
    return SimulationConfig(
        params=ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64),
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=8, spacing=3),
        adversary=RandomJammer(),
        max_rounds=4_000,
        stop_when_synchronized=False,
        trace_level=trace_level,
    )


def _good_samaritan_config(trace_level: TraceLevel) -> SimulationConfig:
    """The Good Samaritan cell of the ``sweep`` grid's shape, at a fixed round count."""
    return SimulationConfig(
        params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=16),
        protocol_factory=GoodSamaritanProtocol.factory(),
        activation=StaggeredActivation(count=4, spacing=4),
        adversary=RandomJammer(),
        max_rounds=4_000,
        stop_when_synchronized=False,
        trace_level=trace_level,
    )


def _rounds_per_second(
    trace_level: TraceLevel, repetitions: int = 3, build=_fixed_length_config
) -> tuple[float, int]:
    """Best-of-``repetitions`` throughput for one trace level."""
    best = 0.0
    rounds = 0
    for _ in range(repetitions):
        config = build(trace_level)
        start = time.perf_counter()
        result = simulate(config)
        elapsed = time.perf_counter() - start
        rounds = result.rounds_simulated
        best = max(best, rounds / elapsed)
    return best, rounds


def test_trace_free_execution_throughput(benchmark, emit):
    def run():
        full_rate, rounds = _rounds_per_second(TraceLevel.FULL)
        none_rate, _ = _rounds_per_second(TraceLevel.NONE)
        samaritan_rate, samaritan_rounds = _rounds_per_second(
            TraceLevel.NONE, build=_good_samaritan_config
        )
        return [
            {
                "protocol": "trapdoor",
                "rounds_per_execution": rounds,
                "full_trace_rounds_per_sec": full_rate,
                "trace_free_rounds_per_sec": none_rate,
                "speedup": none_rate / full_rate,
            },
            {
                "protocol": "good-samaritan",
                "rounds_per_execution": samaritan_rounds,
                "trace_free_rounds_per_sec": samaritan_rate,
            },
        ]

    row, samaritan = run_once(benchmark, run)
    emit(
        render_table(
            [row, samaritan],
            title="Engine throughput — full-trace vs trace-free streaming",
            float_digits=2,
        )
    )
    assert row["full_trace_rounds_per_sec"] > 0
    assert row["trace_free_rounds_per_sec"] > 0
    # Tracked in the table only: no wall-clock gate on the second protocol.
    assert samaritan["trace_free_rounds_per_sec"] > 0
    # Trace-free streaming should not be meaningfully slower than full
    # recording.  The bound trades sensitivity for stability: wall-clock
    # ratios on shared CI runners jitter by tens of percent, so this gate only
    # catches gross regressions; the emitted table records the real ratio.
    assert row["speedup"] >= 0.7, row


def test_trace_free_mode_allocates_no_per_round_trace_objects(monkeypatch):
    """Micro-assert: TraceLevel.NONE never touches the trace machinery.

    A trace-free execution must not instantiate a recorder and must never
    append a round record to an :class:`ExecutionTrace` — the whole point of
    the streaming fast path is that no per-round trace objects are retained.
    The FULL-trace control run confirms the instrumentation actually counts.
    """
    from repro.engine import observers as observers_module
    from repro.engine import trace as trace_module

    appends: list[int] = []
    recorders: list[int] = []
    original_append = trace_module.ExecutionTrace.append
    original_init = observers_module.TraceRecorder.__init__

    def counting_append(self, record):
        appends.append(record.global_round)
        return original_append(self, record)

    def counting_init(self, *args, **kwargs):
        recorders.append(1)
        return original_init(self, *args, **kwargs)

    monkeypatch.setattr(trace_module.ExecutionTrace, "append", counting_append)
    monkeypatch.setattr(observers_module.TraceRecorder, "__init__", counting_init)

    config = replace(_fixed_length_config(TraceLevel.NONE), max_rounds=500)
    result = simulate(config)
    assert result.trace is None
    assert recorders == [], "trace-free mode must not build a TraceRecorder"
    assert appends == [], "trace-free mode must not append per-round trace records"

    full = simulate(replace(config, trace_level=TraceLevel.FULL))
    assert len(recorders) == 1
    assert appends == list(range(1, full.rounds_simulated + 1))


def test_parallel_trace_free_batch_matches_serial_full_trace(benchmark, emit):
    """The Theorem-10 configuration, serial+FULL vs workers=4+NONE."""
    config = SimulationConfig(
        params=ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64),
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=8, spacing=3),
        adversary=RandomJammer(),
        max_rounds=100_000,
    )
    seeds = 6

    def run():
        serial_start = time.perf_counter()
        serial = run_trials(config, seeds=seeds)
        serial_elapsed = time.perf_counter() - serial_start
        parallel_start = time.perf_counter()
        parallel = run_trials(
            replace(config), seeds=seeds, trace_level=TraceLevel.NONE, plan=ExecutionPlan(workers=4)
        )
        parallel_elapsed = time.perf_counter() - parallel_start
        return serial, parallel, serial_elapsed, parallel_elapsed

    serial, parallel, serial_elapsed, parallel_elapsed = run_once(benchmark, run)
    emit(
        render_table(
            [
                {
                    "mode": "serial, full trace",
                    "seconds": serial_elapsed,
                    "liveness": serial.liveness_rate,
                    "agreement": serial.agreement_rate,
                    "mean_latency": serial.mean_latency,
                    "p90_latency": serial.percentile_latency(0.9),
                },
                {
                    "mode": "4 workers, no trace",
                    "seconds": parallel_elapsed,
                    "liveness": parallel.liveness_rate,
                    "agreement": parallel.agreement_rate,
                    "mean_latency": parallel.mean_latency,
                    "p90_latency": parallel.percentile_latency(0.9),
                },
            ],
            title="Theorem 10 batch — serial/full-trace vs parallel/trace-free",
            float_digits=3,
        )
    )
    assert parallel.latencies() == serial.latencies()
    assert parallel.liveness_rate == serial.liveness_rate
    assert parallel.agreement_rate == serial.agreement_rate
    assert parallel.percentile_latency(0.9) == serial.percentile_latency(0.9)
    for serial_result, parallel_result in zip(serial.results, parallel.results):
        assert parallel_result.metrics == serial_result.metrics
