"""The round-driven simulator.

The simulator realizes the model of §2 as a synchronous loop.  In every
global round it:

1. activates the nodes the activation schedule designates for the round;
2. asks every active node's protocol for its radio action;
3. asks the interference adversary for its disruption set (the adversary sees
   the execution only through the *previous* round);
4. resolves the round on the :class:`~repro.radio.network.SingleHopRadioNetwork`
   (collision rule + disruption);
5. delivers each node's reception outcome and streams the resolved round to
   the observer pipeline (trace recorder, property checker, metrics
   collector, spectrum log, plus any caller-supplied observers).

Properties and metrics are computed *incrementally* as the execution streams
by, so a run with :attr:`~repro.engine.observers.TraceLevel.NONE` buffers no
per-round history at all and still produces the same report and metrics as a
full-trace run.

The loop ends when every node that will ever be activated has synchronized
(plus an optional grace period), or when ``max_rounds`` is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.adversary.activation import ActivationSchedule
from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.adversary.jammers import NoInterference
from repro.engine.checker import StreamingPropertyChecker
from repro.engine.metrics import MetricsObserver
from repro.engine.node import NodeRuntime
from repro.engine.observers import RoundObserver, TraceLevel, TraceRecorder
from repro.engine.results import SimulationResult
from repro.engine.rng import RandomStreams
from repro.engine.trace import RoundRecord
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.stabilization import StabilizationTracker
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext, ProtocolFactory, SynchronizationProtocol
from repro.radio.actions import RadioAction
from repro.radio.network import SingleHopRadioNetwork
from repro.radio.spectrum_log import SpectrumLog
from repro.types import NodeId, Role, SyncOutput


@dataclass
class SimulationConfig:
    """Everything needed to run one execution.

    Attributes
    ----------
    params:
        The model parameters ``(F, t, N)``.
    protocol_factory:
        Builds one protocol instance per activated node.
    activation:
        When each node wakes up.
    adversary:
        The interference adversary (default: no interference).
    max_rounds:
        Hard cap on the number of simulated rounds.
    seed:
        Master seed; all randomness in the execution derives from it.
    stop_when_synchronized:
        Stop as soon as every activated node has synchronized and no further
        activations are pending (default) — otherwise run to ``max_rounds``.
    extra_rounds_after_sync:
        Grace period simulated after global synchronization, useful when a
        test wants to observe post-synchronization behaviour (e.g. that the
        round numbers keep incrementing).
    enforce_budget:
        Check every round that the adversary respects its budget ``t``.
    trace_level:
        How much per-round history to retain (default:
        :attr:`~repro.engine.observers.TraceLevel.FULL`, the seed behaviour).
        With ``NONE``, :attr:`SimulationResult.trace` is ``None``; the
        property report and the metrics are unaffected.
    trace_sample_interval:
        With :attr:`~repro.engine.observers.TraceLevel.SAMPLED`, keep one
        round record in every ``trace_sample_interval``.
    spectrum_window:
        Optional bound on the spectrum log's retained history (the aggregate
        occupancy counters adversaries use still cover the full execution).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into the
        round loop (churn, Byzantine nodes, transient corruption).  An empty
        plan is normalized to ``None``, so fault-free executions — and their
        golden digests — are bit-identical whether the field was omitted or
        set to an empty plan.
    """

    params: ModelParameters
    protocol_factory: ProtocolFactory
    activation: ActivationSchedule
    adversary: InterferenceAdversary = field(default_factory=NoInterference)
    max_rounds: int = 20_000
    seed: int = 0
    stop_when_synchronized: bool = True
    extra_rounds_after_sync: int = 0
    enforce_budget: bool = True
    trace_level: TraceLevel = TraceLevel.FULL
    trace_sample_interval: int = 100
    spectrum_window: Optional[int] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.faults is not None and self.faults.empty:
            self.faults = None
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.extra_rounds_after_sync < 0:
            raise ConfigurationError(
                f"extra_rounds_after_sync must be non-negative, got {self.extra_rounds_after_sync}"
            )
        if self.trace_sample_interval < 1:
            raise ConfigurationError(
                f"trace_sample_interval must be positive, got {self.trace_sample_interval}"
            )
        if self.spectrum_window is not None and self.spectrum_window < 1:
            raise ConfigurationError(
                f"spectrum_window must be positive, got {self.spectrum_window}"
            )
        if self.activation.node_count > self.params.participant_bound:
            raise ConfigurationError(
                f"activation schedule wakes up {self.activation.node_count} nodes, "
                f"but the participant bound is N={self.params.participant_bound}"
            )


class Simulator:
    """Drives one execution of a protocol against an adversary.

    Parameters
    ----------
    config:
        The simulation configuration.
    observers:
        Additional streaming :class:`~repro.engine.observers.RoundObserver`
        instances notified after the built-in pipeline (spectrum log, trace
        recorder, checker, metrics).
    """

    def __init__(
        self,
        config: SimulationConfig,
        observers: Sequence[RoundObserver] = (),
    ) -> None:
        self._config = config
        self._streams = RandomStreams(config.seed)
        self._network = SingleHopRadioNetwork(config.params.band)
        # Factories with per-execution state (e.g. crash injection counting
        # activations) expose fresh(); take a reset copy so reusing one config
        # across seeds — serially or in workers — cannot leak state between runs.
        factory = config.protocol_factory
        fresh = getattr(factory, "fresh", None)
        self._protocol_factory: ProtocolFactory = fresh() if callable(fresh) else factory
        self._spectrum = SpectrumLog(window=config.spectrum_window)
        self._extra_observers = tuple(observers)
        # Nodes never deactivate, so this insertion-ordered mapping *is* the
        # active set: `_activate` appends and the round loop iterates it
        # directly instead of rebuilding a filtered copy every round.
        self._nodes: dict[NodeId, NodeRuntime] = {}
        # Per-node hot-path dispatch: (node_id, runtime, protocol, context)
        # rows appended at activation, so the round loop drives each protocol
        # directly instead of going through the runtime's guarded wrappers.
        self._active_rows: list[
            tuple[NodeId, NodeRuntime, SynchronizationProtocol, ProtocolContext]
        ] = []
        self._synced_nodes: set[NodeId] = set()
        self._leader_uids: set[int] = set()
        self._pending_activations = config.activation.node_count

    @property
    def config(self) -> SimulationConfig:
        """The configuration this simulator was built with."""
        return self._config

    def run(self) -> SimulationResult:
        """Run the execution to completion and return its result."""
        config = self._config
        activation_rng = self._streams.activation_stream()
        adversary_rng = self._streams.adversary_stream()

        recorder: TraceRecorder | None = None
        if config.trace_level is not TraceLevel.NONE:
            recorder = TraceRecorder(
                level=config.trace_level, sample_interval=config.trace_sample_interval
            )
        injector: FaultInjector | None = None
        if config.faults is not None:
            injector = FaultInjector(
                config.faults, self._streams, config.activation.node_count, config.params
            )
        checker = StreamingPropertyChecker(
            exclude=injector.byzantine_nodes if injector is not None else frozenset()
        )
        metrics = MetricsObserver()
        observers: tuple[RoundObserver, ...] = tuple(
            observer
            for observer in (self._spectrum, recorder, checker, metrics)
            if observer is not None
        ) + self._extra_observers

        for observer in observers:
            observer.on_simulation_start(config.params, config.seed)

        # Hot-path dispatch: the observer pipeline is fixed for the whole
        # execution, so bind every `on_round` once and notify through the
        # resulting tuple — one fast batched call site per round instead of a
        # per-observer attribute lookup.  With TraceLevel.NONE the tuple holds
        # no recorder at all: streaming observers only, nothing buffered.
        notify_round = tuple(observer.on_round for observer in observers)
        if injector is not None:
            # Fault-injected executions run a separate loop so the fault-free
            # hot path below stays exactly as the perf baseline pinned it (no
            # per-node membership checks added to every round).
            return self._run_with_faults(
                injector,
                checker,
                metrics,
                recorder,
                observers,
                notify_round,
                activation_rng,
                adversary_rng,
            )
        rows = self._active_rows
        nodes = self._nodes
        activations_for_round = config.activation.activations_for_round
        resolve_round = self._network.resolve_round
        choose_disruption = config.adversary.choose_disruption
        validate_budget = (
            self._network.validate_disruption_budget if config.enforce_budget else None
        )
        params = config.params
        band, budget, spectrum = params.band, params.disruption_budget, self._spectrum
        stop_when_synchronized = config.stop_when_synchronized
        last_activation_round = config.activation.last_activation_round()
        synced_nodes = self._synced_nodes
        leader_uids = self._leader_uids
        leader_role = Role.LEADER

        rounds_simulated = 0
        grace_remaining: int | None = None
        for global_round in range(1, config.max_rounds + 1):
            activations = activations_for_round(global_round, activation_rng)
            if activations:
                self._activate(activations, global_round, observers)

            # The two per-node passes below inline NodeRuntime.begin_round /
            # choose_action / deliver / record_output: same state transitions,
            # one call per protocol hook instead of one per guarded wrapper.
            actions: dict[NodeId, RadioAction] = {}
            for node_id, node, protocol, context in rows:
                if node.outputs_recorded:
                    context.local_round += 1
                actions[node_id] = protocol.choose_action()

            disrupted = choose_disruption(
                AdversaryContext(global_round, band, budget, spectrum, adversary_rng, len(rows))
            )
            if validate_budget is not None:
                disrupted = validate_budget(disrupted, budget)
            resolution = resolve_round(global_round, actions, disrupted, activations)

            outputs: dict[NodeId, SyncOutput] = {}
            roles: dict[NodeId, Role] = {}
            outcomes = resolution.outcomes
            for node_id, node, protocol, context in rows:
                try:
                    outcome = outcomes[node_id]
                except KeyError:
                    raise SimulationError(
                        f"node {node_id} acted in round {global_round} but got no outcome"
                    ) from None
                protocol.on_reception(outcome)
                output = protocol.current_output()
                if output is not None and node.first_sync_local_round is None:
                    node.first_sync_local_round = context.local_round
                    synced_nodes.add(node_id)
                node.outputs_recorded += 1
                outputs[node_id] = output
                role = protocol.role
                roles[node_id] = role
                if role is leader_role:
                    leader_uids.add(context.uid)

            record = RoundRecord(global_round, outputs, roles, resolution.activity)
            for notify in notify_round:
                notify(record)
            rounds_simulated = global_round

            # Stop once every node that will ever wake has synchronized.  The
            # synced-node set only grows (outputs latch), so its size against
            # the node count replaces a per-round scan over every runtime.
            if (
                stop_when_synchronized
                and len(synced_nodes) == len(nodes)
                and nodes
                and self._pending_activations == 0
                and global_round >= last_activation_round
            ):
                if grace_remaining is None:
                    grace_remaining = config.extra_rounds_after_sync
                if grace_remaining <= 0:
                    break
                grace_remaining -= 1
            else:
                grace_remaining = None

        for observer in observers:
            observer.on_simulation_end(rounds_simulated)

        return SimulationResult(
            trace=recorder.trace if recorder is not None else None,
            report=checker.report(),
            metrics=metrics.result(leader_uids=frozenset(self._leader_uids)),
        )

    def _run_with_faults(
        self,
        injector: FaultInjector,
        checker: StreamingPropertyChecker,
        metrics: MetricsObserver,
        recorder: TraceRecorder | None,
        observers: tuple[RoundObserver, ...],
        notify_round: tuple,
        activation_rng,
        adversary_rng,
    ) -> SimulationResult:
        """The fault-injected twin of the :meth:`run` round loop.

        Same per-node state transitions, plus: scheduled faults applied at
        each round start, Byzantine nodes' actions replaced by forged
        broadcasts (their protocol instances are bypassed entirely once they
        turn — no reception, ⊥ output, CONTENDER role), and a per-round
        convergence observation fed to the stabilization tracker.  The run
        stops once every activation *and* every scheduled fault has happened
        and the present honest nodes have reconverged.
        """
        config = self._config
        rows = self._active_rows
        activations_for_round = config.activation.activations_for_round
        resolve_round = self._network.resolve_round
        choose_disruption = config.adversary.choose_disruption
        validate_budget = (
            self._network.validate_disruption_budget if config.enforce_budget else None
        )
        params = config.params
        band, budget, spectrum = params.band, params.disruption_budget, self._spectrum
        stop_when_synchronized = config.stop_when_synchronized
        last_activation_round = config.activation.last_activation_round()
        last_fault_round = injector.last_fault_round
        synced_nodes = self._synced_nodes
        leader_uids = self._leader_uids
        leader_role = Role.LEADER
        contender_role = Role.CONTENDER
        byzantine = injector.byzantine_nodes
        tracker = StabilizationTracker()
        departed: dict[NodeId, NodeRuntime] = {}

        rounds_simulated = 0
        grace_remaining: int | None = None
        for global_round in range(1, config.max_rounds + 1):
            activations = activations_for_round(global_round, activation_rng)
            if activations:
                self._activate(activations, global_round, observers)

            injected = self._apply_faults(global_round, injector, checker, departed)
            if injector.byzantine_starts_at(global_round):
                injected = True
            if injected:
                tracker.record_epoch(global_round)

            forging = injector.byzantine_active(global_round)
            actions: dict[NodeId, RadioAction] = {}
            for node_id, node, protocol, context in rows:
                if forging and node_id in byzantine:
                    actions[node_id] = injector.byzantine_action(node_id)
                    continue
                if node.outputs_recorded:
                    context.local_round += 1
                actions[node_id] = protocol.choose_action()

            disrupted = choose_disruption(
                AdversaryContext(global_round, band, budget, spectrum, adversary_rng, len(rows))
            )
            if validate_budget is not None:
                disrupted = validate_budget(disrupted, budget)
            resolution = resolve_round(global_round, actions, disrupted, activations)

            outputs: dict[NodeId, SyncOutput] = {}
            roles: dict[NodeId, Role] = {}
            outcomes = resolution.outcomes
            distinct: set[int] = set()
            honest_present = 0
            unsynchronized = 0
            for node_id, node, protocol, context in rows:
                if forging and node_id in byzantine:
                    outputs[node_id] = None
                    roles[node_id] = contender_role
                    continue
                try:
                    outcome = outcomes[node_id]
                except KeyError:
                    raise SimulationError(
                        f"node {node_id} acted in round {global_round} but got no outcome"
                    ) from None
                protocol.on_reception(outcome)
                output = protocol.current_output()
                if output is not None and node.first_sync_local_round is None:
                    node.first_sync_local_round = context.local_round
                    synced_nodes.add(node_id)
                node.outputs_recorded += 1
                outputs[node_id] = output
                role = protocol.role
                roles[node_id] = role
                if role is leader_role:
                    leader_uids.add(context.uid)
                honest_present += 1
                if output is None:
                    unsynchronized += 1
                else:
                    distinct.add(output)
            converged = honest_present > 0 and unsynchronized == 0 and len(distinct) <= 1
            tracker.observe_round(global_round, converged)

            record = RoundRecord(global_round, outputs, roles, resolution.activity)
            for notify in notify_round:
                notify(record)
            rounds_simulated = global_round

            # Stop once activations and scheduled faults are exhausted and the
            # present honest nodes have reconverged.
            if (
                stop_when_synchronized
                and converged
                and self._pending_activations == 0
                and global_round >= last_activation_round
                and global_round >= last_fault_round
            ):
                if grace_remaining is None:
                    grace_remaining = config.extra_rounds_after_sync
                if grace_remaining <= 0:
                    break
                grace_remaining -= 1
            else:
                grace_remaining = None

        for observer in observers:
            observer.on_simulation_end(rounds_simulated)

        return SimulationResult(
            trace=recorder.trace if recorder is not None else None,
            report=checker.report(),
            metrics=metrics.result(leader_uids=frozenset(self._leader_uids)),
            stabilization=tracker.finalize(rounds_simulated),
        )

    # -- internals --------------------------------------------------------

    def _apply_faults(
        self,
        global_round: int,
        injector: FaultInjector,
        checker: StreamingPropertyChecker,
        departed: dict[NodeId, NodeRuntime],
    ) -> bool:
        """Apply the round's scheduled churn/corruption; True if anything fired.

        Events naming nodes that are not currently present (not yet
        activated, already departed, or — for corruption — Byzantine) are
        skipped, so one plan sweeps cleanly across node-count axes.
        """
        injected = False
        rows = self._active_rows
        for node_id in injector.leaves_at(global_round):
            for index, row in enumerate(rows):
                if row[0] == node_id:
                    departed[node_id] = row[1]
                    del rows[index]
                    injected = True
                    break
        for node_id in injector.rejoins_at(global_round):
            runtime = departed.pop(node_id, None)
            if runtime is None:
                continue
            runtime.reincarnate(
                injector.rejoin_stream(node_id, global_round), self._protocol_factory
            )
            rows.append((node_id, runtime, runtime.protocol, runtime.context))
            checker.reset_node(node_id)
            injected = True
        byzantine = injector.byzantine_nodes
        for node_id in injector.corruptions_at(global_round):
            if node_id in byzantine:
                continue
            for index, row in enumerate(rows):
                if row[0] == node_id:
                    runtime = row[1]
                    runtime.reincarnate(
                        injector.corruption_stream(node_id, global_round),
                        self._protocol_factory,
                    )
                    rows[index] = (node_id, runtime, runtime.protocol, runtime.context)
                    checker.reset_node(node_id)
                    injected = True
                    break
        return injected

    def _activate(
        self,
        activations: tuple[NodeId, ...],
        global_round: int,
        observers: tuple[RoundObserver, ...],
    ) -> None:
        for node_id in activations:
            if node_id in self._nodes:
                raise SimulationError(f"activation schedule activated node {node_id} twice")
            runtime = NodeRuntime(
                node_id=node_id,
                params=self._config.params,
                rng=self._streams.node_stream(node_id),
            )
            runtime.activate(global_round, self._protocol_factory)
            self._nodes[node_id] = runtime
            self._active_rows.append((node_id, runtime, runtime.protocol, runtime.context))
            for observer in observers:
                observer.on_activation(node_id, global_round)
            self._pending_activations -= 1


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run one execution for ``config`` and return its result."""
    return Simulator(config).run()
