"""The single-hop disrupted radio network.

This module implements the communication rule of the paper's model (§2):

* each node tunes to one frequency per round and either broadcasts or listens;
* a listener on frequency ``f`` receives a message iff **exactly one** node
  broadcast on ``f`` and the adversary did not disrupt ``f``;
* broadcasters receive nothing;
* nodes cannot distinguish silence, collision, and disruption.

The network itself is stateless; :class:`SingleHopRadioNetwork.resolve_round`
is a pure function from the round's actions and the adversary's disruption set
to per-node outcomes plus an aggregate :class:`~repro.radio.events.RoundActivity`
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, TypeGuard

from repro.exceptions import ConfigurationError, SimulationError
from repro.radio.actions import RadioAction
from repro.radio.events import FrequencyActivity, ReceptionOutcome, RoundActivity
from repro.radio.frequencies import FrequencyBand
from repro.types import Frequency, Intent, NodeId


@dataclass(frozen=True, slots=True)
class NetworkResolution:
    """The result of resolving one round of radio communication.

    Attributes
    ----------
    outcomes:
        Per-node reception outcomes.
    activity:
        The aggregate spectrum activity record for the round.
    """

    outcomes: Mapping[NodeId, ReceptionOutcome]
    activity: RoundActivity


class SingleHopRadioNetwork:
    """A single-hop radio network with ``F`` frequencies and collisions.

    Parameters
    ----------
    band:
        The frequency band (defines ``F``).
    """

    def __init__(self, band: FrequencyBand) -> None:
        self._band = band
        #: The band as a frozenset, for O(t) validation of disruption sets.
        self._band_set: frozenset[Frequency] = frozenset(band.all_frequencies())
        #: Interned reception outcomes.  An outcome with no message is fully
        #: determined by ``(frequency, broadcast, collision, disrupted)`` —
        #: at most ``8·F`` distinct values — and outcomes are immutable, so
        #: the resolver hands every node a shared instance instead of
        #: allocating one dataclass per node per round.
        self._outcome_cache: dict[
            tuple[Frequency, bool, bool, bool], ReceptionOutcome
        ] = {}

    @property
    def band(self) -> FrequencyBand:
        """The frequency band this network operates on."""
        return self._band

    def _in_band_ints(self, disrupted: Iterable[Frequency]) -> TypeGuard[frozenset[Frequency]]:
        """True if ``disrupted`` is a ``frozenset`` of in-band ``int`` frequencies."""
        return (
            type(disrupted) is frozenset
            and disrupted <= self._band_set
            and all(type(f) is int for f in disrupted)
        )

    def resolve_round(
        self,
        global_round: int,
        actions: Mapping[NodeId, RadioAction],
        disrupted: Iterable[Frequency],
        activations: Iterable[NodeId] = (),
    ) -> NetworkResolution:
        """Resolve one round of communication.

        Parameters
        ----------
        global_round:
            The global round index (only recorded, never interpreted).
        actions:
            The action chosen by every active node this round.
        disrupted:
            The frequencies the adversary disrupts this round.  Frequencies
            outside the band are rejected.
        activations:
            Node ids activated this round (recorded in the activity record).

        Returns
        -------
        NetworkResolution
            Per-node outcomes and the aggregate activity record.
        """
        band = self._band
        # Fast path: the simulator hands us an already-budget-validated
        # frozenset of in-band ints.  Anything else takes the strict path.
        if self._in_band_ints(disrupted):
            disrupted_set = disrupted
        else:
            disrupted_set = frozenset(band.validate(f) for f in disrupted)

        # One pass over the actions: per tuned frequency, the node ids that
        # broadcast and the node ids that listen.
        tuned: dict[Frequency, tuple[list[NodeId], list[NodeId]]] = {}
        band_size = band.size
        broadcast_intent = Intent.BROADCAST
        for node_id, action in actions.items():
            frequency = action.frequency
            if not (type(frequency) is int and 1 <= frequency <= band_size) and (
                frequency not in band
            ):
                raise SimulationError(
                    f"node {node_id} tuned to frequency {frequency} outside band "
                    f"[1..{band_size}]"
                )
            buckets = tuned.get(frequency)
            if buckets is None:
                buckets = tuned[frequency] = ([], [])
            if action.intent is broadcast_intent:
                buckets[0].append(node_id)
            else:
                buckets[1].append(node_id)

        outcomes: dict[NodeId, ReceptionOutcome] = {}
        per_frequency: dict[Frequency, FrequencyActivity] = {}
        outcome_cache = self._outcome_cache
        for frequency in sorted(tuned):
            sent, heard = tuned[frequency]
            is_disrupted = frequency in disrupted_set
            broadcaster_count = len(sent)
            collision = broadcaster_count >= 2
            delivered = broadcaster_count == 1 and not is_disrupted
            if collision:
                sent.sort()
            if len(heard) > 1:
                heard.sort()
            broadcasters = tuple(sent) if sent else ()
            listeners = tuple(heard) if heard else ()
            per_frequency[frequency] = FrequencyActivity(
                frequency, broadcasters, listeners, is_disrupted, delivered
            )

            if broadcasters:
                key = (frequency, True, collision, is_disrupted)
                outcome = outcome_cache.get(key)
                if outcome is None:
                    outcome = outcome_cache[key] = ReceptionOutcome(
                        frequency, True, None, collision, is_disrupted
                    )
                for node_id in broadcasters:
                    outcomes[node_id] = outcome
            if listeners:
                if delivered:
                    outcome = ReceptionOutcome(
                        frequency, False, actions[broadcasters[0]].message, collision, is_disrupted
                    )
                else:
                    key = (frequency, False, collision, is_disrupted)
                    outcome = outcome_cache.get(key)
                    if outcome is None:
                        outcome = outcome_cache[key] = ReceptionOutcome(
                            frequency, False, None, collision, is_disrupted
                        )
                for node_id in listeners:
                    outcomes[node_id] = outcome

        activity = RoundActivity(
            global_round,
            per_frequency,
            disrupted_set,
            tuple(sorted(activations)) if activations else (),
        )
        return NetworkResolution(outcomes, activity)

    def validate_disruption_budget(self, disrupted: Iterable[Frequency], budget: int) -> frozenset[Frequency]:
        """Check that a disruption set respects the adversary budget ``t``.

        Returns the validated set.  Raises :class:`ConfigurationError` if the
        set exceeds the budget or contains out-of-band frequencies.
        """
        # Fast path: a frozenset of in-band ints within budget is returned as
        # is (exactly what ``frozenset(disrupted)`` returns for a frozenset).
        if self._in_band_ints(disrupted) and len(disrupted) <= budget:
            return disrupted
        disrupted_set = frozenset(disrupted)
        for frequency in disrupted_set:
            self._band.validate(frequency)
        if len(disrupted_set) > budget:
            raise ConfigurationError(
                f"adversary disrupted {len(disrupted_set)} frequencies, budget is {budget}"
            )
        return disrupted_set
