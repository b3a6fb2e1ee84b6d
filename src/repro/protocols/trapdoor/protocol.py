"""The Trapdoor Protocol (§6).

Every node starts as a *contender* and proceeds through the ``lg N`` epochs of
the :class:`~repro.protocols.trapdoor.epochs.TrapdoorSchedule`.  In each round
a contender picks a uniformly random frequency in ``[1 .. F′]`` and broadcasts
a :class:`~repro.radio.messages.ContenderMessage` carrying its
``(rounds_active, uid)`` timestamp with the epoch's probability, otherwise it
listens.  A contender that hears a contender with a **larger** timestamp falls
through the trapdoor: it is *knocked out* and from then on only listens on a
random frequency in ``[1 .. F′]``.  A contender that survives all epochs
becomes the *leader*, declares the round numbering, and thereafter broadcasts
:class:`~repro.radio.messages.LeaderMessage`s with probability 1/2 on a random
frequency in ``[1 .. F′]``.  Any node that hears a leader message adopts the
numbering immediately.
"""

from __future__ import annotations

from repro.engine.rng import randint_upto
from repro.protocols.base import (
    BoundProtocolFactory,
    ProtocolContext,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
)
from repro.protocols.timestamps import Timestamp
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import EpochSpec, TrapdoorSchedule
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.events import ReceptionOutcome
from repro.radio.messages import ContenderMessage, LeaderMessage
from repro.types import Role

# Module-level aliases: a global load is several times cheaper than an
# attribute lookup through the Enum metaclass on the per-round path.
_CONTENDER = Role.CONTENDER
_KNOCKED_OUT = Role.KNOCKED_OUT
_LEADER = Role.LEADER
_SYNCHRONIZED = Role.SYNCHRONIZED


class TrapdoorProtocol(SynchronizedOutputMixin, SynchronizationProtocol):
    """Per-node state machine of the Trapdoor Protocol.

    The four states are exactly the four :class:`~repro.types.Role` values
    the protocol reports, so the state *is* the role.

    Parameters
    ----------
    context:
        The node's protocol context (provided by the engine).
    config:
        Protocol constants; defaults to the paper's structure.
    """

    def __init__(self, context: ProtocolContext, config: TrapdoorConfig | None = None) -> None:
        super().__init__(context)
        self.config = config or TrapdoorConfig()
        self.schedule = TrapdoorSchedule(context.params, self.config)
        self._state = _CONTENDER
        self._band_width = self.schedule.effective_frequencies
        self._knocked_out_by: Timestamp | None = None
        # The contender's current epoch and the local rounds it spans, looked
        # up again only when the local round leaves that span.
        self._epoch: EpochSpec = self.schedule.epochs[0]
        self._epoch_rounds = self.schedule.epoch_rounds(self._epoch)

    # -- factory -----------------------------------------------------------

    @classmethod
    def factory(cls, config: TrapdoorConfig | None = None):
        """A :data:`~repro.protocols.base.ProtocolFactory` building this protocol."""

        return BoundProtocolFactory(cls, (config,))

    # -- protocol interface -------------------------------------------------

    @property
    def role(self) -> Role:
        return self._state

    def choose_action(self) -> RadioAction:
        rng = self.context.rng
        local_round = self.context.local_round
        state = self._state

        if state is _CONTENDER and self.schedule.completed(local_round):
            self._become_leader()
            state = _LEADER

        frequency = randint_upto(rng, self._band_width)

        if state is _CONTENDER:
            epoch = self._epoch
            if local_round not in self._epoch_rounds:
                epoch = self._enter_epoch(local_round)
            if rng.random() < epoch.broadcast_probability:
                message = ContenderMessage(timestamp=self._my_timestamp(), epoch=epoch.index)
                return broadcast(frequency, message)
            return listen(frequency)

        if state is _LEADER:
            if rng.random() < self.config.leader_broadcast_probability:
                return broadcast(frequency, self._leader_message())
            return listen(frequency)

        if state is _SYNCHRONIZED and self.config.synchronized_nodes_assist:
            output = self.current_output()
            if output is not None and rng.random() < 0.5:
                return broadcast(frequency, LeaderMessage(leader_uid=self.context.uid, round_number=output))
            return listen(frequency)

        # Knocked out (or synchronized without the assist extension): listen.
        return listen(frequency)

    def on_reception(self, outcome: ReceptionOutcome) -> None:
        message = outcome.message
        if message is None:
            return
        if isinstance(message, LeaderMessage):
            self._adopt_from_leader(message)
            return
        if isinstance(message, ContenderMessage) and self._state is _CONTENDER:
            if message.timestamp > self._my_timestamp():
                self._state = _KNOCKED_OUT
                self._knocked_out_by = message.timestamp

    # -- introspection (used by tests and metrics) ---------------------------

    @property
    def state_name(self) -> str:
        """The internal state name (contender / knocked_out / leader / synchronized)."""
        return self._state.value

    @property
    def knocked_out_by(self) -> Timestamp | None:
        """The timestamp that knocked this node out, if any."""
        return self._knocked_out_by

    # -- internals ------------------------------------------------------------

    def _enter_epoch(self, local_round: int) -> EpochSpec:
        """Look up the epoch of a contender's ``local_round`` (within the schedule)."""
        epoch = self.schedule.epoch_of_round(local_round)
        assert epoch is not None  # contenders past the schedule become leader first
        self._epoch = epoch
        self._epoch_rounds = self.schedule.epoch_rounds(epoch)
        return epoch

    def _my_timestamp(self) -> Timestamp:
        return Timestamp(rounds_active=self.context.local_round, uid=self.context.uid)

    def _become_leader(self) -> None:
        self._state = _LEADER
        # The leader numbers rounds by its own activation age.
        self.adopt_round_number(self.context.local_round)

    def _leader_message(self) -> LeaderMessage:
        output = self.current_output()
        assert output is not None  # leaders always have a committed number
        return LeaderMessage(leader_uid=self.context.uid, round_number=output)

    def _adopt_from_leader(self, message: LeaderMessage) -> None:
        if self._state is _LEADER:
            # A second leader hearing the first adopts nothing; uniqueness is
            # guaranteed w.h.p. by the analysis, and the checker will flag
            # disagreement if it ever happens with unlucky constants.
            return
        if self._state is not _SYNCHRONIZED:
            self._state = _SYNCHRONIZED
        self.adopt_round_number(message.round_number)
