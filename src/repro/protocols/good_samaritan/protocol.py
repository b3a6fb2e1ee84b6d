"""The Good Samaritan Protocol (§7).

The protocol has an *optimistic* portion — ``lg F`` super-epochs that finish
quickly when all nodes woke up together and the actual disruption ``t'`` is
small — and a *fallback* portion, a modified Trapdoor protocol with long
epochs, that guarantees termination in every execution.

Roles and transitions
---------------------
* A node starts as a **contender**.  A contender that receives a message from
  another contender is *downgraded* to a **good samaritan** (timestamps are
  ignored in the optimistic portion).
* A **samaritan** that receives a message from another samaritan is knocked
  out and becomes **passive**.
* Samaritans record which contenders reach them during the *critical epoch*
  (epoch ``lg N + 1`` of each super-epoch) in rounds that are not special for
  either party and where both nodes were activated in the same round; they
  embed those counts in their own broadcasts.
* A contender that learns it achieved the success threshold becomes
  **leader**, declares the round numbering, and broadcasts it every round with
  probability 1/2 on the special-round frequency distribution.
* A node that exits the last super-epoch unsynchronized enters the fallback:
  each round it flips a coin and either plays a round of the modified Trapdoor
  protocol (timestamps knock contenders out again) or a special Good Samaritan
  round.  A fallback contender that survives all fallback epochs becomes
  leader.
* Any node that receives a :class:`~repro.radio.messages.LeaderMessage`
  immediately adopts the numbering.
"""

from __future__ import annotations

from repro.engine.rng import randint_upto
from repro.protocols.base import (
    BoundProtocolFactory,
    ProtocolContext,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
)
from repro.protocols.good_samaritan.config import GoodSamaritanConfig
from repro.protocols.good_samaritan.reports import SuccessLedger
from repro.protocols.good_samaritan.schedule import EpochWindow, GoodSamaritanSchedule
from repro.protocols.timestamps import Timestamp
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.events import ReceptionOutcome
from repro.radio.messages import ContenderMessage, LeaderMessage, SamaritanMessage
from repro.types import Frequency, Role

# Module-level aliases: a global load is several times cheaper than an
# attribute lookup through the Enum metaclass on the per-round path.
_CONTENDER = Role.CONTENDER
_SAMARITAN = Role.SAMARITAN
_PASSIVE = Role.PASSIVE
_LEADER = Role.LEADER
_SYNCHRONIZED = Role.SYNCHRONIZED


class GoodSamaritanProtocol(SynchronizedOutputMixin, SynchronizationProtocol):
    """Per-node state machine of the Good Samaritan Protocol.

    The five states are exactly the five :class:`~repro.types.Role` values
    the protocol reports, so the state *is* the role.

    Parameters
    ----------
    context:
        The node's protocol context (provided by the engine).
    config:
        Protocol constants; defaults to the paper's structure.
    """

    def __init__(self, context: ProtocolContext, config: GoodSamaritanConfig | None = None) -> None:
        super().__init__(context)
        self.config = config or GoodSamaritanConfig()
        self.schedule = GoodSamaritanSchedule(context.params, self.config)
        self._state = _CONTENDER
        self._ledger = SuccessLedger()
        self._this_round_special = False
        self._leader_via_fallback = False
        self._downgrade_round: int | None = None
        self._window: EpochWindow = self.schedule.window_of_round(1)
        params = context.params
        self._frequencies = params.frequencies
        self._log_frequencies = params.log_frequencies
        #: The special-round widths ``min(2^d, F)`` for ``d = 1 .. lg F``.
        self._special_widths = tuple(
            min(2**d, params.frequencies) for d in range(1, params.log_frequencies + 1)
        )

    # -- factory -----------------------------------------------------------

    @classmethod
    def factory(cls, config: GoodSamaritanConfig | None = None):
        """A :data:`~repro.protocols.base.ProtocolFactory` building this protocol."""

        return BoundProtocolFactory(cls, (config,))

    # -- protocol interface --------------------------------------------------

    @property
    def role(self) -> Role:
        return self._state

    def choose_action(self) -> RadioAction:
        self._this_round_special = False
        state = self._state
        if state is _LEADER:
            return self._leader_action()
        if state is _PASSIVE or state is _SYNCHRONIZED:
            return listen(self._monitoring_frequency())

        window = self._current_window()
        if window.fallback:
            return self._fallback_action(window)
        return self._optimistic_action(window)

    def on_reception(self, outcome: ReceptionOutcome) -> None:
        message = outcome.message
        if message is None:
            return
        if isinstance(message, LeaderMessage):
            self._adopt_from_leader(message)
            return
        if self._state is _CONTENDER:
            self._contender_reception(message)
        elif self._state is _SAMARITAN:
            self._samaritan_reception(message)

    # -- introspection (tests, metrics) ---------------------------------------

    @property
    def state_name(self) -> str:
        """The internal state name."""
        return self._state.value

    @property
    def became_leader_via_fallback(self) -> bool:
        """True if the node won through the modified Trapdoor fallback."""
        return self._leader_via_fallback

    @property
    def downgrade_round(self) -> int | None:
        """The local round this node was downgraded to samaritan, if it was."""
        return self._downgrade_round

    @property
    def success_ledger(self) -> SuccessLedger:
        """The samaritan-side success ledger (exposed for tests)."""
        return self._ledger

    @property
    def in_fallback(self) -> bool:
        """True once this node's local round lies in the fallback portion."""
        return self.schedule.in_fallback(self.context.local_round)

    def _current_window(self) -> EpochWindow:
        """The schedule epoch of the current local round, looked up once per epoch."""
        local_round = self.context.local_round
        window = self._window
        if not window.first_round <= local_round <= window.last_round:
            window = self._window = self.schedule.window_of_round(local_round)
        return window

    # -- optimistic portion -----------------------------------------------------

    def _optimistic_action(self, window: EpochWindow) -> RadioAction:
        rng = self.context.rng

        if window.regular:
            # Regular epochs: half the time the super-epoch prefix, half the
            # time the whole band; broadcast with the epoch's probability.
            if rng.random() < self.config.local_band_probability:
                frequency = randint_upto(rng, window.prefix_width)
            else:
                frequency = randint_upto(rng, self._frequencies)
            if rng.random() < window.broadcast_probability:
                return broadcast(frequency, self._identity_message(window, special=False))
            return listen(frequency)

        # Critical and report epochs: half the rounds are special.
        if rng.random() < self.config.special_round_probability:
            self._this_round_special = True
            frequency = self._special_frequency()
            if rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(window, special=True))
            return listen(frequency)

        frequency = randint_upto(rng, window.prefix_width)
        if rng.random() < window.broadcast_probability:
            return broadcast(frequency, self._identity_message(window, special=False))
        return listen(frequency)

    def _contender_reception(self, message) -> None:
        if isinstance(message, ContenderMessage):
            # Optimistic portion: any contender message downgrades, timestamps
            # ignored.  Fallback portion: timestamps decide (modified Trapdoor).
            if self.in_fallback:
                if message.timestamp > self._my_timestamp():
                    self._state = _PASSIVE
            else:
                self._state = _SAMARITAN
                self._downgrade_round = self.context.local_round
            return
        if isinstance(message, SamaritanMessage):
            self._maybe_become_leader(message)

    def _samaritan_reception(self, message) -> None:
        if isinstance(message, SamaritanMessage):
            # A samaritan hearing another samaritan is knocked out.
            self._state = _PASSIVE
            return
        if isinstance(message, ContenderMessage):
            self._maybe_record_success(message)

    def _maybe_record_success(self, message: ContenderMessage) -> None:
        window = self._current_window()
        if window.fallback or window.epoch != self.schedule.critical_epoch:
            return
        if message.special or self._this_round_special:
            return
        if message.timestamp.rounds_active != self.context.local_round:
            # The contender was not activated in the same round as this samaritan.
            return
        self._ledger.ensure_epoch(window.super_epoch, window.epoch)
        self._ledger.record(message.timestamp.uid)

    def _maybe_become_leader(self, message: SamaritanMessage) -> None:
        count = message.reports.get(self.context.uid, 0)
        if count <= 0:
            return
        window = self._current_window()
        if window.fallback:
            return
        if count >= self.schedule.success_threshold(window.super_epoch):
            self._become_leader(via_fallback=False)

    # -- fallback portion ----------------------------------------------------------

    def _fallback_action(self, window: EpochWindow) -> RadioAction:
        rng = self.context.rng
        # Only contenders and samaritans reach the fallback action.
        contender = self._state is _CONTENDER

        if contender and window.completed:
            self._become_leader(via_fallback=True)
            return self._leader_action()

        if rng.random() < 0.5:
            # A special Good Samaritan round.
            self._this_round_special = True
            frequency = self._special_frequency()
            if rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(window, special=True))
            return listen(frequency)

        # A modified Trapdoor round: uniform frequency over the whole band,
        # broadcast with the fallback epoch's probability (contenders only).
        frequency = randint_upto(rng, self._frequencies)
        if contender and rng.random() < window.broadcast_probability:
            return broadcast(frequency, self._identity_message(window, special=False))
        return listen(frequency)

    # -- leader / synchronized ---------------------------------------------------

    def _leader_action(self) -> RadioAction:
        rng = self.context.rng
        frequency = self._special_frequency()
        if rng.random() < self.config.leader_broadcast_probability:
            output = self.current_output()
            assert output is not None
            return broadcast(frequency, LeaderMessage(leader_uid=self.context.uid, round_number=output))
        return listen(frequency)

    def _monitoring_frequency(self) -> Frequency:
        """Where passive / synchronized nodes listen for leader messages."""
        rng = self.context.rng
        if rng.random() < 0.5:
            return self._special_frequency()
        return randint_upto(rng, self._frequencies)

    def _become_leader(self, via_fallback: bool) -> None:
        self._state = _LEADER
        self._leader_via_fallback = via_fallback
        self.adopt_round_number(self.context.local_round)

    def _adopt_from_leader(self, message: LeaderMessage) -> None:
        if self._state is _LEADER:
            return
        self._state = _SYNCHRONIZED
        self.adopt_round_number(message.round_number)

    # -- helpers --------------------------------------------------------------------

    def _my_timestamp(self) -> Timestamp:
        return Timestamp(rounds_active=self.context.local_round, uid=self.context.uid)

    def _identity_message(self, window: EpochWindow, special: bool):
        if self._state is _SAMARITAN:
            return SamaritanMessage(
                timestamp=self._my_timestamp(),
                reports=self._ledger.report(),
                special=special,
            )
        epoch = 0 if window.fallback else window.epoch
        return ContenderMessage(timestamp=self._my_timestamp(), special=special, epoch=epoch)

    def _special_frequency(self) -> Frequency:
        """Draw a frequency from the special-round distribution.

        Choose ``d`` uniformly from ``[1 .. lg F]`` and then a frequency
        uniformly from ``[1 .. 2^d]`` (clamped to the band).
        """
        rng = self.context.rng
        width = self._special_widths[randint_upto(rng, self._log_frequencies) - 1]
        return randint_upto(rng, width)
