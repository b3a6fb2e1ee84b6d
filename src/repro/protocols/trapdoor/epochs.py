"""The Trapdoor Protocol epoch schedule (Figure 1 of the paper).

A contender proceeds through ``lg N`` epochs.  The first ``lg N − 1`` epochs
have length ``Θ(F′/(F′−t) · lg N)``; the final epoch has length
``Θ(F′²/(F′−t) · lg N)``.  The broadcast probability in epoch ``e`` is
``2^e / (2N)`` — i.e. ``1/N, 2/N, …, 1/4, 1/2``.

:class:`TrapdoorSchedule` materializes that structure for concrete parameters
and answers the two questions the protocol asks every round: *which epoch am I
in?* and *what is my broadcast probability?*  The ``fig1`` benchmark renders
the schedule as the paper's Figure 1 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.trapdoor.config import TrapdoorConfig


@dataclass(frozen=True)
class EpochSpec:
    """One epoch of the Trapdoor schedule.

    Attributes
    ----------
    index:
        1-based epoch number.
    length:
        Number of rounds in the epoch.
    broadcast_probability:
        Probability with which a contender broadcasts in each round of the epoch.
    is_final:
        Whether this is the (extended) final epoch.
    """

    index: int
    length: int
    broadcast_probability: float
    is_final: bool


class TrapdoorSchedule:
    """The concrete epoch schedule for given model parameters.

    Parameters
    ----------
    params:
        Model parameters ``(F, t, N)``.
    config:
        Trapdoor constants.
    """

    def __init__(self, params: ModelParameters, config: TrapdoorConfig | None = None) -> None:
        self._params = params
        self._config = config or TrapdoorConfig()
        self._epochs = self._build()
        self._total_rounds = sum(epoch.length for epoch in self._epochs)

    def _build(self) -> tuple[EpochSpec, ...]:
        params, config = self._params, self._config
        f_prime = config.effective_frequencies(params)
        budget = params.disruption_budget
        if f_prime <= budget:
            # Only possible in the ablation that forces the full band off; the
            # regular construction guarantees F' > t.
            raise ConfigurationError(
                f"effective band F'={f_prime} must exceed the disruption budget t={budget}"
            )
        log_n = params.log_participants
        epoch_count = max(1, log_n)

        regular_length = max(
            1, math.ceil(config.epoch_constant * f_prime / (f_prime - budget) * log_n)
        )
        final_length = max(
            1,
            math.ceil(
                config.final_epoch_constant * f_prime * f_prime / (f_prime - budget) * log_n
            ),
        )
        if not config.use_extended_final_epoch:
            final_length = regular_length

        epochs = []
        for index in range(1, epoch_count + 1):
            is_final = index == epoch_count
            probability = min(0.5, (2.0**index) / (2.0 * params.participant_bound))
            epochs.append(
                EpochSpec(
                    index=index,
                    length=final_length if is_final else regular_length,
                    broadcast_probability=probability,
                    is_final=is_final,
                )
            )
        return tuple(epochs)

    # -- structure ---------------------------------------------------------

    @property
    def params(self) -> ModelParameters:
        """The model parameters the schedule was built for."""
        return self._params

    @property
    def config(self) -> TrapdoorConfig:
        """The constants the schedule was built with."""
        return self._config

    @property
    def epochs(self) -> tuple[EpochSpec, ...]:
        """All epochs, in order."""
        return self._epochs

    @property
    def epoch_count(self) -> int:
        """The number of epochs (``lg N``)."""
        return len(self._epochs)

    @property
    def total_rounds(self) -> int:
        """Total number of rounds a contender spends before becoming leader."""
        return self._total_rounds

    @property
    def effective_frequencies(self) -> int:
        """The number of frequencies contenders use (``F′`` unless ablated)."""
        return self._config.effective_frequencies(self._params)

    def epoch_of_round(self, local_round: int) -> EpochSpec | None:
        """The epoch containing the given 1-based contender round.

        Returns ``None`` if the round lies beyond the last epoch (the
        contender should already be a leader by then).
        """
        if local_round < 1:
            raise ConfigurationError(f"local round must be >= 1, got {local_round}")
        remaining = local_round
        for epoch in self._epochs:
            if remaining <= epoch.length:
                return epoch
            remaining -= epoch.length
        return None

    def epoch_rounds(self, epoch: EpochSpec) -> range:
        """The 1-based contender rounds ``epoch`` spans."""
        first = 1 + sum(previous.length for previous in self._epochs[: epoch.index - 1])
        return range(first, first + epoch.length)

    def broadcast_probability(self, local_round: int) -> float:
        """The broadcast probability of the epoch containing ``local_round``.

        Rounds beyond the schedule use the final epoch's probability.
        """
        epoch = self.epoch_of_round(local_round)
        return epoch.broadcast_probability if epoch is not None else self._epochs[-1].broadcast_probability

    def completed(self, local_round: int) -> bool:
        """True once a contender has completed every epoch (and becomes leader)."""
        return local_round > self._total_rounds

    def theoretical_round_bound(self) -> float:
        """The Theorem 10 upper-bound formula evaluated for these parameters.

        ``O(F/(F−t)·log²N + F·t/(F−t)·log N)`` — returned without the hidden
        constant, for use by the scaling experiments.
        """
        params = self._params
        frequencies = params.frequencies
        budget = params.disruption_budget
        log_n = params.log_participants
        denominator = max(1, frequencies - budget)
        return (frequencies / denominator) * log_n * log_n + (
            frequencies * budget / denominator
        ) * log_n

    def describe_rows(self) -> list[dict[str, object]]:
        """Rows for the Figure 1 table: epoch number, length, broadcast probability."""
        return [
            {
                "epoch": epoch.index,
                "length": epoch.length,
                "broadcast_probability": epoch.broadcast_probability,
                "final": epoch.is_final,
            }
            for epoch in self._epochs
        ]
