"""Unit tests for the single-hop radio network collision/disruption rules."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.radio.actions import broadcast, listen
from repro.radio.frequencies import FrequencyBand
from repro.radio.messages import LeaderMessage
from repro.radio.network import SingleHopRadioNetwork


@pytest.fixture
def network() -> SingleHopRadioNetwork:
    return SingleHopRadioNetwork(FrequencyBand(4))


MESSAGE = LeaderMessage(leader_uid=1, round_number=5)
OTHER = LeaderMessage(leader_uid=2, round_number=9)


class TestDelivery:
    def test_single_broadcaster_reaches_listener(self, network):
        resolution = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(2)}, disrupted=()
        )
        assert resolution.outcomes[1].message == MESSAGE
        assert resolution.outcomes[1].received

    def test_listener_on_other_frequency_hears_nothing(self, network):
        resolution = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(3)}, disrupted=()
        )
        assert resolution.outcomes[1].message is None

    def test_broadcaster_never_receives(self, network):
        resolution = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: broadcast(3, OTHER), 2: listen(3)}, disrupted=()
        )
        assert resolution.outcomes[0].message is None
        assert resolution.outcomes[0].broadcast
        assert resolution.outcomes[2].message == OTHER

    def test_collision_destroys_both_messages(self, network):
        resolution = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: broadcast(2, OTHER), 2: listen(2)}, disrupted=()
        )
        outcome = resolution.outcomes[2]
        assert outcome.message is None
        assert outcome.collision

    def test_disruption_blocks_delivery(self, network):
        resolution = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(2)}, disrupted={2}
        )
        outcome = resolution.outcomes[1]
        assert outcome.message is None
        assert outcome.disrupted

    def test_disruption_on_other_frequency_is_harmless(self, network):
        resolution = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(2)}, disrupted={3}
        )
        assert resolution.outcomes[1].message == MESSAGE

    def test_silence_and_disruption_look_identical_to_listener(self, network):
        silent = network.resolve_round(1, {0: listen(1)}, disrupted=())
        jammed = network.resolve_round(1, {0: listen(1)}, disrupted={1})
        assert silent.outcomes[0].message is None
        assert jammed.outcomes[0].message is None

    def test_empty_round_resolves(self, network):
        resolution = network.resolve_round(1, {}, disrupted={1})
        assert resolution.outcomes == {}
        assert resolution.activity.disrupted == frozenset({1})


class TestActivityRecord:
    def test_activity_groups_by_frequency(self, network):
        resolution = network.resolve_round(
            7,
            {0: broadcast(1, MESSAGE), 1: listen(1), 2: broadcast(3, OTHER), 3: broadcast(3, MESSAGE)},
            disrupted={2},
            activations=(5,),
        )
        activity = resolution.activity
        assert activity.global_round == 7
        assert activity.activations == (5,)
        assert activity.per_frequency[1].delivered
        assert activity.per_frequency[3].collided
        assert not activity.per_frequency[3].delivered
        assert activity.successful_frequencies() == (1,)
        assert activity.broadcaster_count() == 3

    def test_out_of_band_disruption_rejected(self, network):
        with pytest.raises(ConfigurationError):
            network.resolve_round(1, {}, disrupted={9})

    def test_out_of_band_action_rejected(self, network):
        with pytest.raises(SimulationError):
            network.resolve_round(1, {0: listen(9)}, disrupted=())


class TestBudgetValidation:
    def test_budget_accepts_within_limit(self, network):
        assert network.validate_disruption_budget({1, 2}, 3) == frozenset({1, 2})

    def test_budget_rejects_exceeding(self, network):
        with pytest.raises(ConfigurationError):
            network.validate_disruption_budget({1, 2, 3}, 2)

    def test_budget_rejects_out_of_band(self, network):
        with pytest.raises(ConfigurationError):
            network.validate_disruption_budget({99}, 3)


class TestFrozensetFastPath:
    """In-band int frozensets skip re-validation; everything else errs as before."""

    def test_budget_returns_a_valid_frozenset_itself(self, network):
        disrupted = frozenset({1, 3})
        assert network.validate_disruption_budget(disrupted, 2) is disrupted

    @pytest.mark.parametrize(
        "disrupted, budget, message",
        [
            ({9}, 3, "frequency 9 outside band"),
            ({0}, 3, "frequency 0 outside band"),
            ({2.0}, 3, "frequency 2.0 outside band"),
            ({1, 2, 3}, 2, "disrupted 3 frequencies, budget is 2"),
        ],
    )
    def test_budget_errors_are_the_same_for_sets_and_frozensets(
        self, network, disrupted, budget, message
    ):
        for container in (set, frozenset):
            with pytest.raises(ConfigurationError, match=message):
                network.validate_disruption_budget(container(disrupted), budget)

    def test_resolver_rejects_what_the_budget_check_rejects(self, network):
        for disrupted in (frozenset({9}), frozenset({2.0}), {9}):
            with pytest.raises(ConfigurationError, match="outside band"):
                network.resolve_round(1, {0: listen(2)}, disrupted=disrupted)

    def test_resolver_accepts_a_validated_set_and_records_it(self, network):
        disrupted = network.validate_disruption_budget(frozenset({2}), 1)
        resolution = network.resolve_round(1, {0: broadcast(2, MESSAGE), 1: listen(2)}, disrupted)
        assert resolution.activity.disrupted == {2}
        assert resolution.outcomes[1].message is None and resolution.outcomes[1].disrupted
