"""Unit tests for the Trapdoor configuration and epoch schedule (Figure 1)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule


class TestTrapdoorConfig:
    def test_defaults_are_paper_faithful(self):
        config = TrapdoorConfig()
        assert config.use_effective_band
        assert config.use_extended_final_epoch
        assert config.leader_broadcast_probability == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrapdoorConfig(epoch_constant=0)
        with pytest.raises(ConfigurationError):
            TrapdoorConfig(final_epoch_constant=-1)
        with pytest.raises(ConfigurationError):
            TrapdoorConfig(leader_broadcast_probability=0)

    def test_effective_frequencies_respects_ablation_switch(self, large_params):
        assert TrapdoorConfig().effective_frequencies(large_params) == 12
        assert TrapdoorConfig(use_effective_band=False).effective_frequencies(large_params) == 16


class TestScheduleStructure:
    def test_epoch_count_is_log_n(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        assert schedule.epoch_count == 8  # lg 256

    def test_probability_ladder_matches_figure1(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        probabilities = [epoch.broadcast_probability for epoch in schedule.epochs]
        expected = [2**e / (2 * 256) for e in range(1, 9)]
        assert probabilities == pytest.approx(expected)
        assert probabilities[-1] == pytest.approx(0.5)
        assert probabilities[-2] == pytest.approx(0.25)
        assert probabilities[0] == pytest.approx(1 / 256)

    def test_final_epoch_is_longer(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        lengths = [epoch.length for epoch in schedule.epochs]
        assert len(set(lengths[:-1])) == 1
        assert lengths[-1] > lengths[0]
        # Final epoch carries the extra F' factor.
        assert lengths[-1] >= lengths[0] * (schedule.effective_frequencies // 2)

    def test_ablation_disables_extended_final_epoch(self, large_params):
        schedule = TrapdoorSchedule(large_params, TrapdoorConfig(use_extended_final_epoch=False))
        lengths = {epoch.length for epoch in schedule.epochs}
        assert len(lengths) == 1

    def test_total_rounds_is_sum_of_epochs(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        assert schedule.total_rounds == sum(epoch.length for epoch in schedule.epochs)

    def test_lengths_grow_with_disruption_budget(self):
        base = ModelParameters(frequencies=16, disruption_budget=2, participant_bound=256)
        heavy = ModelParameters(frequencies=16, disruption_budget=14, participant_bound=256)
        assert (
            TrapdoorSchedule(heavy).total_rounds > TrapdoorSchedule(base).total_rounds
        )

    def test_zero_budget_degenerates_to_single_channel(self):
        params = ModelParameters(frequencies=8, disruption_budget=0, participant_bound=16)
        schedule = TrapdoorSchedule(params)
        assert schedule.effective_frequencies == 1
        assert schedule.total_rounds >= schedule.epoch_count

    def test_forced_full_band_must_exceed_budget(self):
        params = ModelParameters(frequencies=4, disruption_budget=3, participant_bound=16)
        # F' = min(F, 2t) = 4 > 3 works; forcing the full band still works here
        # because F > t.  A genuinely impossible combination is rejected at the
        # parameter level, so just confirm the schedule builds.
        assert TrapdoorSchedule(params, TrapdoorConfig(use_effective_band=False)).epoch_count >= 1


class TestPerRoundQueries:
    def test_epoch_of_round_walks_the_schedule(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        first = schedule.epoch_of_round(1)
        assert first is not None and first.index == 1
        boundary = schedule.epochs[0].length
        assert schedule.epoch_of_round(boundary).index == 1
        assert schedule.epoch_of_round(boundary + 1).index == 2
        assert schedule.epoch_of_round(schedule.total_rounds).is_final

    def test_epoch_rounds_span_exactly_the_rounds_of_each_epoch(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        covered = []
        for epoch in schedule.epochs:
            rounds = schedule.epoch_rounds(epoch)
            assert len(rounds) == epoch.length
            assert all(schedule.epoch_of_round(r) is epoch for r in rounds)
            covered.extend(rounds)
        assert covered == list(range(1, schedule.total_rounds + 1))

    def test_round_beyond_schedule_returns_none_and_completed(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        beyond = schedule.total_rounds + 1
        assert schedule.epoch_of_round(beyond) is None
        assert schedule.completed(beyond)
        assert not schedule.completed(schedule.total_rounds)

    def test_broadcast_probability_beyond_schedule_is_final(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        assert schedule.broadcast_probability(schedule.total_rounds + 100) == pytest.approx(0.5)

    def test_rejects_non_positive_round(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        with pytest.raises(ConfigurationError):
            schedule.epoch_of_round(0)

    def test_describe_rows_matches_epochs(self, large_params):
        schedule = TrapdoorSchedule(large_params)
        rows = schedule.describe_rows()
        assert len(rows) == schedule.epoch_count
        assert rows[-1]["final"] is True
        assert rows[0]["epoch"] == 1

    def test_theoretical_bound_is_positive_and_grows_with_t(self):
        low = ModelParameters(frequencies=16, disruption_budget=2, participant_bound=256)
        high = ModelParameters(frequencies=16, disruption_budget=12, participant_bound=256)
        assert TrapdoorSchedule(high).theoretical_round_bound() > TrapdoorSchedule(
            low
        ).theoretical_round_bound() > 0
