"""Tests for communication schedules (repro.core.schedules)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.api.registries import COMM_SCHEDULES
from repro.core.schedules import (
    AdaCommSchedule,
    FixedCommunicationSchedule,
    SequenceCommunicationSchedule,
)


class TestFixedSchedule:
    def test_constant_output(self):
        sched = FixedCommunicationSchedule(7)
        assert [sched.next_tau() for _ in range(5)] == [7] * 5
        assert sched.peek_tau() == 7

    def test_label_for_sync_sgd(self):
        assert FixedCommunicationSchedule(1).label == "sync-sgd"
        assert FixedCommunicationSchedule(20).label == "pasgd-tau20"

    def test_observe_is_noop(self):
        sched = FixedCommunicationSchedule(5)
        sched.observe(10.0, 1.0, 0.1)
        assert sched.next_tau() == 5

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            FixedCommunicationSchedule(0)


class TestSequenceSchedule:
    def test_emits_sequence_then_repeats_last(self):
        sched = SequenceCommunicationSchedule([8, 4, 2])
        assert [sched.next_tau() for _ in range(5)] == [8, 4, 2, 2, 2]

    def test_peek_does_not_consume(self):
        sched = SequenceCommunicationSchedule([8, 4])
        assert sched.peek_tau() == 8
        assert sched.next_tau() == 8
        assert sched.peek_tau() == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceCommunicationSchedule([])
        with pytest.raises(ValueError):
            SequenceCommunicationSchedule([2, 0])


class TestAdaCommSchedule:
    def test_default_construction(self):
        sched = AdaCommSchedule(initial_tau=12, interval_length=10.0)
        assert sched.next_tau() == sched.peek_tau() == 12
        assert sched.label == "adacomm"

    def test_observe_drives_controller(self):
        sched = AdaCommSchedule(initial_tau=16, interval_length=10.0)
        sched.observe(0.0, 4.0, 0.1)
        sched.observe(10.0, 1.0, 0.1)
        assert sched.next_tau() == 8
        assert len(sched.tau_history) == 2

    def test_is_the_registered_adacomm_with_three_fields(self):
        assert COMM_SCHEDULES.get("adacomm") is AdaCommSchedule
        assert [f.name for f in fields(AdaCommSchedule) if f.init] == ["initial_tau", "interval_length", "gamma"]
