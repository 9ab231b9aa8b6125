"""Unit and property tests for closed-form work integration."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.profile import Ramp, constant_time_to_complete, constant_work


class TestConstant:
    def test_work(self):
        assert constant_work(10.0, 30.0, 0.5) == pytest.approx(10.0)

    def test_reversed_segment_rejected(self):
        with pytest.raises(ValueError):
            constant_work(30.0, 10.0, 0.5)

    def test_time_to_complete(self):
        assert constant_time_to_complete(100.0, 20.0, 0.5) == pytest.approx(140.0)

    def test_zero_remaining_is_now(self):
        assert constant_time_to_complete(100.0, 0.0, 0.5) == 100.0

    def test_stalled_is_infinite(self):
        assert constant_time_to_complete(100.0, 1.0, 0.0) == math.inf


class TestRamp:
    def _ramp(self):
        # 0.3 -> 1.0 over [100, 110] (rho = 0.07).
        return Ramp(start_time=100.0, end_time=110.0, from_speed=0.3, to_speed=1.0)

    def test_speed_at(self):
        ramp = self._ramp()
        assert ramp.speed_at(100.0) == pytest.approx(0.3)
        assert ramp.speed_at(105.0) == pytest.approx(0.65)
        assert ramp.speed_at(110.0) == pytest.approx(1.0)
        assert ramp.speed_at(50.0) == pytest.approx(0.3)
        assert ramp.speed_at(200.0) == pytest.approx(1.0)

    def test_work_inside_ramp(self):
        assert self._ramp().work_between(100.0, 110.0) == pytest.approx(6.5)

    def test_work_spanning_before_and_after(self):
        ramp = self._ramp()
        # 10 us at 0.3 before + 6.5 in ramp + 10 us at 1.0 after.
        assert ramp.work_between(90.0, 120.0) == pytest.approx(3.0 + 6.5 + 10.0)

    def test_work_additivity(self):
        ramp = self._ramp()
        total = ramp.work_between(95.0, 118.0)
        split = ramp.work_between(95.0, 104.0) + ramp.work_between(104.0, 118.0)
        assert total == pytest.approx(split, rel=1e-12)

    def test_zero_length_ramp(self):
        ramp = Ramp(start_time=5.0, end_time=5.0, from_speed=0.5, to_speed=1.0)
        assert ramp.slope == 0.0
        assert ramp.work_between(0.0, 10.0) > 0.0

    def test_reversed_ramp_rejected(self):
        with pytest.raises(ValueError):
            Ramp(start_time=10.0, end_time=5.0, from_speed=0.5, to_speed=1.0)

    def test_immutable(self):
        ramp = self._ramp()
        with pytest.raises(AttributeError):
            ramp.end_time = 120.0
        assert ramp == self._ramp()

    def test_speed_at_matches_slope(self):
        ramp = self._ramp()
        for t in (100.5, 103.0, 109.99):
            assert ramp.speed_at(t) == ramp.from_speed + ramp.slope * (
                t - ramp.start_time
            )


class TestRampCompletion:
    def test_completes_within_upward_ramp(self):
        ramp = Ramp(start_time=0.0, end_time=10.0, from_speed=0.3, to_speed=1.0)
        t = ramp.time_to_complete(0.0, 3.25)  # half the ramp work (6.5)
        assert 0.0 < t < 10.0
        assert ramp.work_between(0.0, t) == pytest.approx(3.25, rel=1e-9)

    def test_completes_within_downward_ramp(self):
        ramp = Ramp(start_time=0.0, end_time=10.0, from_speed=1.0, to_speed=0.3)
        t = ramp.time_to_complete(0.0, 3.0)
        assert 0.0 < t < 10.0
        assert ramp.work_between(0.0, t) == pytest.approx(3.0, rel=1e-9)

    def test_overflows_into_constant_tail(self):
        ramp = Ramp(start_time=0.0, end_time=10.0, from_speed=0.3, to_speed=1.0)
        # Ramp supplies 6.5; 4 more at speed 1.0 -> t = 14.
        assert ramp.time_to_complete(0.0, 10.5) == pytest.approx(14.0)

    def test_starting_mid_ramp(self):
        ramp = Ramp(start_time=0.0, end_time=10.0, from_speed=0.3, to_speed=1.0)
        work_tail = ramp.work_between(5.0, 10.0)
        t = ramp.time_to_complete(5.0, work_tail)
        assert t == pytest.approx(10.0, rel=1e-9)

    def test_after_ramp_is_constant(self):
        ramp = Ramp(start_time=0.0, end_time=10.0, from_speed=0.3, to_speed=1.0)
        assert ramp.time_to_complete(20.0, 5.0) == pytest.approx(25.0)

    def test_zero_remaining(self):
        ramp = Ramp(start_time=0.0, end_time=10.0, from_speed=0.3, to_speed=1.0)
        assert ramp.time_to_complete(3.0, 0.0) == 3.0

    @given(
        s0=st.floats(0.05, 1.0),
        s1=st.floats(0.05, 1.0),
        duration=st.floats(0.1, 100.0),
        fraction=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_completion_inverts_work(self, s0, s1, duration, fraction):
        """time_to_complete is the inverse of work_between."""
        ramp = Ramp(start_time=0.0, end_time=duration, from_speed=s0, to_speed=s1)
        ramp_work = ramp.work_between(0.0, duration)
        remaining = fraction * ramp_work
        t = ramp.time_to_complete(0.0, remaining)
        assert 0.0 <= t <= duration + 1e-9
        assert ramp.work_between(0.0, t) == pytest.approx(remaining, rel=1e-6)

    @given(
        s0=st.floats(0.05, 1.0),
        s1=st.floats(0.05, 1.0),
        duration=st.floats(0.1, 100.0),
        extra=st.floats(0.01, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_overflow_consistency(self, s0, s1, duration, extra):
        ramp = Ramp(start_time=0.0, end_time=duration, from_speed=s0, to_speed=s1)
        ramp_work = ramp.work_between(0.0, duration)
        t = ramp.time_to_complete(0.0, ramp_work + extra)
        assert t == pytest.approx(duration + extra / s1, rel=1e-9)
