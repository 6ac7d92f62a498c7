"""Tests for banked-turn kinematics and body-frame geometry.

The 30-degree-bank turn constants are frozen from omega = g tan(phi) / v
evaluated by hand: period 22.18714818635129 s, radius 70.62388613940377 m
at 20 m/s.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firescout.aircraft import (
    BANK_LIMIT,
    BANK_STEP,
    SPEED,
    Action,
    AircraftState,
    apply_action,
    integrate,
    relative_geometry,
    wrap_angle,
)

PHI30 = math.radians(30.0)
PERIOD30 = 22.18714818635129
RADIUS30 = 70.62388613940377


class TestWrapAngle:
    @pytest.mark.parametrize("a,expected", [
        (0.0, 0.0),
        (math.pi / 3, math.pi / 3),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (2 * math.pi, 0.0),
        (-math.pi / 2, -math.pi / 2),
    ])
    def test_reference_points(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)

    def test_range_is_half_open(self):
        for k in range(-7, 8):
            w = wrap_angle(0.37 + k * math.tau)
            assert -math.pi < w <= math.pi
            assert w == pytest.approx(0.37, abs=1e-9)


class TestApplyAction:
    def test_left_raises_bank(self):
        s = AircraftState(0.0, 0.0, 0.0, 0.0)
        assert apply_action(s, Action.BANK_LEFT).phi == BANK_STEP

    def test_right_lowers_bank(self):
        s = AircraftState(0.0, 0.0, 0.0, 0.0)
        assert apply_action(s, Action.BANK_RIGHT).phi == -BANK_STEP

    def test_clamped_at_positive_limit(self):
        s = AircraftState(0.0, 0.0, 0.0, BANK_LIMIT)
        assert apply_action(s, Action.BANK_LEFT).phi == BANK_LIMIT

    def test_clamped_at_negative_limit(self):
        s = AircraftState(0.0, 0.0, 0.0, -BANK_LIMIT)
        assert apply_action(s, Action.BANK_RIGHT).phi == -BANK_LIMIT

    def test_ten_lefts_saturate(self):
        s = AircraftState(0.0, 0.0)
        for _ in range(15):
            s = apply_action(s, Action.BANK_LEFT)
        assert s.phi == BANK_LIMIT  # 10 steps reach the cap exactly, then hold

    def test_position_untouched(self):
        s = AircraftState(3.0, -4.0, 1.0, 0.0)
        out = apply_action(s, Action.BANK_LEFT)
        assert (out.x, out.y, out.psi) == (3.0, -4.0, 1.0)

    def test_action_indices(self):
        assert Action.BANK_RIGHT == 0
        assert Action.BANK_LEFT == 1


class TestIntegrate:
    def test_straight_flight(self):
        s = AircraftState(5.0, -2.0, 0.3, 0.0)
        out = integrate(s, 1.5)
        assert out.x == pytest.approx(5.0 + SPEED * 1.5 * math.cos(0.3), rel=1e-12)
        assert out.y == pytest.approx(-2.0 + SPEED * 1.5 * math.sin(0.3), rel=1e-12)
        assert out.psi == 0.3
        assert out.phi == 0.0

    def test_zero_dt_is_identity(self):
        s = AircraftState(1.0, 2.0, 0.5, PHI30)
        out = integrate(s, 0.0)
        assert out.x == pytest.approx(1.0, abs=1e-12)
        assert out.y == pytest.approx(2.0, abs=1e-12)
        assert out.psi == pytest.approx(0.5, abs=1e-12)

    def test_full_turn_closes_single_step(self):
        s = AircraftState(123.4, -56.7, 0.3, PHI30)
        out = integrate(s, PERIOD30)
        assert math.hypot(out.x - s.x, out.y - s.y) < 1e-6
        assert wrap_angle(out.psi - s.psi) == pytest.approx(0.0, abs=1e-6)

    def test_full_turn_closes_at_decision_rate(self):
        # same closure when the turn is flown as 0.1 s decision steps
        s = AircraftState(0.0, 0.0, -1.1, -PHI30)
        steps = int(round(PERIOD30 / 0.1))
        out = s
        for _ in range(steps):
            out = integrate(out, 0.1)
        out = integrate(out, PERIOD30 - steps * 0.1)
        assert math.hypot(out.x - s.x, out.y - s.y) < 1e-6

    def test_left_quarter_turn_geometry(self):
        # positive bank turns counterclockwise: from heading east the
        # circle center is 70.62 m to the north (the pilot's left)
        s = AircraftState(0.0, 0.0, 0.0, PHI30)
        out = integrate(s, PERIOD30 / 4)
        assert out.x == pytest.approx(RADIUS30, rel=1e-9)
        assert out.y == pytest.approx(RADIUS30, rel=1e-9)
        assert out.psi == pytest.approx(math.pi / 2, abs=1e-9)

    def test_right_quarter_turn_mirrors(self):
        s = AircraftState(0.0, 0.0, 0.0, -PHI30)
        out = integrate(s, PERIOD30 / 4)
        assert out.x == pytest.approx(RADIUS30, rel=1e-9)
        assert out.y == pytest.approx(-RADIUS30, rel=1e-9)
        assert out.psi == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_half_turn_diameter(self):
        s = AircraftState(10.0, 20.0, 0.0, PHI30)
        out = integrate(s, PERIOD30 / 2)
        assert out.x == pytest.approx(10.0, abs=1e-8)
        assert out.y == pytest.approx(20.0 + 2 * RADIUS30, rel=1e-9)

    def test_near_zero_bank_falls_back_to_straight(self):
        s = AircraftState(0.0, 0.0, 0.0, 1e-12)
        out = integrate(s, 2.0)
        assert out.x == pytest.approx(40.0, rel=1e-12)
        assert out.y == pytest.approx(0.0, abs=1e-9)

    def test_heading_stays_wrapped(self):
        s = AircraftState(0.0, 0.0, 3.0, PHI30)
        for _ in range(400):
            s = integrate(s, 0.1)
            assert -math.pi < s.psi <= math.pi

    def test_speed_override_scales_radius(self):
        # radius goes as SPEED^2 / (g tan phi): at 45 degrees of bank,
        # tan 30 / tan 45 of the 30-degree radius
        phi = math.radians(45.0)
        s = AircraftState(0.0, 0.0, 0.0, phi)
        period = 2 * math.pi * SPEED / (9.81 * math.tan(phi))
        out = integrate(s, period / 4)
        radius = RADIUS30 * math.tan(PHI30) / math.tan(phi)
        assert radius == pytest.approx(SPEED ** 2 / 9.81, rel=1e-9)
        assert out.x == pytest.approx(radius, rel=1e-9)
        assert out.y == pytest.approx(radius, rel=1e-9)


class TestRelativeGeometry:
    def test_dead_ahead(self):
        own = AircraftState(10.0, 20.0, math.pi / 2, 0.1)
        other = AircraftState(10.0, 120.0, 0.0, -0.2)
        rel = relative_geometry(own, other)
        assert rel.rho == pytest.approx(100.0, rel=1e-12)
        assert rel.theta == pytest.approx(0.0, abs=1e-12)
        assert rel.phi_own == 0.1
        assert rel.phi_other == -0.2

    def test_off_the_left_wing(self):
        own = AircraftState(10.0, 20.0, math.pi / 2, 0.0)
        other = AircraftState(-90.0, 20.0, 0.0, 0.0)
        rel = relative_geometry(own, other)
        assert rel.rho == pytest.approx(100.0, rel=1e-12)
        assert rel.theta == pytest.approx(math.pi / 2, rel=1e-12)

    def test_behind(self):
        own = AircraftState(0.0, 0.0, 0.0, 0.0)
        other = AircraftState(-50.0, 0.0, 0.0, 0.0)
        rel = relative_geometry(own, other)
        assert rel.rho == 50.0
        assert abs(rel.theta) == pytest.approx(math.pi, rel=1e-12)

    def test_relative_heading_wraps(self):
        own = AircraftState(0.0, 0.0, 3 * math.pi / 4, 0.0)
        other = AircraftState(100.0, 0.0, -3 * math.pi / 4, 0.0)
        rel = relative_geometry(own, other)
        assert rel.psi_rel == pytest.approx(math.pi / 2, rel=1e-12)

    def test_zero_range_convention(self):
        own = AircraftState(7.0, 7.0, 1.0, 0.0)
        other = AircraftState(7.0, 7.0, 2.0, 0.0)
        rel = relative_geometry(own, other)
        assert rel.rho == 0.0
        assert rel.theta == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        x1=st.floats(-500, 500), y1=st.floats(-500, 500),
        x2=st.floats(-500, 500), y2=st.floats(-500, 500),
        p1=st.floats(-math.pi, math.pi), p2=st.floats(-math.pi, math.pi),
    )
    def test_range_symmetric_and_bearing_bounded(self, x1, y1, x2, y2, p1, p2):
        a = AircraftState(x1, y1, p1, 0.0)
        b = AircraftState(x2, y2, p2, 0.0)
        ab = relative_geometry(a, b)
        ba = relative_geometry(b, a)
        assert ab.rho == ba.rho
        assert -math.pi <= ab.theta <= math.pi

    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(-math.pi, math.pi))
    def test_common_rotation_preserves_body_frame(self, shift):
        own = AircraftState(0.0, 0.0, 0.2, 0.0)
        other = AircraftState(80.0, 60.0, -0.4, 0.0)
        base = relative_geometry(own, other)
        c, s = math.cos(shift), math.sin(shift)
        rot_own = AircraftState(0.0, 0.0, wrap_angle(0.2 + shift), 0.0)
        rot_other = AircraftState(80.0 * c - 60.0 * s, 80.0 * s + 60.0 * c,
                                  wrap_angle(-0.4 + shift), 0.0)
        rot = relative_geometry(rot_own, rot_other)
        assert rot.rho == pytest.approx(base.rho, rel=1e-9)
        assert wrap_angle(rot.theta - base.theta) == pytest.approx(0.0, abs=1e-9)
        assert wrap_angle(rot.psi_rel - base.psi_rel) == pytest.approx(0.0, abs=1e-9)


def test_trajectory_matches_fine_euler():
    """The closed-form arc agrees with a fine Euler integration of
    xdot = v cos psi, ydot = v sin psi, psidot = g tan(phi) / v."""
    s = AircraftState(0.0, 0.0, 0.7, math.radians(20.0))
    coarse = integrate(s, 2.0)
    n = 200_000
    dt = 2.0 / n
    x, y, psi = s.x, s.y, s.psi
    omega = 9.81 * math.tan(s.phi) / SPEED
    for _ in range(n):
        x += SPEED * math.cos(psi) * dt
        y += SPEED * math.sin(psi) * dt
        psi += omega * dt
    assert coarse.x == pytest.approx(x, abs=1e-3)
    assert coarse.y == pytest.approx(y, abs=1e-3)
    assert wrap_angle(coarse.psi - psi) == pytest.approx(0.0, abs=1e-6)
