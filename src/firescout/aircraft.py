"""Constant-speed banked-turn kinematics and pairwise relative geometry.

The vehicle flies at fixed speed; heading rate is g*tan(phi)/v, so the
only control is the bank angle phi, adjusted in 5-degree increments and
capped at +/-50 degrees. Position updates use the closed-form circular
arc rather than Euler stepping, which keeps long simulations drift-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

G = 9.81                        # m/s^2
BANK_STEP = math.radians(5.0)
BANK_LIMIT = math.radians(50.0)
SPEED = 20.0                    # m/s, nominal cruise
DT = 0.1                        # s, one decision step (10 Hz)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(a, math.tau)
    return math.pi if w <= -math.pi else w


@dataclass(frozen=True)
class AircraftState:
    x: float            # m east
    y: float            # m north
    psi: float = 0.0    # heading, rad, atan2 convention
    phi: float = 0.0    # bank angle, rad


class Action(IntEnum):
    """Bank increments. Positive phi turns counterclockwise (a left turn
    with east-north axes), so BANK_LEFT raises phi and BANK_RIGHT lowers it.
    """

    BANK_RIGHT = 0  # -5 deg
    BANK_LEFT = 1   # +5 deg

    @property
    def bank_delta(self) -> float:
        return BANK_STEP if self is Action.BANK_LEFT else -BANK_STEP


@dataclass(frozen=True)
class RelativeGeometry:
    """Another aircraft as seen from the ownship body frame."""

    rho: float       # range, m
    theta: float     # bearing, rad, positive counterclockwise (to the left)
    psi_rel: float   # other heading minus own heading, wrapped
    phi_own: float
    phi_other: float


def apply_action(state: AircraftState, action: Action) -> AircraftState:
    """Step the bank angle by +/-5 degrees, clamped to the 50-degree cap."""
    phi = state.phi + action.bank_delta
    phi = max(-BANK_LIMIT, min(BANK_LIMIT, phi))
    return replace(state, phi=phi)


def integrate(state: AircraftState, dt: float) -> AircraftState:
    """Advance dt seconds at constant speed and bank angle.

    With nonzero bank the trajectory is an arc of radius v/omega where
    omega = g*tan(phi)/v and v = SPEED; the update is the exact rotation along it.
    """
    omega = G * math.tan(state.phi) / SPEED
    if abs(omega) < 1e-9:
        return replace(state,
                       x=state.x + SPEED * math.cos(state.psi) * dt,
                       y=state.y + SPEED * math.sin(state.psi) * dt)
    r = SPEED / omega
    psi_new = state.psi + omega * dt
    return AircraftState(
        x=state.x + r * (math.sin(psi_new) - math.sin(state.psi)),
        y=state.y - r * (math.cos(psi_new) - math.cos(state.psi)),
        psi=wrap_angle(psi_new),
        phi=state.phi,
    )


def relative_geometry(own: AircraftState, other: AircraftState) -> RelativeGeometry:
    """Range, bearing and relative heading of other in own's body frame.

    At zero range the bearing is 0 by convention.
    """
    dx = other.x - own.x
    dy = other.y - own.y
    rho = math.hypot(dx, dy)
    if rho == 0.0:
        theta = 0.0
    else:
        ahead = dx * math.cos(own.psi) + dy * math.sin(own.psi)
        left = -dx * math.sin(own.psi) + dy * math.cos(own.psi)
        theta = math.atan2(left, ahead)
    return RelativeGeometry(
        rho=rho,
        theta=theta,
        psi_rel=wrap_angle(other.psi - own.psi),
        phi_own=own.phi,
        phi_other=other.phi,
    )
