"""Trace the banked-turn kinematics: circles, S-weaves and bank limits.

The aircraft flies at a fixed 20 m/s and steers only by nudging its bank
angle 5 degrees at a time. This script integrates a few canned bank
schedules at the 10 Hz decision rate and writes the tracks as one SVG.
"""

import math
import os

from firescout.aircraft import (
    DT,
    Action,
    AircraftState,
    BANK_LIMIT,
    SPEED,
    apply_action,
    integrate,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# A full circle at 30 degrees of bank: analytic radius and period first.
phi = math.radians(30.0)
omega = 9.81 * math.tan(phi) / SPEED
print(f"30 deg bank: turn rate {omega:.4f} rad/s, "
      f"radius {SPEED / omega:.2f} m, period {2 * math.pi / omega:.2f} s")


def fly(schedule, start=None):
    """Apply one action per 0.1 s step and return the list of states."""
    s = start or AircraftState(x=0.0, y=0.0, psi=0.0, phi=0.0)
    track = [s]
    for a in schedule:
        s = integrate(apply_action(s, a), DT)
        track.append(s)
    return track


# Hold left until the bank saturates, then keep circling for 30 s.
circle = fly([Action.BANK_LEFT] * 300)
print(f"saturated bank {math.degrees(circle[-1].phi):.0f} deg "
      f"(limit {math.degrees(BANK_LIMIT):.0f})")

# S-weave: 4 s of left bank, then 8 s right, repeating.
weave = []
for _ in range(3):
    weave += [Action.BANK_LEFT] * 40 + [Action.BANK_RIGHT] * 80
s_curve = fly(weave, AircraftState(x=0.0, y=-200.0, psi=0.0, phi=0.0))

# Dash: alternate nudges. The bank oscillates between 0 and 5 degrees,
# never settling at zero, so even the straightest available path bends.
dash = fly([Action.BANK_LEFT, Action.BANK_RIGHT] * 150,
           AircraftState(x=0.0, y=-400.0, psi=0.0, phi=0.0))
print(f"dash: straightest available path still drifted "
      f"{abs(dash[-1].y + 400.0):.1f} m over {len(dash) * DT * SPEED:.0f} m "
      f"flown (bank dithers 0-5 deg, mean 2.5)")

tracks = [("circle", circle, "#1f78b4"), ("s-weave", s_curve, "#33a02c"),
          ("dash", dash, "#ff7f00")]
xs = [p.x for _, t, _ in tracks for p in t]
ys = [p.y for _, t, _ in tracks for p in t]
x0, x1 = min(xs) - 20, max(xs) + 20
y0, y1 = min(ys) - 20, max(ys) + 20
lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="700" height="700" '
         f'viewBox="{x0:.0f} {-y1:.0f} {x1 - x0:.0f} {y1 - y0:.0f}">']
for name, track, color in tracks:
    pts = " ".join(f"{p.x:.1f},{-p.y:.1f}" for p in track)
    lines.append(f'  <polyline points="{pts}" fill="none" stroke="{color}" '
                 f'stroke-width="3"><title>{name}</title></polyline>')
lines.append("</svg>")
path = os.path.join(OUT, "aircraft_paths.svg")
with open(path, "w") as f:
    f.write("\n".join(lines) + "\n")
print(f"wrote {path}")
