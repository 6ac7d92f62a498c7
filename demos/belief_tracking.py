"""Two aircraft pooling their 100 m footprints into one shared fire map.

The team only believes a cell is burning after someone has flown within
visit range of it, and every cell carries a staleness counter that ages
until the next overflight. This script flies two aircraft on offset
circles near the fire and reports how the shared picture converges on
the truth.
"""

import math
import os

import numpy as np

from firescout.aircraft import DT, AircraftState, integrate
from firescout.fire import PropagationParams, Wind, step_fire
from firescout.harness import desk_scenario
from firescout.env import SurveillanceSim
from firescout.pgm import write_pgm
from firescout.sensing import belief_channels_u8, update_belief

OUT = os.path.join(os.path.dirname(__file__), "out", "belief")
os.makedirs(OUT, exist_ok=True)

sc = desk_scenario()
sim = SurveillanceSim(sc.sim)
sim.reset(np.random.default_rng(11))
grid, belief = sim.grid, sim.belief
params, wind = sc.sim.propagation, sc.sim.wind
rng = np.random.default_rng(99)

# Anchor two opposing orbits on either flank of the fire; at 30 deg of
# bank each circle is 71 m in radius, about the width of the front.
planes = [AircraftState(x=420.0, y=500.0, psi=0.0, phi=math.radians(30.0)),
          AircraftState(x=580.0, y=500.0, psi=math.pi, phi=math.radians(30.0))]

total_discovered = 0
print("  t    true    believed   new   stalest")
for step in range(1, 601):
    planes = [integrate(p, DT) for p in planes]
    belief, discovered = update_belief(belief, grid, planes)
    total_discovered += discovered
    if step % round(params.step_duration / DT) == 0:    # every 2.5 s, as in an episode
        grid = step_fire(grid, params, wind, rng)
    if step % 100 == 0:
        t = step * DT
        true_n = int(grid.burning.sum())
        bel_n = int(belief.fire.sum())
        print(f"{t:5.0f}s  {true_n:5d}  {bel_n:8d}  {total_discovered:4d}  "
              f"{int(belief.time_since.max()):7d}")
        u8_fire, u8_stale = belief_channels_u8(belief)
        write_pgm(os.path.join(OUT, f"belief_{step:04d}.pgm"), u8_fire)
        write_pgm(os.path.join(OUT, f"stale_{step:04d}.pgm"), u8_stale)

# Cells the team believes in but that have already burned out linger
# until someone revisits; count them against the truth.
ghosts = int((belief.fire & ~grid.burning).sum())
missed = int((grid.burning & ~belief.fire).sum())
print(f"\nafter 60 s: {ghosts} stale believed cells, {missed} burning cells "
      f"never seen")
print(f"rasters in {OUT}")
