"""Episode machinery: fire, aircraft and the shared belief stepped together.

Aircraft decide at 10 Hz; the fire advances in a burst once every
fire_every_steps agent steps (25 by default, matching a 2.5 s fire step
against 0.1 s decisions); the belief map refreshes every agent step from
all aircraft positions at once. An episode is a pre-growth phase with no
aircraft followed by a fixed flying horizon.

The five continuous network inputs for the pair (own, other) are
(phi_own, rho / rho_scale, theta, psi_rel, phi_other). The range is
scaled down so it lands in the same numeric band as the angles; the
divisor is part of the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aircraft import Action, AircraftState, RelativeGeometry, apply_action, \
    integrate, relative_geometry, wrap_angle
from .fire import FireGrid, PropagationParams, SeedPattern, Wind, apply_seed, \
    new_grid, pre_grow, step_fire
from .rewards import RewardWeights, bank_penalty, belief_reward, \
    cold_cells_penalty, fire_distance_penalty, proximity_penalty
from .sensing import BeliefMap, build_range_bins, ego_belief_image, \
    render_observation, update_belief

OBSERVATION = "observation"
BELIEF = "belief"


@dataclass(frozen=True)
class SimConfig:
    """Everything an episode needs apart from the random stream."""

    grid_width: int = 100
    grid_height: int = 100
    cell_size_m: float = 10.0
    fuel_min: float = 15.0
    fuel_max: float = 20.0
    seed_pattern: SeedPattern | None = None
    wind: Wind = Wind()
    propagation: PropagationParams = PropagationParams()
    n_aircraft: int = 2
    spawn_poses: tuple[AircraftState, ...] | None = None
    pregrow_seconds: float = 30.0
    horizon_seconds: float = 100.0
    n_range_bins: int = 40
    n_angle_bins: int = 30
    max_range_m: float = 500.0
    decision_hz: float = 10.0
    fire_every_steps: int = 25
    weights: RewardWeights = RewardWeights()
    rho_scale: float = 100.0

    def __post_init__(self):
        if self.n_aircraft < 1:
            raise ValueError("need at least one aircraft")
        if self.spawn_poses is not None and len(self.spawn_poses) != self.n_aircraft:
            raise ValueError(
                f"{len(self.spawn_poses)} spawn poses given for {self.n_aircraft} aircraft")
        if self.horizon_seconds <= 0:
            raise ValueError("horizon must be positive")
        if self.pregrow_seconds < 0:
            raise ValueError("pre-growth time cannot be negative")
        if self.decision_hz <= 0 or self.fire_every_steps < 1:
            raise ValueError("invalid decision rate or fire interval")
        if self.rho_scale <= 0:
            raise ValueError("rho_scale must be positive")

    @property
    def dt(self) -> float:
        return 1.0 / self.decision_hz

    @property
    def horizon_steps(self) -> int:
        return int(round(self.horizon_seconds * self.decision_hz))

    def observation_image_shape(self) -> tuple[int, int, int]:
        return (self.n_range_bins, self.n_angle_bins, 1)

    def belief_image_shape(self) -> tuple[int, int, int]:
        return (self.grid_height, self.grid_width, 2)

    def image_shape(self, approach: str) -> tuple[int, int, int]:
        if approach == OBSERVATION:
            return self.observation_image_shape()
        if approach == BELIEF:
            return self.belief_image_shape()
        raise ValueError(f"unknown approach {approach!r}")


@dataclass
class StepResult:
    aircraft: tuple[AircraftState, ...]
    discovered: int          # burning cells newly added to the shared belief
    fire_stepped: bool
    done: bool


class SurveillanceSim:
    """Mutable episode state; reset() starts a fresh episode in place."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.bins = build_range_bins(config.n_range_bins, config.max_range_m)
        self.grid: FireGrid | None = None
        self.belief: BeliefMap | None = None
        self.aircraft: list[AircraftState] = []
        self.step_index = 0
        self._images: dict = {}

    def reset(self, rng: np.random.Generator) -> None:
        cfg = self.config
        grid = new_grid(cfg.grid_width, cfg.grid_height, cfg.fuel_min, cfg.fuel_max,
                        rng, cfg.cell_size_m)
        if cfg.seed_pattern is not None:
            grid = apply_seed(grid, cfg.seed_pattern)
        # The team starts out knowing only where the fire was ignited, not
        # how far it spread before they arrive.
        belief = BeliefMap.initial(grid.burning, cfg.cell_size_m)
        grid = pre_grow(grid, cfg.pregrow_seconds, cfg.propagation, cfg.wind, rng)

        if cfg.spawn_poses is not None:
            aircraft = list(cfg.spawn_poses)
        else:
            ex, ey = grid.extent
            x = float(rng.uniform(0.0, ex))
            y = float(rng.uniform(0.0, ey))
            headings = rng.uniform(-math.pi, math.pi, size=cfg.n_aircraft)
            aircraft = [AircraftState(x=x, y=y, psi=wrap_angle(float(h)), phi=0.0)
                        for h in headings]

        self.grid = grid
        self.belief = belief
        self.aircraft = aircraft
        self.step_index = 0
        self._images.clear()

    @property
    def done(self) -> bool:
        return self.step_index >= self.config.horizon_steps

    def step(self, actions: list[Action], rng: np.random.Generator) -> StepResult:
        """Advance one 0.1 s decision step for every aircraft."""
        if self.grid is None:
            raise RuntimeError("reset() must be called before step()")
        if len(actions) != len(self.aircraft):
            raise ValueError(f"{len(actions)} actions for {len(self.aircraft)} aircraft")
        cfg = self.config
        self.aircraft = [integrate(apply_action(s, a), cfg.dt)
                         for s, a in zip(self.aircraft, actions)]
        self.step_index += 1
        fire_stepped = False
        if self.step_index % cfg.fire_every_steps == 0:
            self.grid = step_fire(self.grid, cfg.propagation, cfg.wind, rng)
            fire_stepped = True
        self.belief, discovered = update_belief(self.belief, self.grid, self.aircraft)
        self._images.clear()
        return StepResult(aircraft=tuple(self.aircraft), discovered=discovered,
                          fire_stepped=fire_stepped, done=self.done)

    # -- network inputs -----------------------------------------------------

    def peer_indices(self, i: int) -> list[int]:
        return [j for j in range(len(self.aircraft)) if j != i]

    def relative_geometries(self, i: int) -> list[RelativeGeometry]:
        own = self.aircraft[i]
        return [relative_geometry(own, self.aircraft[j]) for j in self.peer_indices(i)]

    def continuous_state(self, i: int, j: int) -> np.ndarray:
        g = relative_geometry(self.aircraft[i], self.aircraft[j])
        return np.array([g.phi_own, g.rho / self.config.rho_scale,
                         g.theta, g.psi_rel, g.phi_other], dtype=np.float32)

    def _once(self, kind: str, i: int, source, make):
        """make(source, state) once per (grid or belief, aircraft i's state)
        pair, both checked by identity; step and reset drop every entry."""
        hit, state = self._images.get((kind, i), (None, None)), self.aircraft[i]
        if hit[0] is not source or hit[1] is not state:
            hit = self._images[kind, i] = (source, state, make(source, state))
        return hit[2]

    def observation(self, i: int):
        """Aircraft i's polar view of the true fire, rendered once per state."""
        return self._once(OBSERVATION, i, self.grid, lambda grid, state: render_observation(
            grid, state, self.bins, self.config.n_angle_bins))

    def observation_image(self, i: int) -> np.ndarray:
        return self.observation(i).values.astype(np.float32)[:, :, None]

    def belief_image(self, i: int) -> np.ndarray:
        return self._once(BELIEF, i, self.belief, ego_belief_image)

    def state_image(self, i: int, approach: str) -> np.ndarray:
        if approach == OBSERVATION:
            return self.observation_image(i)
        if approach == BELIEF:
            return self.belief_image(i)
        raise ValueError(f"unknown approach {approach!r}")

    # -- rewards ------------------------------------------------------------

    def observation_reward(self, i: int) -> float:
        """Dense shaping reward for aircraft i at the current state."""
        cfg = self.config
        obs = self.observation(i)
        total = (fire_distance_penalty(obs, self.bins, cfg.weights)
                 + cold_cells_penalty(obs, self.bins, cfg.weights)
                 + bank_penalty(self.aircraft[i].phi, cfg.weights))
        for g in self.relative_geometries(i):
            total += proximity_penalty(g.rho, cfg.weights)
        return total

    def belief_reward(self, i: int, discovered: int) -> float:
        return belief_reward(discovered, self.relative_geometries(i), self.config.weights)

    def reward(self, i: int, approach: str, discovered: int) -> float:
        if approach == OBSERVATION:
            return self.observation_reward(i)
        if approach == BELIEF:
            return self.belief_reward(i, discovered)
        raise ValueError(f"unknown approach {approach!r}")

    def discovery_score(self, discovered: int) -> float:
        """The evaluation metric's per-step increment (always >= 0)."""
        return self.config.weights.discovery_reward * discovered
