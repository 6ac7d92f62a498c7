"""Episode machinery: fire, aircraft and the shared belief stepped together.

Aircraft decide on one clock, aircraft.DT (0.1 s, 10 Hz). During an
episode the fire advances once every propagation.step_duration / DT
decision steps, rounded and at least 1 (25 for the default 2.5 s fire
step); the belief map refreshes every decision step from all aircraft
positions at once. An episode is a pre-growth phase with no aircraft
followed by a fixed flying horizon of horizon_seconds / DT steps.

The five continuous network inputs for the pair (own, other) are
(phi_own, rho / rho_scale, theta, psi_rel, phi_other). The range is
scaled down so it lands in the same numeric band as the angles; the
divisor is part of the configuration.

Each team state is sensed once: one sample_polar or ego_belief_images
call renders every aircraft, and each ordered pair's relative geometry
is computed once. The network inputs and the rewards (the array reward
code the planner runs too) all read that one result.

play flies every evaluation, suite and render episode. A policy is any
callable (sim, action_rng) -> list[Action], one action per aircraft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aircraft import DT, Action, AircraftState, RelativeGeometry, apply_action, \
    integrate, relative_geometry, wrap_angle
from .fire import FireGrid, PropagationParams, SeedPattern, Wind, apply_seed, \
    new_grid, pre_grow, step_fire
from .rewards import RewardWeights, belief_rewards, observation_rewards
from .rewards import bank_penalty, belief_reward, cold_cells_penalty, \
    fire_distance_penalty, proximity_penalty  # noqa: F401 (the benchmark's tracer wraps them here)
from .sensing import BeliefMap, build_range_bins, ego_belief_images, sample_polar, \
    update_belief
from .sensing import ego_belief_image, \
    render_observation  # noqa: F401 (the benchmark's tracer wraps them here)

OBSERVATION = "observation"
BELIEF = "belief"
N_PAIR_INPUTS = 5    # (phi_own, rho / rho_scale, theta, psi_rel, phi_other)


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
    weights: RewardWeights = RewardWeights()
    rho_scale: float = 100.0
    dt = DT    # s per decision step; a class attribute, so no scenario sets it

    def __post_init__(self):
        if self.n_aircraft < 1:
            raise ValueError("need at least one aircraft")
        if self.spawn_poses is not None and len(self.spawn_poses) != self.n_aircraft:
            raise ValueError(
                f"{len(self.spawn_poses)} spawn poses given for {self.n_aircraft} aircraft")
        if self.horizon_seconds < DT:
            raise ValueError("horizon must be at least one decision step")
        if self.pregrow_seconds < 0:
            raise ValueError("pre-growth time cannot be negative")
        if self.rho_scale <= 0:
            raise ValueError("rho_scale must be positive")

    @property
    def horizon_steps(self) -> int:
        return round(self.horizon_seconds / DT)

    def image_shape(self, approach: str) -> tuple[int, int, int]:
        if approach == OBSERVATION:
            return (self.n_range_bins, self.n_angle_bins, 1)
        if approach == BELIEF:
            return (self.grid_height, self.grid_width, 2)
        raise ValueError(f"unknown approach {approach!r}")


@dataclass
class StepResult:
    aircraft: tuple[AircraftState, ...]
    discovered: int          # burning cells newly added to the shared belief
    done: bool


class SurveillanceSim:
    """Mutable episode state; reset() starts a fresh episode in place."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.bins = build_range_bins(config.n_range_bins, config.max_range_m)
        # decision steps per fire step; round(x, 0) stays a float, so a fire
        # step too long to count in steps just never comes
        self.fire_every = max(1.0, round(config.propagation.step_duration / DT, 0))
        self.grid: FireGrid | None = None
        self.belief: BeliefMap | None = None
        self.aircraft: list[AircraftState] = []
        self.step_index = 0
        self._cache: dict = {}

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
        self._cache.clear()

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
        self.aircraft = [integrate(apply_action(s, a), DT)
                         for s, a in zip(self.aircraft, actions)]
        self.step_index += 1
        if self.step_index % self.fire_every == 0:
            self.grid = step_fire(self.grid, cfg.propagation, cfg.wind, rng)
        self.belief, discovered = update_belief(self.belief, self.grid, self.aircraft)
        self._cache.clear()
        return StepResult(aircraft=tuple(self.aircraft), discovered=discovered,
                          done=self.done)

    # -- network inputs -----------------------------------------------------

    def peer_indices(self, i: int) -> list[int]:
        return [j for j in range(len(self.aircraft)) if j != i]

    def _per_state(self, kind: str, source, make):
        """make(states) once per (grid or belief, team state) pair, both
        checked by identity; step and reset drop every entry."""
        states = tuple(self.aircraft)
        hit = self._cache.get(kind)
        if (hit is None or hit[0] is not source or len(hit[1]) != len(states)
                or any(a is not b for a, b in zip(hit[1], states))):
            hit = self._cache[kind] = (source, states, make(states))
        return hit[2]

    def _observations(self):
        """(sample_polar flags (n, n_range, n_angle), network images)."""
        def observe(states):
            values = sample_polar(self.grid, [s.x for s in states], [s.y for s in states],
                                  [s.psi for s in states], self.bins, self.config.n_angle_bins)
            return values, values[..., None].astype(np.float32)
        return self._per_state(OBSERVATION, self.grid, observe)

    def team_images(self, approach: str) -> np.ndarray:
        """Every aircraft's network image, shape (n, h, w, c) float32."""
        if approach == OBSERVATION:
            return self._observations()[1]
        if approach == BELIEF:
            return self._per_state(BELIEF, self.belief,
                                   lambda states: ego_belief_images(self.belief, states))
        raise ValueError(f"unknown approach {approach!r}")

    def state_image(self, i: int, approach: str) -> np.ndarray:
        """Aircraft i's row of team_images."""
        return self.team_images(approach)[i]

    def pair_geometries(self) -> list[list[RelativeGeometry]]:
        """Row i: relative_geometry(aircraft i, peer j) for j in peer_indices(i)."""
        return self._per_state("pairs", None, lambda states: [
            [relative_geometry(states[i], states[j]) for j in self.peer_indices(i)]
            for i in range(len(states))])

    def pair_inputs(self) -> np.ndarray:
        """The network's continuous inputs, shape (n, n - 1, N_PAIR_INPUTS)
        float32, in pair_geometries order."""
        def inputs(states):
            rows = [[(g.phi_own, g.rho / self.config.rho_scale, g.theta, g.psi_rel,
                      g.phi_other) for g in row] for row in self.pair_geometries()]
            n = len(states)
            return np.array(rows, dtype=np.float32).reshape(n, n - 1, N_PAIR_INPUTS)
        return self._per_state("pair_inputs", None, inputs)

    # -- rewards ------------------------------------------------------------

    def rewards(self, approach: str, discovered: int) -> tuple[float, ...]:
        """Every aircraft's reward under approach at the current state."""
        w = self.config.weights
        peer_rho = np.array([[g.rho for g in row] for row in self.pair_geometries()])
        peer_rho = peer_rho.reshape(len(self.aircraft), len(self.aircraft) - 1)
        if approach == OBSERVATION:
            phi = np.array([s.phi for s in self.aircraft])
            out = observation_rewards(self._observations()[0], phi, peer_rho, self.bins, w)
        elif approach == BELIEF:
            out = belief_rewards(discovered, peer_rho, w)
        else:
            raise ValueError(f"unknown approach {approach!r}")
        return tuple(out.tolist())

    # The benchmark's tracer wraps these two by name.
    def observation_reward(self, i: int) -> float:
        return self.rewards(OBSERVATION, 0)[i]

    def belief_reward(self, i: int, discovered: int) -> float:
        return self.rewards(BELIEF, discovered)[i]

    def discovery_score(self, discovered: int) -> float:
        """The evaluation metric's per-step increment (always >= 0)."""
        return self.config.weights.discovery_reward * discovered


def play(sim: SurveillanceSim, policy, rng: np.random.Generator):
    """Fly the episode sim was reset to, yielding each StepResult. The
    policy draws from a stream spawned from rng; spawning draws nothing,
    so every policy sees the same fire, fuel and spawn draws."""
    action_rng = rng.spawn(1)[0]
    while not sim.done:
        yield sim.step(policy(sim, action_rng), rng)


def random_policy(sim: SurveillanceSim, action_rng: np.random.Generator) -> list[Action]:
    """Each aircraft banks left or right uniformly at random."""
    return [Action(int(a)) for a in action_rng.integers(2, size=len(sim.aircraft))]
