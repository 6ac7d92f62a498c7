"""Scenario files, episode orchestration, suite metrics and artifacts.

A scenario is one JSON document with units spelled out in the field
names. Everything downstream of a (scenario, seed) pair is
deterministic: per-episode random streams are spawned from the master
seed, CSV floats are written with repr so rereads are exact, and no
artifact embeds a timestamp.

The cross-controller score of an episode is the accumulated discovery
reward of the shared belief map; the per-aircraft reward column logs
whatever quantity the flying controller itself optimizes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .aircraft import Action, AircraftState
from .dqn import TrainingConfig, _greedy_actions, mean_stderr, \
    select_action_multi  # noqa: F401 (the benchmark's tracer wraps it here)
from .env import BELIEF, OBSERVATION, SimConfig, SurveillanceSim
from .fire import ArcSeed, CircularSeed, FireGrid, PropagationParams, \
    SeedPattern, TShapeSeed, Wind, burning_channel_u8
from .nn import NetworkConfig, QNetwork, load_weights
from .pgm import write_pgm
from .receding_horizon import RHConfig, RHController, rh_step
from .rewards import RewardWeights
from .sensing import BeliefMap, belief_channels_u8

CONTROLLERS = ("observation-net", "belief-net", "receding-horizon", "random")
NET_CONTROLLERS = ("observation-net", "belief-net")


class ScenarioError(ValueError):
    """Bad scenario configuration; the message names the field at fault."""


@dataclass(frozen=True)
class Scenario:
    sim: SimConfig
    controller: str = "random"
    weights_path: str | None = None
    rh: RHConfig = RHConfig()
    seed: int = 0
    snapshot_every_steps: int | None = None


# -- parsing ----------------------------------------------------------------

_MISSING = object()


def _take(d: dict, key: str, path: str, default=_MISSING):
    if key in d:
        return d.pop(key)
    if default is _MISSING:
        raise ScenarioError(f"missing required field {path}{key}")
    return default


def _no_extra(d: dict, path: str) -> None:
    if d:
        raise ScenarioError(f"unknown field {path}{next(iter(d))}")


def _parse_seed_pattern(sp, path: str) -> SeedPattern | None:
    if sp is None:
        return None
    sp = dict(sp)
    kind = _take(sp, "kind", path)
    if kind == "none":
        _no_extra(sp, path)
        return None
    center = tuple(int(v) for v in _take(sp, "center_cell", path))
    if len(center) != 2:
        raise ScenarioError(f"{path}center_cell must be [ix, iy]")
    if kind == "circular":
        out = CircularSeed(center=center, radius=int(_take(sp, "radius_cells", path)))
    elif kind == "t_shape":
        out = TShapeSeed(center=center, arm=int(_take(sp, "arm_cells", path)))
    elif kind == "arc":
        out = ArcSeed(center=center, radius=int(_take(sp, "radius_cells", path)))
    else:
        raise ScenarioError(f"{path}kind: unknown seed pattern {kind!r}")
    _no_extra(sp, path)
    return out


def _seed_pattern_dict(p: SeedPattern | None) -> dict:
    if p is None:
        return {"kind": "none"}
    if isinstance(p, CircularSeed):
        return {"kind": "circular", "center_cell": list(p.center), "radius_cells": p.radius}
    if isinstance(p, TShapeSeed):
        return {"kind": "t_shape", "center_cell": list(p.center), "arm_cells": p.arm}
    if isinstance(p, ArcSeed):
        return {"kind": "arc", "center_cell": list(p.center), "radius_cells": p.radius}
    raise TypeError(f"unknown seed pattern {p!r}")


def scenario_from_dict(data: dict) -> Scenario:
    d = dict(data)

    grid = dict(_take(d, "grid", "", {}))
    width = int(_take(grid, "width_cells", "grid.", 100))
    height = int(_take(grid, "height_cells", "grid.", 100))
    cell_size = float(_take(grid, "cell_size_m", "grid.", 10.0))
    if not 0.0 < cell_size < float("inf"):
        raise ScenarioError(f"grid.cell_size_m: must be positive and finite, got {cell_size}")
    fuel_min = float(_take(grid, "fuel_min_steps", "grid.", 15.0))
    fuel_max = float(_take(grid, "fuel_max_steps", "grid.", 20.0))
    _no_extra(grid, "grid.")

    default_seed = {"kind": "circular",
                    "center_cell": [width // 2, height // 2],
                    "radius_cells": 2}
    pattern = _parse_seed_pattern(_take(d, "seed_pattern", "", default_seed),
                                  "seed_pattern.")

    wind = dict(_take(d, "wind", "", {}))
    wind_obj = Wind(direction=float(_take(wind, "direction_rad", "wind.", 0.0)),
                    strength=float(_take(wind, "strength", "wind.", 0.0)))
    _no_extra(wind, "wind.")

    prop = dict(_take(d, "propagation", "", {}))
    try:
        prop_obj = PropagationParams(
            beta=float(_take(prop, "burn_rate_fuel_per_step", "propagation.", 1.0)),
            alpha=float(_take(prop, "ignition_alpha", "propagation.", 0.09)),
            max_offset=int(_take(prop, "max_offset_cells", "propagation.", 2)),
            step_duration=float(_take(prop, "step_seconds", "propagation.", 2.5)))
    except ValueError as e:
        raise ScenarioError(f"propagation: {e}") from e
    _no_extra(prop, "propagation.")

    n_aircraft = int(_take(d, "aircraft_count", "", 2))
    raw_poses = _take(d, "spawn_poses", "", None)
    poses = None
    if raw_poses is not None:
        poses = []
        for i, rp in enumerate(raw_poses):
            rp = dict(rp)
            path = f"spawn_poses[{i}]."
            poses.append(AircraftState(
                x=float(_take(rp, "x_m", path)),
                y=float(_take(rp, "y_m", path)),
                psi=float(_take(rp, "psi_rad", path, 0.0)),
                phi=float(_take(rp, "phi_rad", path, 0.0))))
            _no_extra(rp, path)
        poses = tuple(poses)

    pregrow = float(_take(d, "pregrow_seconds", "", 30.0))
    horizon = float(_take(d, "horizon_seconds", "", 100.0))

    obs = dict(_take(d, "observation", "", {}))
    n_range = int(_take(obs, "n_range_bins", "observation.", 40))
    if n_range < 2:
        raise ScenarioError(f"observation.n_range_bins: need at least 2, got {n_range}")
    n_angle = int(_take(obs, "n_angle_bins", "observation.", 30))
    max_range = float(_take(obs, "max_range_m", "observation.", 500.0))
    _no_extra(obs, "observation.")

    rw = dict(_take(d, "reward_weights", "", {}))
    try:
        weights = RewardWeights(
            lambda1=float(_take(rw, "lambda1", "reward_weights.", 0.02)),
            lambda2=float(_take(rw, "lambda2", "reward_weights.", 0.02)),
            lambda3=float(_take(rw, "lambda3", "reward_weights.", 0.5)),
            lambda4=float(_take(rw, "lambda4", "reward_weights.", 2.0)),
            r0=float(_take(rw, "r0_m", "reward_weights.", 60.0)),
            c=float(_take(rw, "c_m", "reward_weights.", 100.0)),
            lambda_prox_belief=float(_take(rw, "lambda_prox_belief",
                                           "reward_weights.", 0.1)),
            discovery_reward=float(_take(rw, "discovery_reward",
                                         "reward_weights.", 1.0)))
    except ValueError as e:
        raise ScenarioError(f"reward_weights: {e}") from e
    _no_extra(rw, "reward_weights.")

    rho_scale = float(_take(d, "rho_scale_m", "", 100.0))

    controller = str(_take(d, "controller", "", "random"))
    if controller not in CONTROLLERS:
        raise ScenarioError(
            f"controller: expected one of {', '.join(CONTROLLERS)}, got {controller!r}")
    weights_path = _take(d, "weights_path", "", None)
    if controller in NET_CONTROLLERS:
        if weights_path is None:
            raise ScenarioError(f"weights_path: required for controller {controller}")
        if not os.path.exists(weights_path):
            raise ScenarioError(f"weights_path: no such file {weights_path!r}")

    rhd = dict(_take(d, "receding_horizon", "", {}))
    try:
        rh = RHConfig(
            horizon_steps=int(_take(rhd, "horizon_steps", "receding_horizon.", 50)),
            execute_steps=int(_take(rhd, "execute_steps", "receding_horizon.", 10)),
            restarts=int(_take(rhd, "restarts", "receding_horizon.", 10)),
            weights=weights, n_range_bins=n_range, n_angle_bins=n_angle,
            max_range_m=max_range)
    except ValueError as e:
        raise ScenarioError(f"receding_horizon: {e}") from e
    _no_extra(rhd, "receding_horizon.")

    seed = int(_take(d, "rng_seed", "", 0))
    snap = _take(d, "snapshot_every_steps", "", None)
    snap = None if snap is None else int(snap)
    _no_extra(d, "")

    if n_aircraft < 1:
        raise ScenarioError("aircraft_count: must be at least 1")
    if horizon <= 0:
        raise ScenarioError("horizon_seconds: must be positive")
    try:
        sim = SimConfig(
            grid_width=width, grid_height=height, cell_size_m=cell_size,
            fuel_min=fuel_min, fuel_max=fuel_max, seed_pattern=pattern,
            wind=wind_obj, propagation=prop_obj, n_aircraft=n_aircraft,
            spawn_poses=poses, pregrow_seconds=pregrow, horizon_seconds=horizon,
            n_range_bins=n_range, n_angle_bins=n_angle, max_range_m=max_range,
            weights=weights, rho_scale=rho_scale)
    except ValueError as e:
        raise ScenarioError(str(e)) from e
    return Scenario(sim=sim, controller=controller, weights_path=weights_path,
                    rh=rh, seed=seed, snapshot_every_steps=snap)


def scenario_to_dict(sc: Scenario) -> dict:
    sim = sc.sim
    poses = None
    if sim.spawn_poses is not None:
        poses = [{"x_m": a.x, "y_m": a.y, "psi_rad": a.psi, "phi_rad": a.phi}
                 for a in sim.spawn_poses]
    return {
        "grid": {
            "width_cells": sim.grid_width,
            "height_cells": sim.grid_height,
            "cell_size_m": sim.cell_size_m,
            "fuel_min_steps": sim.fuel_min,
            "fuel_max_steps": sim.fuel_max,
        },
        "seed_pattern": _seed_pattern_dict(sim.seed_pattern),
        "wind": {"direction_rad": sim.wind.direction, "strength": sim.wind.strength},
        "propagation": {
            "burn_rate_fuel_per_step": sim.propagation.beta,
            "ignition_alpha": sim.propagation.alpha,
            "max_offset_cells": sim.propagation.max_offset,
            "step_seconds": sim.propagation.step_duration,
        },
        "aircraft_count": sim.n_aircraft,
        "spawn_poses": poses,
        "pregrow_seconds": sim.pregrow_seconds,
        "horizon_seconds": sim.horizon_seconds,
        "observation": {
            "n_range_bins": sim.n_range_bins,
            "n_angle_bins": sim.n_angle_bins,
            "max_range_m": sim.max_range_m,
        },
        "reward_weights": {
            "lambda1": sim.weights.lambda1,
            "lambda2": sim.weights.lambda2,
            "lambda3": sim.weights.lambda3,
            "lambda4": sim.weights.lambda4,
            "r0_m": sim.weights.r0,
            "c_m": sim.weights.c,
            "lambda_prox_belief": sim.weights.lambda_prox_belief,
            "discovery_reward": sim.weights.discovery_reward,
        },
        "rho_scale_m": sim.rho_scale,
        "controller": sc.controller,
        "weights_path": sc.weights_path,
        "receding_horizon": {
            "horizon_steps": sc.rh.horizon_steps,
            "execute_steps": sc.rh.execute_steps,
            "restarts": sc.rh.restarts,
        },
        "rng_seed": sc.seed,
        "snapshot_every_steps": sc.snapshot_every_steps,
    }


def load_scenario(path) -> Scenario:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ScenarioError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(data)


def save_scenario(path, sc: Scenario) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(sc), f, indent=2, sort_keys=True)
        f.write("\n")


# -- controllers ------------------------------------------------------------

class _RandomPolicy:
    def start(self, sim: SurveillanceSim, action_rng) -> None:
        pass

    def actions(self, sim: SurveillanceSim, action_rng) -> list[Action]:
        return [Action(int(a)) for a in action_rng.integers(2, size=len(sim.aircraft))]


class _NetPolicy:
    def __init__(self, net: QNetwork, approach: str):
        self.net = net
        self.approach = approach

    def start(self, sim, action_rng) -> None:
        if len(sim.aircraft) < 2:
            raise ScenarioError(
                "aircraft_count: network controllers need at least 2 aircraft")

    def actions(self, sim: SurveillanceSim, action_rng) -> list[Action]:
        return _greedy_actions(self.net, sim, self.approach)


class _RHPolicy:
    def __init__(self, cfg: RHConfig):
        self.cfg = cfg
        self.controllers: list[RHController] = []

    def start(self, sim, action_rng) -> None:
        self.controllers = [RHController() for _ in sim.aircraft]

    def actions(self, sim: SurveillanceSim, action_rng) -> list[Action]:
        out = []
        for i, ctrl in enumerate(self.controllers):
            peers = [sim.aircraft[j] for j in sim.peer_indices(i)]
            out.append(rh_step(ctrl, sim.grid, sim.aircraft[i], peers,
                               self.cfg, action_rng))
        return out


def _make_policy(sc: Scenario, net: QNetwork | None):
    if sc.controller == "random":
        return _RandomPolicy()
    if sc.controller == "receding-horizon":
        return _RHPolicy(sc.rh)
    if sc.controller in NET_CONTROLLERS:
        if net is None:
            if sc.weights_path is None:
                raise ScenarioError(f"weights_path: required for {sc.controller}")
            net = load_weights(sc.weights_path)
        approach = OBSERVATION if sc.controller == "observation-net" else BELIEF
        expected = sc.sim.image_shape(approach)
        if net.config.image_shape != expected:
            raise ScenarioError(
                f"weights_path: network input {net.config.image_shape} does not "
                f"match this scenario's {approach} image {expected}")
        return _NetPolicy(net, approach)
    raise ScenarioError(f"controller: unknown controller {sc.controller!r}")


def _policy_reward(sim: SurveillanceSim, controller: str, i: int,
                   discovered: int) -> float:
    if controller in ("observation-net", "receding-horizon"):
        return sim.observation_reward(i)
    return sim.belief_reward(i, discovered)


# -- episodes ---------------------------------------------------------------

@dataclass
class Snapshot:
    step: int
    grid: FireGrid
    belief: BeliefMap


@dataclass
class EpisodeRecord:
    controller: str
    n_aircraft: int
    times_s: list[float]
    states: list[tuple[AircraftState, ...]]
    rewards: list[tuple[float, ...]]
    discovery: list[float]
    cumulative: list[float]
    total_score: float
    snapshots: list[Snapshot]


def run_episode(sc: Scenario, rng: np.random.Generator | None = None,
                net: QNetwork | None = None) -> EpisodeRecord:
    """One full episode; deterministic for a given scenario and rng seed.

    The side stream for controller randomness is spawned before the
    environment consumes anything, so every controller sees the same
    fire, fuel and spawn draws.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(sc.seed))
    policy = _make_policy(sc, net)
    action_rng = rng.spawn(1)[0]
    sim = SurveillanceSim(sc.sim)
    sim.reset(rng)
    policy.start(sim, action_rng)

    record = EpisodeRecord(
        controller=sc.controller, n_aircraft=sc.sim.n_aircraft,
        times_s=[], states=[], rewards=[], discovery=[], cumulative=[],
        total_score=0.0,
        snapshots=[Snapshot(0, sim.grid.copy(), sim.belief.copy())])

    total = 0.0
    while not sim.done:
        acts = policy.actions(sim, action_rng)
        result = sim.step(acts, rng)
        step_rewards = tuple(_policy_reward(sim, sc.controller, i, result.discovered)
                             for i in range(len(sim.aircraft)))
        inc = sim.discovery_score(result.discovered)
        total += inc
        record.times_s.append(sim.step_index * sc.sim.dt)
        record.states.append(result.aircraft)
        record.rewards.append(step_rewards)
        record.discovery.append(inc)
        record.cumulative.append(total)
        if (sc.snapshot_every_steps is not None
                and sim.step_index % sc.snapshot_every_steps == 0):
            record.snapshots.append(Snapshot(sim.step_index, sim.grid.copy(),
                                             sim.belief.copy()))
    record.total_score = total
    return record


def write_episode_csv(path, record: EpisodeRecord) -> None:
    n = record.n_aircraft
    header = ["step", "t_s"]
    for i in range(n):
        header += [f"x{i}_m", f"y{i}_m", f"psi{i}_rad", f"phi{i}_rad", f"reward{i}"]
    header += ["discovery_reward", "cumulative_score"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for k in range(len(record.times_s)):
            row = [k + 1, repr(record.times_s[k])]
            for i in range(n):
                a = record.states[k][i]
                row += [repr(a.x), repr(a.y), repr(a.psi), repr(a.phi),
                        repr(record.rewards[k][i])]
            row += [repr(record.discovery[k]), repr(record.cumulative[k])]
            writer.writerow(row)


# -- suites -----------------------------------------------------------------

@dataclass(frozen=True)
class SuiteEntry:
    controller: str
    episodes: int
    mean: float
    stderr: float


def run_suite(sc: Scenario, episodes: int, controllers: list[str] | None = None,
              out_dir=None) -> list[SuiteEntry]:
    """Score one or more controllers over a shared set of seeded episodes.

    Every controller replays the same per-episode random streams (spawned
    from the scenario's master seed), so entries differ only through the
    controllers' choices. Per-episode CSVs land in out_dir when given.
    """
    if episodes < 2:
        raise ScenarioError(f"episodes: a suite needs at least 2, got {episodes}")
    if controllers is None:
        controllers = [sc.controller]
    for name in controllers:
        if name not in CONTROLLERS:
            raise ScenarioError(f"controller: unknown controller {name!r}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    entries = []
    for slot, name in enumerate(controllers):
        variant = replace(sc, controller=name)
        net = None
        if name in NET_CONTROLLERS:
            if sc.weights_path is None:
                raise ScenarioError(f"weights_path: required for {name}")
            net = load_weights(sc.weights_path)
        scores = []
        for ep, child in enumerate(np.random.SeedSequence(sc.seed).spawn(episodes)):
            record = run_episode(variant, rng=np.random.default_rng(child), net=net)
            scores.append(record.total_score)
            if out_dir is not None:
                write_episode_csv(
                    os.path.join(out_dir, f"{slot}_{name}_ep{ep:03d}.csv"), record)
        mean, stderr = mean_stderr(scores)
        entries.append(SuiteEntry(controller=name, episodes=episodes,
                                  mean=mean, stderr=stderr))
    if out_dir is not None:
        write_summary_csv(os.path.join(out_dir, "summary.csv"), entries)
    return entries


def write_summary_csv(path, entries: list[SuiteEntry]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["controller", "episodes", "mean_score", "stderr"])
        for e in entries:
            writer.writerow([e.controller, e.episodes, repr(e.mean), repr(e.stderr)])


# -- profiles ---------------------------------------------------------------

PROFILES = ("desk", "paper")


def desk_scenario() -> Scenario:
    """Small, minutes-scale setup: 1 km square at 50 m cells, coarse sensor.

    The per-pair ignition strength is scaled by the cell-size ratio so
    the front advances at roughly the same speed in meters as on the
    full-scale 10 m grid.
    """
    return scenario_from_dict({
        "grid": {"width_cells": 20, "height_cells": 20, "cell_size_m": 50.0,
                 "fuel_min_steps": 15.0, "fuel_max_steps": 20.0},
        "seed_pattern": {"kind": "circular", "center_cell": [10, 10],
                         "radius_cells": 2},
        "propagation": {"ignition_alpha": 0.018},
        "pregrow_seconds": 20.0,
        "horizon_seconds": 60.0,
        "observation": {"n_range_bins": 10, "n_angle_bins": 8,
                        "max_range_m": 500.0},
        "receding_horizon": {"horizon_steps": 60, "execute_steps": 15,
                             "restarts": 3},
    })


def paper_scenario() -> Scenario:
    """Full-scale setup: 1 km square at 10 m cells, 40x30 polar sensor."""
    return scenario_from_dict({})


def profile_scenario(profile: str) -> Scenario:
    if profile == "desk":
        return desk_scenario()
    if profile == "paper":
        return paper_scenario()
    raise ScenarioError(f"profile: expected one of {', '.join(PROFILES)}, got {profile!r}")


def profile_net_config(profile: str, approach: str, sim: SimConfig) -> NetworkConfig:
    image_shape = sim.image_shape(approach)
    if profile == "paper":
        return NetworkConfig(image_shape=image_shape)
    if profile == "desk":
        return NetworkConfig(image_shape=image_shape, conv_stages=2, conv_filters=8,
                             image_dense=(64, 32), continuous_dense=(32, 32),
                             merge_dense=(64,))
    raise ScenarioError(f"profile: expected one of {', '.join(PROFILES)}, got {profile!r}")


def profile_training_config(profile: str, approach: str,
                            total_iterations: int | None = None) -> TrainingConfig:
    if profile == "paper":
        return TrainingConfig(
            total_iterations=1_000_000 if total_iterations is None else total_iterations,
            approach=approach)
    if profile == "desk":
        # Short episodes and a coarse sensor leave a small action-gap
        # signal, so the desk runs lean on a shorter credit horizon and
        # a replay large enough that nothing is ever evicted; capped
        # exploration keeps the buffer from collapsing onto one policy.
        return TrainingConfig(
            total_iterations=40_000 if total_iterations is None else total_iterations,
            approach=approach, gamma=0.9, epsilon_end=0.2,
            target_update_period=500, prefill=5000,
            replay_capacity=100_000, eval_episodes=2)
    raise ScenarioError(f"profile: expected one of {', '.join(PROFILES)}, got {profile!r}")


# -- rendering --------------------------------------------------------------

_PATH_COLORS = ("#1f78b4", "#33a02c", "#6a3d9a", "#ff7f00")


def render_record(record: EpisodeRecord, sc: Scenario, out_dir) -> list[str]:
    """Write PGM rasters per snapshot plus one SVG trajectory overlay.

    Returns the paths written, in order. A record with no steps yields
    just the initial snapshot and an overlay without track lines.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for snap in record.snapshots:
        fire_u8 = burning_channel_u8(snap.grid)
        belief_u8, stale_u8 = belief_channels_u8(snap.belief)
        for tag, img in (("fire", fire_u8), ("belief", belief_u8),
                         ("staleness", stale_u8)):
            path = os.path.join(out_dir, f"step{snap.step:05d}_{tag}.pgm")
            write_pgm(path, img)
            written.append(path)
    svg_path = os.path.join(out_dir, "trajectories.svg")
    _write_trajectory_svg(svg_path, record, sc)
    written.append(svg_path)
    return written


def _write_trajectory_svg(path, record: EpisodeRecord, sc: Scenario) -> None:
    cs = sc.sim.cell_size_m
    ex = sc.sim.grid_width * cs
    ey = sc.sim.grid_height * cs
    final = record.snapshots[-1]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        f'viewBox="0 0 {ex:.1f} {ey:.1f}">',
        f'  <rect x="0" y="0" width="{ex:.1f}" height="{ey:.1f}" fill="#f5f0e6"/>',
    ]
    iy, ix = np.nonzero(final.grid.burning)
    for y, x in zip(iy.tolist(), ix.tolist()):
        # SVG y runs down the page; the world's north is up.
        lines.append(f'  <rect x="{x * cs:.1f}" y="{ey - (y + 1) * cs:.1f}" '
                     f'width="{cs:.1f}" height="{cs:.1f}" fill="#d73027"/>')
    for i in range(record.n_aircraft):
        color = _PATH_COLORS[i % len(_PATH_COLORS)]
        pts = " ".join(f"{s[i].x:.2f},{ey - s[i].y:.2f}" for s in record.states)
        if pts:
            lines.append(f'  <polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="{cs * 0.2:.2f}"/>')
        if record.states:
            x0, y0 = record.states[0][i].x, record.states[0][i].y
            lines.append(f'  <circle cx="{x0:.2f}" cy="{ey - y0:.2f}" '
                         f'r="{cs * 0.4:.2f}" fill="{color}"/>')
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
