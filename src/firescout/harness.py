"""Scenario files, episode orchestration, suite metrics and artifacts.

A scenario is one JSON document with units spelled out in the field
names. Everything downstream of a (scenario, seed) pair is
deterministic: per-episode random streams are spawned from the master
seed, CSV floats are written with repr so rereads are exact, and no
artifact embeds a timestamp.

Every controller is a policy callable flown by env.play, the same
episode engine that training evaluation uses. The cross-controller
score of an episode is the accumulated discovery reward of the shared
belief map; the per-aircraft reward column logs the reward of the
controller's approach in the CONTROLLERS table.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
from dataclasses import MISSING, astuple, dataclass, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .aircraft import DT, AircraftState
from .dqn import GreedyPolicy, TrainingConfig, mean_stderr, \
    select_action_multi  # noqa: F401 (the benchmark's tracer wraps it here)
from .env import BELIEF, OBSERVATION, SimConfig, SurveillanceSim, play, random_policy
from .fire import ArcSeed, CircularSeed, FireGrid, SeedPattern, TShapeSeed, \
    _seed_cells, burning_channel_u8
from .nn import NetworkConfig, QNetwork, load_weights
from .pgm import write_pgm
from .receding_horizon import RHConfig, RHPolicy
from .sensing import BeliefMap, belief_channels_u8

# Controller -> the approach whose reward its episode CSV logs. A net
# controller also reads that approach's images.
CONTROLLERS = {"observation-net": OBSERVATION, "belief-net": BELIEF,
               "receding-horizon": OBSERVATION, "random": BELIEF}
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

# JSON name -> (attribute path in Scenario, valid values). Types and
# defaults come from the dataclass fields at the end of each path. Valid
# values are an interval, whose ends may name an earlier field, or a
# tuple of choices; intervals also reject NaN and infinities.
_FIELDS = {
    "grid.width_cells": ("sim.grid_width", "[1, inf)"),
    "grid.height_cells": ("sim.grid_height", "[1, inf)"),
    "grid.cell_size_m": ("sim.cell_size_m", "(0, inf)"),
    "grid.fuel_min_steps": ("sim.fuel_min", "[0, inf)"),
    "grid.fuel_max_steps": ("sim.fuel_max", "[grid.fuel_min_steps, inf)"),
    "wind.direction_rad": ("sim.wind.direction", "(-inf, inf)"),
    "wind.strength": ("sim.wind.strength", "[0, inf)"),
    "propagation.burn_rate_fuel_per_step": ("sim.propagation.beta", "(0, inf)"),
    "propagation.ignition_alpha": ("sim.propagation.alpha", "(0, 1]"),
    "propagation.max_offset_cells": ("sim.propagation.max_offset", "[0, inf)"),
    "propagation.step_seconds": ("sim.propagation.step_duration", "(0, inf)"),
    "aircraft_count": ("sim.n_aircraft", "[1, inf)"),
    "pregrow_seconds": ("sim.pregrow_seconds", "[0, inf)"),
    # one decision step up to 2**62 of them, so that SimConfig.horizon_steps fits an int64
    "horizon_seconds": ("sim.horizon_seconds", f"[{DT}, {DT * 2 ** 62!r}]"),
    "observation.n_range_bins": ("sim.n_range_bins", "[2, inf)"),
    "observation.n_angle_bins": ("sim.n_angle_bins", "[1, inf)"),
    "observation.max_range_m": ("sim.max_range_m", "(0, inf)"),
    "reward_weights.lambda1": ("sim.weights.lambda1", "[0, inf)"),
    "reward_weights.lambda2": ("sim.weights.lambda2", "[0, inf)"),
    "reward_weights.lambda3": ("sim.weights.lambda3", "[0, inf)"),
    "reward_weights.lambda4": ("sim.weights.lambda4", "[0, inf)"),
    "reward_weights.r0_m": ("sim.weights.r0", "(0, inf)"),
    "reward_weights.c_m": ("sim.weights.c", "(0, inf)"),
    "reward_weights.lambda_prox_belief": ("sim.weights.lambda_prox_belief", "[0, inf)"),
    "reward_weights.discovery_reward": ("sim.weights.discovery_reward", "[0, inf)"),
    "rho_scale_m": ("sim.rho_scale", "(0, inf)"),
    "controller": ("controller", tuple(CONTROLLERS)),
    "weights_path": ("weights_path", None),
    "receding_horizon.horizon_steps": ("rh.horizon_steps", "[2, inf)"),
    "receding_horizon.execute_steps": ("rh.execute_steps",
                                       "[1, receding_horizon.horizon_steps)"),
    "receding_horizon.restarts": ("rh.restarts", "[1, inf)"),
    "rng_seed": ("seed", "[0, inf)"),
    "snapshot_every_steps": ("snapshot_every_steps", "[1, inf)"),
}
_SECTIONS = {name.split(".")[0] for name in _FIELDS if "." in name}
# RHConfig's sensor fields and weights are copies of the SimConfig ones.
_RH_COPIES = ("weights", "n_range_bins", "n_angle_bins", "max_range_m")
# Seed pattern kind -> (class, JSON name of its size field).
_SEEDS = {"none": (type(None), None), "circular": (CircularSeed, "radius_cells"),
          "t_shape": (TShapeSeed, "arm_cells"), "arc": (ArcSeed, "radius_cells")}
_POSE = {"x_m": "x", "y_m": "y", "psi_rad": "psi", "phi_rad": "phi"}
_hints = functools.cache(get_type_hints)


def _type_and_default(cls, attr: str):
    *owners, leaf = attr.split(".")
    for owner in owners:
        cls = _hints(cls)[owner]
    return _hints(cls)[leaf], {f.name: f.default for f in fields(cls)}[leaf]


def _check(name: str, value, hint, valid, seen: dict):
    """value as hint's type (ints that fit widen to float) inside valid, else ScenarioError."""
    types = get_args(hint) or (hint,)
    if value is None and type(None) in types:
        return None
    if float in types and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) not in types:
        raise ScenarioError(f"{name}: expected {types[0].__name__}, got {value!r}")
    if isinstance(valid, tuple) and value not in valid:
        raise ScenarioError(f"{name}: expected one of {', '.join(valid)}, got {value!r}")
    if isinstance(valid, str):
        lo, hi = (seen[end] if end in seen else float(end) for end in valid[1:-1].split(", "))
        if not ((lo < value if valid[0] == "(" else lo <= value)
                and (value < hi if valid[-1] == ")" else value <= hi)):
            raise ScenarioError(f"{name}: must lie in {valid}, got {value!r}")
    return value


def _object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{name}: expected an object, got {value!r}")
    return value


def _seed_pattern(sp, width: int, height: int) -> SeedPattern | None:
    if sp is MISSING:  # the one default that is no dataclass default
        sp = {"kind": "circular", "center_cell": [width // 2, height // 2], "radius_cells": 2}
    kind = _object("seed_pattern", sp).get("kind")
    if kind not in _SEEDS:
        raise ScenarioError(f"seed_pattern.kind: expected one of {', '.join(_SEEDS)}, "
                            f"got {kind!r}")
    cls, size = _SEEDS[kind]
    expected = {"kind", "center_cell", size} if size else {"kind"}
    if set(sp) != expected:
        raise ScenarioError(f"seed_pattern: a {kind} seed has the fields "
                            f"{', '.join(sorted(expected))}, got {', '.join(sp)}")
    if size is None:
        return None
    center = sp["center_cell"]
    if not isinstance(center, list) or len(center) != 2:
        raise ScenarioError(f"seed_pattern.center_cell: expected [ix, iy], got {center!r}")
    pattern = cls(
        tuple(_check("seed_pattern.center_cell", v, int, None, {}) for v in center),
        _check(f"seed_pattern.{size}", sp[size], int, f"[0, {min(width, height)})", {}))
    off = [c for c in _seed_cells(pattern) if not (0 <= c[0] < width and 0 <= c[1] < height)]
    if off:
        raise ScenarioError(f"seed_pattern.center_cell: the {kind} seed reaches cell "
                            f"{off[0]}, off the {width}x{height} grid")
    return pattern


def _spawn_poses(raw, n_aircraft: int) -> tuple[AircraftState, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != n_aircraft:
        raise ScenarioError(f"spawn_poses: expected a list of {n_aircraft} poses, got {raw!r}")
    poses = []
    for i, pose in enumerate(raw):
        name = f"spawn_poses[{i}]"
        for key in _object(name, pose):
            if key not in _POSE:
                raise ScenarioError(f"unknown field {name}.{key}")
        kw = {}
        for key, attr in _POSE.items():
            hint, default = _type_and_default(AircraftState, attr)
            if key not in pose and default is MISSING:
                raise ScenarioError(f"missing required field {name}.{key}")
            kw[attr] = _check(f"{name}.{key}", pose.get(key, default), hint, "(-inf, inf)", {})
        poses.append(AircraftState(**kw))
    return tuple(poses)


def _build(cls, values: dict):
    return cls(**{k: _build(_hints(cls)[k], v) if isinstance(v, dict) else v
                  for k, v in values.items()})


def scenario_from_dict(data: dict) -> Scenario:
    flat = {}
    for key, value in data.items():
        if key in _SECTIONS:
            flat.update((f"{key}.{k}", v) for k, v in _object(key, value).items())
        elif "." in key:
            raise ScenarioError(f"unknown field {key}")
        else:
            flat[key] = value
    for name in flat:
        if name not in _FIELDS and name not in ("seed_pattern", "spawn_poses"):
            raise ScenarioError(f"unknown field {name}")
    seen, tree = {}, {}
    for name, (attr, valid) in _FIELDS.items():
        hint, default = _type_and_default(Scenario, attr)
        seen[name] = _check(name, flat.get(name, default), hint, valid, seen)
        *owners, leaf = attr.split(".")
        functools.reduce(lambda node, o: node.setdefault(o, {}), owners, tree)[leaf] = seen[name]
    controller, path = seen["controller"], seen["weights_path"]
    if controller in NET_CONTROLLERS and not (path and os.path.exists(path)):
        raise ScenarioError(f"weights_path: controller {controller} needs a weights file, "
                            f"and there is none at {path!r}")
    sim = tree["sim"]
    sim["seed_pattern"] = _seed_pattern(flat.get("seed_pattern", MISSING),
                                        sim["grid_width"], sim["grid_height"])
    sim["spawn_poses"] = _spawn_poses(flat.get("spawn_poses"), sim["n_aircraft"])
    tree["sim"] = sim = _build(SimConfig, sim)
    tree["rh"].update((k, getattr(sim, k)) for k in _RH_COPIES)
    return _build(Scenario, tree)


def scenario_to_dict(sc: Scenario) -> dict:
    out = {}
    for name, (attr, _) in _FIELDS.items():
        section, _, key = name.rpartition(".")
        (out.setdefault(section, {}) if section else out)[key] = \
            functools.reduce(getattr, attr.split("."), sc)
    p = sc.sim.seed_pattern
    kind, size = next((k, s) for k, (cls, s) in _SEEDS.items() if type(p) is cls)
    out["seed_pattern"] = {"kind": kind}
    if p is not None:
        center, extent = astuple(p)
        out["seed_pattern"].update({"center_cell": list(center), size: extent})
    out["spawn_poses"] = None if sc.sim.spawn_poses is None else [
        {key: getattr(a, attr) for key, attr in _POSE.items()} for a in sc.sim.spawn_poses]
    return out


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

def _load_net(path, controller: str) -> QNetwork:
    if path is None:
        raise ScenarioError(f"weights_path: required for {controller}")
    try:
        return load_weights(path)
    except ValueError as e:
        raise ScenarioError(f"weights_path: {e}") from e


def _make_policy(sc: Scenario, net: QNetwork | None):
    """A fresh policy callable for one episode of sc.controller."""
    if sc.controller == "random":
        return random_policy
    if sc.controller == "receding-horizon":
        return RHPolicy(sc.rh, sc.sim.n_aircraft)
    if sc.controller in NET_CONTROLLERS:
        if sc.sim.n_aircraft < 2:
            raise ScenarioError(
                "aircraft_count: network controllers need at least 2 aircraft")
        if net is None:
            net = _load_net(sc.weights_path, sc.controller)
        approach = CONTROLLERS[sc.controller]
        expected = sc.sim.image_shape(approach)
        if net.config.image_shape != expected:
            raise ScenarioError(
                f"weights_path: network input {net.config.image_shape} does not "
                f"match this scenario's {approach} image {expected}")
        return GreedyPolicy(net, approach)
    raise ScenarioError(f"controller: unknown controller {sc.controller!r}")


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
    """One full episode flown by env.play; deterministic for a given
    scenario and rng seed, and every controller sees the same fire, fuel
    and spawn draws.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(sc.seed))
    policy = _make_policy(sc, net)
    approach = CONTROLLERS[sc.controller]
    sim = SurveillanceSim(sc.sim)
    sim.reset(rng)

    record = EpisodeRecord(
        controller=sc.controller, n_aircraft=sc.sim.n_aircraft,
        times_s=[], states=[], rewards=[], discovery=[], cumulative=[],
        total_score=0.0,
        snapshots=[Snapshot(0, sim.grid.copy(), sim.belief.copy())])

    total = 0.0
    for result in play(sim, policy, rng):
        inc = sim.discovery_score(result.discovered)
        total += inc
        record.times_s.append(sim.step_index * DT)
        record.states.append(result.aircraft)
        record.rewards.append(sim.rewards(approach, result.discovered))
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
    nets = []
    for name in controllers:    # each is refused, if at all, before any episode runs
        net = _load_net(sc.weights_path, name) if name in NET_CONTROLLERS else None
        _make_policy(replace(sc, controller=name), net)
        nets.append(net)
    entries = []
    for slot, (name, net) in enumerate(zip(controllers, nets)):
        variant = replace(sc, controller=name)
        scores = []
        for ep, child in enumerate(np.random.SeedSequence(sc.seed).spawn(episodes)):
            record = run_episode(variant, rng=np.random.default_rng(child), net=net)
            scores.append(record.total_score)
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)    # just before the first write
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

def desk_scenario() -> Scenario:
    """Small, minutes-scale setup: 1 km square at 50 m cells, coarse sensor.

    The per-pair ignition strength is scaled by the cell-size ratio so
    the front advances at roughly the same speed in meters as on the
    full-scale 10 m grid.
    """
    return scenario_from_dict({
        "grid": {"width_cells": 20, "height_cells": 20, "cell_size_m": 50.0},
        "propagation": {"ignition_alpha": 0.018},
        "pregrow_seconds": 20.0,
        "horizon_seconds": 60.0,
        "observation": {"n_range_bins": 10, "n_angle_bins": 8},
        "receding_horizon": {"horizon_steps": 60, "execute_steps": 15,
                             "restarts": 3},
    })


def paper_scenario() -> Scenario:
    """Full-scale setup: 1 km square at 10 m cells, 40x30 polar sensor."""
    return scenario_from_dict({})


# profile -> (scenario, NetworkConfig and TrainingConfig fields). Short desk
# episodes and a coarse sensor leave a small action-gap signal, so desk training
# leans on a shorter credit horizon and a replay large enough that nothing is
# ever evicted; capped exploration keeps the buffer from collapsing onto one policy.
_PROFILES = {
    "desk": (desk_scenario,
             dict(conv_stages=2, conv_filters=8, image_dense=(64, 32),
                  continuous_dense=(32, 32), merge_dense=(64,)),
             dict(total_iterations=40_000, gamma=0.9, epsilon_end=0.2, target_update_period=500,
                  prefill=5000, replay_capacity=100_000, eval_episodes=2)),
    "paper": (paper_scenario, {}, dict(total_iterations=1_000_000)),
}
PROFILES = tuple(_PROFILES)


def _profile(profile: str):
    if profile not in _PROFILES:
        raise ScenarioError(f"profile: expected one of {', '.join(PROFILES)}, got {profile!r}")
    return _PROFILES[profile]


def profile_scenario(profile: str) -> Scenario:
    return _profile(profile)[0]()


def profile_net_config(profile: str, approach: str, sim: SimConfig) -> NetworkConfig:
    return NetworkConfig(image_shape=sim.image_shape(approach), **_profile(profile)[1])


def profile_training_config(profile: str, approach: str,
                            total_iterations: int | None = None) -> TrainingConfig:
    cfg = TrainingConfig(approach=approach, **_profile(profile)[2])
    return cfg if total_iterations is None else replace(cfg, total_iterations=total_iterations)


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
