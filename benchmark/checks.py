"""Output checks: properties of the method, or values recomputed here.

Each check returns a list of failure messages; an empty list is a pass.
None compares against stored output: training curves are checked against
the epsilon schedule and score bounds, episodes against the kinematics,
and receding-horizon plans against a fresh scalar scoring.
"""

from __future__ import annotations

import math

import numpy as np

from firescout.aircraft import SPEED, apply_action, integrate, relative_geometry
from firescout.nn import load_weights, save_weights
from firescout.rewards import bank_penalty, cold_cells_penalty, \
    fire_distance_penalty, proximity_penalty
from firescout.sensing import build_range_bins, render_observation

BANK_STEP = math.radians(5.0)
BANK_LIMIT = math.radians(50.0)
CHORD_SLACK = 1e-3    # a 0.1 s arc at full bank is 1.4e-4 shorter than its length
FP_SLACK = 1e-12
SCORE_RTOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FP_SLACK, abs_tol=FP_SLACK)


def linear_epsilon(iteration: int, cfg) -> float:
    """Linear ramp from epsilon_start to epsilon_end, then flat."""
    decay = cfg.epsilon_decay_iters
    if decay is None:
        decay = max(1, cfg.total_iterations // 2)
    if iteration >= decay:
        return cfg.epsilon_end
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * (iteration / decay)


def check_curve(curve, cfg, sim) -> list[str]:
    """Iterations from 0 to the last, epsilon on the linear schedule,
    scores within [0, cells x discovery_reward], losses finite and >= 0.
    """
    out = []
    if not curve:
        return ["training curve is empty"]
    its = [p.iteration for p in curve]
    if its[0] != 0 or its[-1] != cfg.total_iterations:
        out.append(f"curve runs {its[0]}..{its[-1]}, expected 0..{cfg.total_iterations}")
    if any(b <= a for a, b in zip(its, its[1:])):
        out.append(f"curve iterations not increasing: {its}")
    top = sim.grid_width * sim.grid_height * sim.weights.discovery_reward
    for p in curve:
        want = linear_epsilon(p.iteration, cfg)
        if not _close(p.epsilon, want):
            out.append(f"iteration {p.iteration}: epsilon {p.epsilon!r}, schedule gives {want!r}")
        if not 0.0 <= p.mean_reward <= top:
            out.append(f"iteration {p.iteration}: score {p.mean_reward!r} outside [0, {top}]")
        if p.iteration > 0 and not (math.isfinite(p.loss) and p.loss >= 0.0):
            out.append(f"iteration {p.iteration}: loss {p.loss!r} not finite and >= 0")
    return out


def check_network(net, initial, path) -> list[str]:
    """Finite parameters, moved from the initial network, and a bit-exact
    save_weights -> load_weights round trip (written to path).
    """
    out = []
    params = net.parameters()
    if not all(np.isfinite(p).all() for p in params):
        out.append("trained network has non-finite parameters")
    if all(np.array_equal(p, q) for p, q in zip(params, initial.parameters())):
        out.append("trained network equals its initial network")
    save_weights(net, path)
    back = load_weights(path).parameters()
    if len(back) != len(params) or any(
            p.shape != q.shape or p.tobytes() != q.tobytes() for p, q in zip(params, back)):
        out.append("save_weights -> load_weights does not round-trip bit for bit")
    return out


def check_episode(record, sim) -> list[str]:
    """Cumulative score is the running sum of the discovery increments;
    each step moves v*dt along an arc; the bank stays within the limit and
    moves one 5-degree notch per step unless it sits at the limit.
    """
    out = []
    running = 0.0
    for k, (inc, cum) in enumerate(zip(record.discovery, record.cumulative)):
        running += inc
        if inc < 0 or not _close(cum, running):
            out.append(f"step {k + 1}: cumulative {cum!r} != running sum {running!r}")
            break
    if record.cumulative and not _close(record.total_score, record.cumulative[-1]):
        out.append(f"total {record.total_score!r} != last cumulative {record.cumulative[-1]!r}")
    top = sim.grid_width * sim.grid_height * sim.weights.discovery_reward
    if not 0.0 <= record.total_score <= top:
        out.append(f"episode score {record.total_score!r} outside [0, {top}]")

    reach = SPEED * sim.dt
    for k in range(1, len(record.states)):
        for i, (a, b) in enumerate(zip(record.states[k - 1], record.states[k])):
            d = math.hypot(b.x - a.x, b.y - a.y)
            if not reach * (1.0 - CHORD_SLACK) <= d <= reach * (1.0 + FP_SLACK):
                out.append(f"step {k + 1} aircraft {i}: moved {d!r} m, expected ~{reach} m")
            if abs(b.phi) > BANK_LIMIT + FP_SLACK:
                out.append(f"step {k + 1} aircraft {i}: bank {b.phi!r} beyond the limit")
            notch = abs(abs(b.phi - a.phi) - BANK_STEP) <= 1e-9
            clamped = (abs(abs(b.phi) - BANK_LIMIT) <= FP_SLACK
                       and abs(b.phi - a.phi) <= BANK_STEP + 1e-9)
            if not (notch or clamped):
                out.append(f"step {k + 1} aircraft {i}: bank moved {b.phi - a.phi!r} rad")
        if len(out) > 10:
            break
    return out


def fresh_plan_score(grid, start, plan, peers, rh_cfg) -> float:
    """Fly the plan with integrate, render every state, and add the scalar
    reward terms against peers frozen where they are.
    """
    bins = build_range_bins(rh_cfg.n_range_bins, rh_cfg.max_range_m)
    w = rh_cfg.weights
    total = 0.0
    state = start
    for action in plan:
        state = integrate(apply_action(state, action), rh_cfg.dt)
        obs = render_observation(grid, state, bins, rh_cfg.n_angle_bins)
        r = (fire_distance_penalty(obs, bins, w) + cold_cells_penalty(obs, bins, w)
             + bank_penalty(state.phi, w))
        for p in peers:
            r += proximity_penalty(relative_geometry(state, p).rho, w)
        total += r
    return total


def check_plan(grid, start, peers, rh_cfg, plan, score) -> list[str]:
    """The planner's score matches a fresh scoring, and no single flip of
    the plan scores higher (coordinate descent ends in a local optimum).
    """
    out = []
    fresh = fresh_plan_score(grid, start, plan, peers, rh_cfg)
    tol = SCORE_RTOL * max(1.0, abs(fresh))
    if abs(fresh - score) > tol:
        out.append(f"planner score {score!r} != fresh score {fresh!r}")
    for pos in range(len(plan)):
        flipped = list(plan)
        flipped[pos] = type(plan[pos])(1 - int(plan[pos]))
        cand = fresh_plan_score(grid, start, flipped, peers, rh_cfg)
        if cand > fresh + tol:
            out.append(f"flipping position {pos} scores {cand!r} > {fresh!r}")
            break
    return out
