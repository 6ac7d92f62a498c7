"""Receding-horizon baseline: coordinate descent on bank-action sequences.

Plans against a frozen snapshot of the true fire map and frozen peer
positions, scores candidate trajectories with the dense observation
rewards, executes a prefix, then re-plans. Each aircraft plans
independently; there is no joint action space.

The restarts descend in lockstep: each round flies a window of
single-flip candidates per restart as rows of one array and samples the
fire once for all their tail states. The array kinematics repeat
integrate's float operations in its order, so plans and scores equal
those of re-flying one candidate at a time, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .aircraft import G, SPEED, Action, AircraftState, apply_action, \
    integrate, wrap_angle  # noqa: F401 (integrate: _fly repeats it on arrays)
from .fire import FireGrid
from .rewards import RewardWeights
from .sensing import RangeBins, build_range_bins, sample_polar


@dataclass(frozen=True)
class RHConfig:
    horizon_steps: int = 50       # T, planned actions per optimization
    execute_steps: int = 10       # tau, actions flown before re-planning
    restarts: int = 10
    weights: RewardWeights = RewardWeights()
    n_range_bins: int = 40
    n_angle_bins: int = 30
    max_range_m: float = 500.0
    dt: float = 0.1

    def __post_init__(self):
        if not 0 < self.execute_steps < self.horizon_steps:
            raise ValueError("need 0 < execute_steps < horizon_steps")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")

    def bins(self) -> RangeBins:
        return build_range_bins(self.n_range_bins, self.max_range_m)


@functools.lru_cache(maxsize=256)
def _bank_levels(phi0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bank angles apply_action reaches from phi0 as a walk table: level
    e (even) has bank phi[e] and turn rate omega[e]; action a leads to walk[e + a]."""
    levels, walk = [phi0], []
    for phi in levels:
        for a in Action:
            nxt = apply_action(AircraftState(0.0, 0.0, phi=phi), a).phi
            if nxt not in levels:
                levels.append(nxt)
            walk.append(2 * levels.index(nxt))
    phi = np.repeat(levels, 2)
    return phi, G * np.array([math.tan(p) for p in phi]) / SPEED, np.array(walk)


def _fly(start: AircraftState, actions: np.ndarray, dt: float):
    """Every state of every row of actions (n, T) as (n, T) arrays x, y,
    psi, phi, equal to chaining integrate(apply_action(state, a), dt).

    Sums run in integrate's order through np.add.accumulate; a straight
    step adds -0.0 to the heading, which changes no bit. Where a turning
    step leaves (-pi, pi], wrap_angle wraps it and the row is summed again.
    """
    n, T = actions.shape
    phis, omegas, walk = _bank_levels(start.phi)
    level = np.zeros((T + 1, n), dtype=np.intp)
    for k, a in enumerate(actions.T):
        level[k + 1] = walk.take(level[k] + a)
    phi, omega = phis.take(level[1:]), omegas.take(level[1:])
    turning = np.abs(omega) >= 1e-9
    steps = np.vstack([np.full(n, start.psi), np.where(turning, omega * dt, -0.0)])
    psi = np.add.accumulate(steps)          # row 0 is the start
    head, row = psi[1:], np.arange(T)[:, None]
    out = turning & ((head > math.pi) | (head <= -math.pi))
    while out.any():
        cols = np.nonzero(out.any(axis=0))[0]
        at = out[:, cols].argmax(axis=0)
        seq = np.where(row > at, steps[1:, cols], -0.0)
        seq[at, np.arange(len(cols))] = [wrap_angle(a) for a in head[at, cols]]
        seq = np.add.accumulate(seq)
        head[:, cols] = np.where(row >= at, seq, head[:, cols])
        out[:, cols] = turning[:, cols] & (row > at) & ((seq > math.pi) | (seq <= -math.pi))
    sin, cos = np.sin(psi), np.cos(psi)
    new = psi[:-1] + steps[1:]              # headings before wrapping
    sin_new, cos_new, moved = sin[1:].copy(), cos[1:].copy(), new != head
    sin_new[moved], cos_new[moved] = np.sin(new[moved]), np.cos(new[moved])
    radius = SPEED / np.where(turning, omega, 1.0)
    dx = np.where(turning, radius * (sin_new - sin[:-1]), SPEED * cos[:-1] * dt)
    dy = np.where(turning, -(radius * (cos_new - cos[:-1])), SPEED * sin[:-1] * dt)
    x = np.add.accumulate(np.vstack([np.full(n, start.x), dx]))[1:]
    y = np.add.accumulate(np.vstack([np.full(n, start.y), dy]))[1:]
    return x.T, y.T, head.T, phi.T


def _tail_rewards(grid, start, actions, first, peers, w, bins, n_angle_bins, dt):
    """Dense reward of every state of every row of actions (n, T) from
    column first[i] on, 0 before it, as the scalar reward terms give it.
    """
    tail = np.arange(actions.shape[1]) >= first[:, None]
    x, y, psi, phi = (v[tail] for v in _fly(start, actions, dt))
    values = sample_polar(grid, x, y, psi, bins, n_angle_bins).transpose(1, 2, 0)
    radii = bins.centers
    nearest = np.where(values.any(axis=1), radii[:, None], np.inf).min(axis=0)
    r1 = -w.lambda1 * np.where(np.isinf(nearest), bins.max_range, nearest)
    r2 = -w.lambda2 * (~values[radii < w.r0]).sum(axis=(0, 1))
    total = r1 + r2 + -w.lambda3 * phi * phi
    for p in peers:
        total = total - w.lambda4 * np.exp(-np.hypot(x - p.x, y - p.y) / w.c)
    out = np.zeros(actions.shape)
    out[tail] = total
    return out


def rollout_score(grid: FireGrid, start: AircraftState, actions: list[Action],
                  peers: list[AircraftState], w: RewardWeights, bins: RangeBins,
                  n_angle_bins: int = 30, dt: float = 0.1) -> float:
    """Total dense reward of flying the sequence over the unchanged fire map.

    Peers stay put for the separation term. An empty sequence scores 0.
    """
    return float(_tail_rewards(grid, start, np.array([actions], dtype=np.intp), np.zeros(1),
                               peers, w, bins, n_angle_bins, dt).sum())


def optimize_trajectory(grid: FireGrid, start: AircraftState,
                        peers: list[AircraftState], cfg: RHConfig,
                        rng: np.random.Generator) -> tuple[list[Action], float]:
    """Coordinate descent from uniform random starts; best restart wins.

    Each restart sweeps its positions in order, taking every flip that
    strictly raises the score, until a sweep flips nothing. A flip at
    position p leaves the rewards before p unchanged, so only the tail is
    scored. A window starts 4 positions wide and doubles while nothing in
    it improves. Ties keep the earliest restart, so the result is
    deterministic for a given rng state.
    """
    T = cfg.horizon_steps
    args = (peers, cfg.weights, cfg.bins(), cfg.n_angle_bins, cfg.dt)
    plans = np.array([rng.integers(2, size=T) for _ in range(cfg.restarts)])
    rewards = _tail_rewards(grid, start, plans, np.zeros(len(plans)), *args)
    scores = rewards.sum(axis=1)
    pos, width, flipped = [0] * len(plans), [4] * len(plans), [False] * len(plans)
    active = list(range(len(plans)))
    while active:
        windows = [np.arange(pos[r], min(pos[r] + width[r], T)) for r in active]
        owner = np.repeat(active, [len(ps) for ps in windows])
        flips = np.concatenate(windows)
        cands = plans[owner]
        cands[np.arange(len(flips)), flips] ^= 1
        full = np.where(np.arange(T) < flips[:, None], rewards[owner],
                        _tail_rewards(grid, start, cands, flips, *args))
        sums = full.sum(axis=1)
        for r, ps in zip(active, windows):
            better = np.nonzero((owner == r) & (sums > scores[r]))[0]
            if better.size:
                k = better[0]
                plans[r], rewards[r], scores[r] = cands[k], full[k], sums[k]
                pos[r], width[r], flipped[r] = flips[k] + 1, 4, True
            else:
                pos[r], width[r] = ps[-1] + 1, 2 * width[r]
            if pos[r] == T and flipped[r]:
                pos[r], flipped[r] = 0, False
        active = [r for r in active if pos[r] < T]
    best = int(np.argmax(scores))
    return [Action(int(a)) for a in plans[best]], float(scores[best])


@dataclass
class RHController:
    """Per-aircraft plan buffer; empty means a re-plan is due."""

    pending: list[Action] = field(default_factory=list)


def rh_step(controller: RHController, grid: FireGrid, aircraft: AircraftState,
            peers: list[AircraftState], cfg: RHConfig,
            rng: np.random.Generator) -> Action:
    """Emit the next action, planning a fresh trajectory when the buffer
    of the previous plan's first execute_steps actions runs out.
    """
    if not controller.pending:
        plan, _ = optimize_trajectory(grid, aircraft, peers, cfg, rng)
        controller.pending = list(plan[:cfg.execute_steps])
    return controller.pending.pop(0)
