"""Tests for the receding-horizon planner.

rollout_score, the planner's scoring of one sequence, is checked
against a step-by-step replay using the scalar reward functions; the small-horizon optimizer is checked against
exhaustive enumeration of all 2^T sequences. The batched planner is
checked against the scalar descent it replaced, kept here as an oracle:
plans and scores must be identical, not merely close.
"""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from firescout.aircraft import Action, AircraftState, apply_action, integrate
from firescout.env import SurveillanceSim
from firescout.fire import FireGrid
from firescout.harness import desk_scenario
from firescout.receding_horizon import RHConfig, RHPolicy, _tail_rewards, optimize_trajectory
from firescout.rewards import (
    RewardWeights,
    bank_penalty,
    cold_cells_penalty,
    fire_distance_penalty,
    proximity_penalty,
)
from firescout.sensing import build_range_bins, render_observation, sample_polar

W = RewardWeights()


def rollout_score(grid, start, actions, peers, w, bins, n_angle_bins=30):
    """Total dense reward the planner gives flying the sequence over the
    unchanged fire map, peers staying put. An empty sequence scores 0."""
    return float(_tail_rewards(grid, start, np.array([actions], dtype=np.intp), np.zeros(1),
                               peers, w, bins, n_angle_bins).sum())


def scene(seed=0, size=30, burn_frac=0.08):
    rng = np.random.default_rng(seed)
    grid = FireGrid(fuel=np.full((size, size), 15.0),
                    burning=rng.random((size, size)) < burn_frac,
                    cell_size=10.0)
    state = AircraftState(x=float(rng.uniform(50, size * 10 - 50)),
                          y=float(rng.uniform(50, size * 10 - 50)),
                          psi=float(rng.uniform(-math.pi, math.pi)),
                          phi=0.0)
    return grid, state, rng


def replay_oracle(grid, start, actions, peers, w, bins, n_angle, dt):
    """Fly the sequence one step at a time with the scalar reward code."""
    total = 0.0
    state = start
    for a in actions:
        state = integrate(apply_action(state, a), dt)
        obs = render_observation(grid, state, bins, n_angle)
        total += fire_distance_penalty(obs, bins, w)
        total += cold_cells_penalty(obs, bins, w)
        total += bank_penalty(state.phi, w)
        for p in peers:
            rho = math.hypot(p.x - state.x, p.y - state.y)
            total += proximity_penalty(rho, w)
    return total


class TestRolloutScore:
    def test_empty_sequence_scores_zero(self):
        grid, state, _ = scene()
        bins = build_range_bins(8, 200.0)
        assert rollout_score(grid, state, [], [], W, bins, 6) == 0.0

    def test_matches_scalar_replay(self):
        bins = build_range_bins(8, 200.0)
        for seed in range(6):
            grid, state, rng = scene(seed)
            actions = [Action(int(a)) for a in rng.integers(0, 2, 15)]
            got = rollout_score(grid, state, actions, [], W, bins, 6)
            want = replay_oracle(grid, state, actions, [], W, bins, 6, 0.1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_matches_scalar_replay_with_peers(self):
        bins = build_range_bins(8, 200.0)
        for seed in range(6):
            grid, state, rng = scene(seed + 50)
            peers = [AircraftState(x=float(rng.uniform(0, 300)),
                                   y=float(rng.uniform(0, 300)))
                     for _ in range(2)]
            actions = [Action(int(a)) for a in rng.integers(0, 2, 12)]
            got = rollout_score(grid, state, actions, peers, W, bins, 6)
            want = replay_oracle(grid, state, actions, peers, W, bins, 6, 0.1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_no_fire_charges_full_range_every_step(self):
        grid = FireGrid(fuel=np.full((20, 20), 15.0),
                        burning=np.zeros((20, 20), dtype=bool), cell_size=10.0)
        state = AircraftState(100.0, 100.0, 0.0, 0.0)
        bins = build_range_bins(8, 200.0)
        actions = [Action.BANK_RIGHT] * 5
        got = rollout_score(grid, state, actions, [], W, bins, 6)
        # every step pays the full-range distance charge, the cold-bin
        # charge for all near bins, and the growing bank penalty
        near = int((bins.centers < W.r0).sum()) * 6
        expect = sum(
            -W.lambda1 * 200.0 - W.lambda2 * near
            - W.lambda3 * (min(5.0 * (k + 1), 50.0) * math.pi / 180.0) ** 2
            for k in range(5))
        assert got == pytest.approx(expect, rel=1e-9)

    def test_mirrored_world_mirrored_plan(self):
        # fire symmetric about the aircraft's heading axis: banking hard
        # left scores the same as banking hard right
        grid = FireGrid(fuel=np.full((21, 21), 15.0),
                        burning=np.zeros((21, 21), dtype=bool), cell_size=10.0)
        for ix in (13, 15, 17):
            grid.burning[10, ix] = True       # on the axis
        for iy_off in (2, 4):
            grid.burning[10 + iy_off, 14] = True
            grid.burning[10 - iy_off, 14] = True
        state = AircraftState(55.0, 105.0, 0.0, 0.0)
        bins = build_range_bins(8, 200.0)
        left = rollout_score(grid, state, [Action.BANK_LEFT] * 10, [], W, bins, 8)
        right = rollout_score(grid, state, [Action.BANK_RIGHT] * 10, [], W, bins, 8)
        assert left == pytest.approx(right, rel=1e-9)


class TestConfig:
    def test_execute_steps_bounds(self):
        with pytest.raises(ValueError):
            RHConfig(horizon_steps=10, execute_steps=10)
        with pytest.raises(ValueError):
            RHConfig(horizon_steps=10, execute_steps=0)

    def test_restarts_positive(self):
        with pytest.raises(ValueError):
            RHConfig(horizon_steps=10, execute_steps=5, restarts=0)

    def test_bins_match_settings(self):
        cfg = RHConfig(horizon_steps=10, execute_steps=5,
                       n_range_bins=6, max_range_m=120.0)
        b = cfg.bins()
        assert len(b.centers) == 6
        assert b.max_range == 120.0


class TestOptimize:
    CFG = RHConfig(horizon_steps=8, execute_steps=3, restarts=2,
                   n_range_bins=6, n_angle_bins=6, max_range_m=150.0)

    def test_deterministic_for_fixed_seed(self):
        grid, state, _ = scene(3)
        a1, s1 = optimize_trajectory(grid, state, [], self.CFG,
                                     np.random.default_rng(11))
        a2, s2 = optimize_trajectory(grid, state, [], self.CFG,
                                     np.random.default_rng(11))
        assert a1 == a2
        assert s1 == s2
        assert len(a1) == 8

    def test_result_is_single_flip_optimal(self):
        bins = self.CFG.bins()
        for seed in range(4):
            grid, state, _ = scene(seed + 20)
            plan, score = optimize_trajectory(grid, state, [], self.CFG,
                                              np.random.default_rng(seed))
            assert score == pytest.approx(
                rollout_score(grid, state, plan, [], W, bins, 6), rel=1e-12)
            for pos in range(len(plan)):
                mutant = list(plan)
                mutant[pos] = Action(1 - int(mutant[pos]))
                flipped = rollout_score(grid, state, mutant, [], W, bins, 6)
                assert flipped <= score + 1e-9

    def test_never_beats_exhaustive_tiny_horizon(self):
        cfg = RHConfig(horizon_steps=6, execute_steps=2, restarts=4,
                       n_range_bins=6, n_angle_bins=6, max_range_m=150.0)
        bins = cfg.bins()
        hits = 0
        for seed in range(5):
            grid, state, _ = scene(seed + 40)
            best = max(
                rollout_score(grid, state, list(seq), [], W, bins, 6)
                for seq in itertools.product((Action.BANK_RIGHT, Action.BANK_LEFT),
                                             repeat=6))
            _, score = optimize_trajectory(grid, state, [], cfg,
                                           np.random.default_rng(seed))
            assert score <= best + 1e-9
            if score >= best - 1e-9:
                hits += 1
        assert hits >= 3  # descent finds the optimum on most tiny scenes


class TestRhStep:
    CFG = RHConfig(horizon_steps=8, execute_steps=3, restarts=2,
                   n_range_bins=6, n_angle_bins=6, max_range_m=150.0)

    @staticmethod
    def team(grid, *aircraft):
        """The simulator fields RHPolicy reads."""
        return SimpleNamespace(grid=grid, aircraft=list(aircraft), peer_indices=lambda i: [
            j for j in range(len(aircraft)) if j != i])

    def test_prefix_execution_then_replan(self):
        """The policy flies the first execute_steps of each plan; a twin
        rng consumed in lockstep predicts both plans exactly."""
        grid, state, _ = scene(9)
        ctrl_rng = np.random.default_rng(33)
        twin_rng = np.random.default_rng(33)
        policy = RHPolicy(self.CFG, 1)

        flown = []
        s = state
        for _ in range(6):  # two plan cycles of tau = 3
            [a] = policy(self.team(grid, s), ctrl_rng)
            flown.append(a)
            s = integrate(apply_action(s, a), self.CFG.dt)

        plan1, _ = optimize_trajectory(grid, state, [], self.CFG, twin_rng)
        s_mid = state
        for a in plan1[:3]:
            s_mid = integrate(apply_action(s_mid, a), self.CFG.dt)
        plan2, _ = optimize_trajectory(grid, s_mid, [], self.CFG, twin_rng)
        assert flown[:3] == plan1[:3]
        assert flown[3:] == plan2[:3]

    def test_buffer_drains_before_replanning(self):
        grid, state, _ = scene(10)
        policy = RHPolicy(self.CFG, 1)
        team = self.team(grid, state)
        rng = np.random.default_rng(1)
        policy(team, rng)
        assert len(policy.pending[0]) == 2  # tau - 1 actions left
        policy(team, rng)
        policy(team, rng)
        assert len(policy.pending[0]) == 0

    def test_aircraft_plan_in_order_against_their_peers(self):
        """Aircraft 0 plans first, then aircraft 1, each against the other;
        a strong proximity weight makes the peer change the plans."""
        cfg = replace(self.CFG, weights=RewardWeights(lambda4=200.0))
        grid, state, _ = scene(11)
        other = replace(state, x=state.x + 20.0, y=state.y + 10.0)
        policy = RHPolicy(cfg, 2)
        first = policy(self.team(grid, state, other), np.random.default_rng(3))
        twin_rng = np.random.default_rng(3)
        plans = [optimize_trajectory(grid, state, [other], cfg, twin_rng)[0],
                 optimize_trajectory(grid, other, [state], cfg, twin_rng)[0]]
        assert [[a, *pending] for a, pending in zip(first, policy.pending)] == [
            plan[:3] for plan in plans]
        alone, _ = optimize_trajectory(grid, state, [], cfg, np.random.default_rng(3))
        assert alone[:3] != plans[0][:3]


# -- scalar oracle -------------------------------------------------------------
# The planner before candidates were batched: every candidate tail is
# flown one integrate call at a time and scored with its own polar
# sampling. Plans and scores of optimize_trajectory must equal these
# exactly.

def oracle_trajectory(start, actions, dt):
    states = []
    state = start
    for a in actions:
        state = integrate(apply_action(state, a), dt)
        states.append(state)
    return states


def oracle_rewards(grid, states, peers, w, bins, n_angle_bins):
    n = len(states)
    if n == 0:
        return np.zeros(0)
    xs = np.array([s.x for s in states])
    ys = np.array([s.y for s in states])
    psis = np.array([s.psi for s in states])
    phis = np.array([s.phi for s in states])
    sector = 2.0 * np.pi / n_angle_bins
    bearings = psis[:, None] + (np.arange(n_angle_bins) + 0.5)[None, :] * sector
    radii = bins.centers
    px = xs[:, None, None] + radii[None, :, None] * np.cos(bearings)[:, None, :]
    py = ys[:, None, None] + radii[None, :, None] * np.sin(bearings)[:, None, :]
    ix = np.floor(px / grid.cell_size).astype(np.int64)
    iy = np.floor(py / grid.cell_size).astype(np.int64)
    inside = (ix >= 0) & (ix < grid.width) & (iy >= 0) & (iy < grid.height)
    values = np.zeros((n, len(bins.centers), n_angle_bins), dtype=bool)
    values[inside] = grid.burning[iy[inside], ix[inside]]
    burning_rows = values.any(axis=2)
    nearest = np.where(burning_rows, radii[None, :], np.inf).min(axis=1)
    r1 = -w.lambda1 * np.where(np.isinf(nearest), bins.max_range, nearest)
    near_rows = radii < w.r0
    r2 = -w.lambda2 * (~values[:, near_rows, :]).sum(axis=(1, 2))
    r3 = -w.lambda3 * phis * phis
    total = r1 + r2 + r3
    for p in peers:
        rho = np.hypot(xs - p.x, ys - p.y)
        total = total - w.lambda4 * np.exp(-rho / w.c)
    return total


def oracle_descend(grid, start, actions, peers, w, bins, n_angle_bins, dt):
    states = oracle_trajectory(start, actions, dt)
    rewards = oracle_rewards(grid, states, peers, w, bins, n_angle_bins)
    score = float(rewards.sum())
    improved = True
    while improved:
        improved = False
        for pos in range(len(actions)):
            tail_start = states[pos - 1] if pos > 0 else start
            tail_actions = [Action(1 - int(actions[pos]))] + actions[pos + 1:]
            tail_states = oracle_trajectory(tail_start, tail_actions, dt)
            tail_rewards = oracle_rewards(grid, tail_states, peers, w, bins,
                                          n_angle_bins)
            cand_rewards = np.concatenate([rewards[:pos], tail_rewards])
            cand = float(cand_rewards.sum())
            if cand > score:
                actions = actions[:pos] + tail_actions
                states = states[:pos] + tail_states
                rewards = cand_rewards
                score = cand
                improved = True
    return actions, score


def oracle_optimize(grid, start, peers, cfg, rng):
    bins = cfg.bins()
    best_actions, best_score = None, -np.inf
    for _ in range(cfg.restarts):
        init = [Action(int(a)) for a in rng.integers(2, size=cfg.horizon_steps)]
        actions, score = oracle_descend(grid, start, init, peers, cfg.weights, bins,
                                        cfg.n_angle_bins, cfg.dt)
        if score > best_score:
            best_actions, best_score = actions, score
    return best_actions, float(best_score)


DESK_RH = desk_scenario().rh
TINY_RH = RHConfig(horizon_steps=8, execute_steps=3, restarts=2,
                   n_range_bins=6, n_angle_bins=6, max_range_m=150.0)
TURN_RH = RHConfig(horizon_steps=20, execute_steps=5, restarts=3,
                   n_range_bins=8, n_angle_bins=6, max_range_m=200.0)
N_ORACLE_SCENES = 60


def oracle_scene(k):
    """Scene k of five kinds: a desk episode with its peer under the desk
    planner; a random start bank with two peers; a turn through +/-pi;
    zero bank and an axis heading, starting off the grid; an unwrapped
    heading with a start bank past the limit.
    """
    rng = np.random.default_rng(7000 + k)
    kind = k % 5
    if kind == 0:
        sc = desk_scenario()
        sim = SurveillanceSim(sc.sim)
        sim.reset(rng)
        for _ in range(int(rng.integers(0, 80))):
            sim.step([Action(int(a)) for a in rng.integers(2, size=2)], rng)
        return sim.grid, sim.aircraft[0], sim.aircraft[1:], DESK_RH, rng
    grid, state, _ = scene(int(rng.integers(1 << 20)), burn_frac=0.12)
    peers = [AircraftState(x=float(rng.uniform(0, 300)), y=float(rng.uniform(0, 300)))
             for _ in range(2)]
    if kind == 1:
        start = replace(state, phi=float(rng.uniform(-0.5, 0.5)))
        return grid, start, peers, TINY_RH, rng
    if kind == 2:
        psi = math.pi - float(rng.uniform(0.0, 0.05))
        start = replace(state, psi=psi if k % 2 else -psi,
                        phi=float(rng.choice([-1, 1])) * math.radians(45.0))
        return grid, start, [], TURN_RH, rng
    if kind == 3:
        start = AircraftState(x=float(rng.choice([-40.0, 340.0])),
                              y=float(rng.uniform(-60.0, 360.0)),
                              psi=float(rng.choice([0.0, math.pi, -math.pi / 2])),
                              phi=0.0)
        return grid, start, peers[:1], TURN_RH, rng
    start = replace(state, psi=float(rng.uniform(3.5, 9.0)) * float(rng.choice([-1, 1])),
                    phi=float(rng.choice([-1.0, 1.0])))
    return grid, start, peers, TINY_RH, rng


class TestScalarOracle:
    @pytest.mark.parametrize("k", range(N_ORACLE_SCENES))
    def test_plan_and_score_identical(self, k):
        grid, start, peers, cfg, rng = oracle_scene(k)
        seed = int(rng.integers(1 << 30))
        want_plan, want_score = oracle_optimize(grid, start, peers, cfg,
                                                np.random.default_rng(seed))
        plan, score = optimize_trajectory(grid, start, peers, cfg,
                                          np.random.default_rng(seed))
        assert plan == want_plan
        assert score == want_score

    @pytest.mark.parametrize("k", range(0, N_ORACLE_SCENES, 3))
    def test_rollout_score_identical(self, k):
        grid, start, peers, cfg, rng = oracle_scene(k)
        actions = [Action(int(a)) for a in rng.integers(2, size=cfg.horizon_steps)]
        bins = cfg.bins()
        want = float(oracle_rewards(grid, oracle_trajectory(start, actions, cfg.dt),
                                    peers, cfg.weights, bins, cfg.n_angle_bins).sum())
        assert rollout_score(grid, start, actions, peers, cfg.weights, bins,
                             cfg.n_angle_bins) == want

    def test_draws_restart_starts_in_order(self):
        """Only the restarts' initial sequences come from rng."""
        grid, start, peers, cfg, _ = oracle_scene(1)
        rng = np.random.default_rng(5)
        optimize_trajectory(grid, start, peers, cfg, rng)
        twin = np.random.default_rng(5)
        for _ in range(cfg.restarts):
            twin.integers(2, size=cfg.horizon_steps)
        assert rng.integers(1 << 62) == twin.integers(1 << 62)


def test_sample_polar_rows_equal_render_observation():
    rng = np.random.default_rng(17)
    for n_range, n_angle, size, cell in ((10, 8, 20, 50.0), (40, 30, 100, 10.0), (6, 5, 7, 30.0)):
        grid = FireGrid(fuel=np.full((size, size), 15.0),
                        burning=rng.random((size, size)) < 0.3, cell_size=cell)
        bins = build_range_bins(n_range, 500.0)
        extent = size * cell
        xs = rng.uniform(-0.5 * extent, 1.5 * extent, 40)
        ys = rng.uniform(-0.5 * extent, 1.5 * extent, 40)
        psis = rng.uniform(-4.0, 4.0, 40)
        values = sample_polar(grid, xs, ys, psis, bins, n_angle)
        assert values.shape == (40, n_range, n_angle)
        for x, y, psi, row in zip(xs, ys, psis, values):
            obs = render_observation(grid, AircraftState(x, y, psi), bins, n_angle)
            assert np.array_equal(obs.values, row)
