"""Tests for the simulator's per-state cache, its team rewards and its clock.

The team's polar observations or ego belief images are rendered by one
batched call per (fire grid or belief map, team state) pair, and each
ordered pair's relative geometry is computed once per team state; the
collectors, the evaluation loop and the rewards all read that one result.
The array rewards equal the scalar reward terms summed per aircraft.
During an episode the fire steps once every step_seconds / DT decisions.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firescout import env
from firescout.aircraft import Action, AircraftState, relative_geometry
from firescout.dqn import ReplayBuffer, _Collector
from firescout.env import BELIEF, OBSERVATION, SurveillanceSim
from firescout.fire import FireGrid
from firescout.harness import desk_scenario, profile_net_config, run_episode, \
    scenario_from_dict
from firescout.nn import QNetwork
from firescout.rewards import bank_penalty, belief_reward, cold_cells_penalty, \
    fire_distance_penalty, proximity_penalty
from firescout.sensing import ego_belief_image, render_observation

STEPS = 12


def desk_sim(n_aircraft=2):
    return SurveillanceSim(replace(desk_scenario().sim, n_aircraft=n_aircraft))


def counting(monkeypatch, name):
    calls = []
    inner = getattr(env, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(env, name, wrapped)
    return calls


@pytest.mark.parametrize("approach, renderer", [(OBSERVATION, "sample_polar"),
                                                (BELIEF, "ego_belief_images")])
def test_training_step_renders_each_aircraft_once(monkeypatch, approach, renderer):
    sim = desk_sim()
    net = QNetwork(profile_net_config("desk", approach, sim.config),
                   rng=np.random.default_rng(0))
    collector = _Collector(sim, net, ReplayBuffer(1000, net.config.image_shape), approach)
    calls = counting(monkeypatch, renderer)
    rng = np.random.default_rng(1)
    for _ in range(STEPS):
        collector.collect_step(0.5, rng)
    # the team state after reset, then one new team state per step, each
    # rendered for both aircraft at once
    assert [len(args[1]) for args in calls] == [2] * (STEPS + 1)


def test_observation_net_episode_renders_each_state_once(monkeypatch):
    sc = desk_scenario()
    sc = replace(sc, controller="observation-net",
                 sim=replace(sc.sim, horizon_seconds=STEPS * sc.sim.dt))
    net = QNetwork(profile_net_config("desk", OBSERVATION, sc.sim),
                   rng=np.random.default_rng(0))
    calls = counting(monkeypatch, "sample_polar")
    record = run_episode(sc, net=net)
    assert len(record.states) == STEPS
    assert [len(args[1]) for args in calls] == [2] * (STEPS + 1)


def test_each_pair_geometry_computed_once_per_team_state(monkeypatch):
    sim = desk_sim(n_aircraft=3)
    net = QNetwork(profile_net_config("desk", BELIEF, sim.config),
                   rng=np.random.default_rng(0))
    collector = _Collector(sim, net, ReplayBuffer(1000, net.config.image_shape), BELIEF)
    calls = counting(monkeypatch, "relative_geometry")
    rng = np.random.default_rng(2)
    for _ in range(STEPS):
        collector.collect_step(0.5, rng)
    assert len(calls) == 3 * 2 * (STEPS + 1)
    sim.aircraft[1] = AircraftState(x=400.0, y=300.0, psi=-2.0, phi=0.1)
    conts = sim.pair_inputs()
    rewards = [sim.belief_reward(i, 0) for i in range(3)]
    assert sim.pair_inputs() is conts
    assert len(calls) == 3 * 2 * (STEPS + 2)
    for i in range(3):
        geoms = [relative_geometry(sim.aircraft[i], sim.aircraft[j])
                 for j in sim.peer_indices(i)]
        expect = np.array([[g.phi_own, g.rho / sim.config.rho_scale, g.theta,
                            g.psi_rel, g.phi_other] for g in geoms], dtype=np.float32)
        assert conts[i].tobytes() == expect.tobytes()
        assert_within_ulps(rewards[i], belief_reward(0, geoms, sim.config.weights), 2)
    # the team's reward tuple holds the per-aircraft rewards, bit for bit
    observation = [sim.observation_reward(i) for i in range(3)]
    belief = [sim.belief_reward(i, 3) for i in range(3)]
    assert np.array(sim.rewards(OBSERVATION, 3)).tobytes() == np.array(observation).tobytes()
    assert np.array(sim.rewards(BELIEF, 3)).tobytes() == np.array(belief).tobytes()


def assert_images_fresh(sim):
    for i, state in enumerate(sim.aircraft):
        fresh = render_observation(sim.grid, state, sim.bins, sim.config.n_angle_bins)
        assert np.array_equal(sim.state_image(i, OBSERVATION)[:, :, 0], fresh.values)
        assert np.array_equal(sim.state_image(i, BELIEF),
                              ego_belief_image(sim.belief, state))


def test_cached_images_equal_fresh_renders_after_step_and_reset():
    sim = desk_sim(n_aircraft=3)
    rng = np.random.default_rng(4)
    sim.reset(rng)
    assert_images_fresh(sim)
    for _ in range(30):    # crosses a fire step at step 25
        sim.step([Action(int(a)) for a in rng.integers(2, size=3)], rng)
        assert_images_fresh(sim)
    sim.reset(rng)
    assert_images_fresh(sim)


@pytest.mark.parametrize("step_seconds, every", [(5.0, 50), (0.1, 1), (2.5, 25)])
def test_in_episode_fire_cadence_follows_step_seconds(monkeypatch, step_seconds, every):
    """During a 10 s episode the fire steps once every step_seconds / DT
    decision steps: 2, 100 and 4 times."""
    sc = scenario_from_dict({"propagation": {"step_seconds": step_seconds},
                             "horizon_seconds": 10.0, "grid": {"width_cells": 20,
                                                               "height_cells": 20}})
    sim = SurveillanceSim(sc.sim)
    rng = np.random.default_rng(8)
    sim.reset(rng)
    calls = counting(monkeypatch, "step_fire")    # in-episode steps only
    fired = []
    for _ in env.play(sim, env.random_policy, rng):
        if len(calls) > len(fired):
            fired.append(sim.step_index)
    assert sim.step_index == 100
    assert fired == list(range(every, 101, every))


def test_cache_follows_a_replaced_aircraft_state():
    sim = desk_sim()
    sim.reset(np.random.default_rng(6))
    before = sim.team_images(OBSERVATION)
    assert sim.team_images(OBSERVATION) is before
    sim.aircraft[0] = AircraftState(x=500.0, y=500.0, psi=1.0)
    assert sim.team_images(OBSERVATION) is not before
    assert_images_fresh(sim)


def assert_within_ulps(got, want, ulps):
    assert abs(got - want) <= ulps * np.spacing(abs(want)), (got, want)


def scalar_rewards(sim, discovered):
    """Each aircraft's rewards summed from the scalar terms, one at a time."""
    cfg, w = sim.config, sim.config.weights
    observation, belief = [], []
    for i, own in enumerate(sim.aircraft):
        geoms = [relative_geometry(own, sim.aircraft[j]) for j in sim.peer_indices(i)]
        obs = render_observation(sim.grid, own, sim.bins, cfg.n_angle_bins)
        total = (fire_distance_penalty(obs, sim.bins, w) + cold_cells_penalty(obs, sim.bins, w)
                 + bank_penalty(own.phi, w))
        for g in geoms:
            total += proximity_penalty(g.rho, w)
        observation.append(total)
        belief.append(belief_reward(discovered, geoms, w))
    return observation, belief


@settings(max_examples=150, deadline=None)
@given(n_aircraft=st.integers(1, 4), fire=st.booleans(), discovered=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_team_rewards_equal_scalar_sums(n_aircraft, fire, discovered, seed):
    """sim.rewards equals the scalar per-aircraft sums within 2 ulps, the
    last-bit gap between np.exp and math.exp. With fire, aircraft 0 flies
    over a burning cell; without, nothing burns."""
    sim = desk_sim(n_aircraft)
    rng = np.random.default_rng(seed)
    sim.reset(rng)
    ex, ey = sim.grid.extent
    sim.aircraft = [AircraftState(x=float(rng.uniform(-0.2, 1.2) * ex),
                                  y=float(rng.uniform(-0.2, 1.2) * ey),
                                  psi=float(rng.uniform(-math.pi, math.pi)),
                                  phi=float(rng.uniform(-0.9, 0.9)))
                    for _ in range(n_aircraft)]
    if fire:
        iy, ix = np.nonzero(sim.grid.burning)
        k = int(rng.integers(len(ix)))
        cs = sim.grid.cell_size
        sim.aircraft[0] = replace(sim.aircraft[0], x=(ix[k] + 0.5) * cs, y=(iy[k] + 0.5) * cs)
    else:
        sim.grid = FireGrid(sim.grid.fuel, np.zeros_like(sim.grid.burning), sim.grid.cell_size)
    observation, belief = scalar_rewards(sim, discovered)
    for approach, want in ((OBSERVATION, observation), (BELIEF, belief)):
        got = sim.rewards(approach, discovered)
        assert type(got) is tuple and [type(r) for r in got] == [float] * n_aircraft
        for g, r in zip(got, want):
            assert_within_ulps(g, r, 2)
    if fire:
        assert sim.team_images(OBSERVATION)[0].any()
    else:
        assert not sim.team_images(OBSERVATION).any()
