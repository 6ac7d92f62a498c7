"""Tests for the simulator's per-state image cache.

Each aircraft's polar observation and ego belief image are rendered once
per (fire grid or belief map, aircraft state) pair; the collectors, the
evaluation loop and the observation reward all read that one render.
"""

from dataclasses import replace

import numpy as np
import pytest

from firescout import env
from firescout.aircraft import Action, AircraftState
from firescout.dqn import _Collector
from firescout.env import BELIEF, OBSERVATION, SurveillanceSim
from firescout.harness import desk_scenario, profile_net_config, run_episode
from firescout.nn import QNetwork
from firescout.sensing import ego_belief_image, render_observation

STEPS = 12


def desk_sim(n_aircraft=2):
    return SurveillanceSim(replace(desk_scenario().sim, n_aircraft=n_aircraft))


def counting(monkeypatch, name):
    calls = []
    inner = getattr(env, name)

    def wrapped(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(env, name, wrapped)
    return calls


@pytest.mark.parametrize("approach, renderer", [(OBSERVATION, "render_observation"),
                                                (BELIEF, "ego_belief_image")])
def test_training_step_renders_each_aircraft_once(monkeypatch, approach, renderer):
    sim = desk_sim()
    net = QNetwork(profile_net_config("desk", approach, sim.config),
                   rng=np.random.default_rng(0))
    collector = _Collector(sim, net, approach, bootstrap_on_truncation=True)
    calls = counting(monkeypatch, renderer)
    rng = np.random.default_rng(1)
    for _ in range(STEPS):
        collector.collect_step(0.5, rng)
    # the states after reset, then one new state per aircraft and step
    assert len(calls) == 2 * (STEPS + 1)


def test_observation_net_episode_renders_each_state_once(monkeypatch):
    sc = desk_scenario()
    sc = replace(sc, controller="observation-net",
                 sim=replace(sc.sim, horizon_seconds=STEPS * sc.sim.dt))
    net = QNetwork(profile_net_config("desk", OBSERVATION, sc.sim),
                   rng=np.random.default_rng(0))
    calls = counting(monkeypatch, "render_observation")
    record = run_episode(sc, net=net)
    assert len(record.states) == STEPS
    assert len(calls) == 2 * (STEPS + 1)


def assert_images_fresh(sim):
    for i, state in enumerate(sim.aircraft):
        fresh = render_observation(sim.grid, state, sim.bins, sim.config.n_angle_bins)
        assert np.array_equal(sim.observation(i).values, fresh.values)
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


def test_cache_follows_a_replaced_aircraft_state():
    sim = desk_sim()
    sim.reset(np.random.default_rng(6))
    before = sim.observation(0)
    assert sim.observation(0) is before
    sim.aircraft[0] = AircraftState(x=500.0, y=500.0, psi=1.0)
    assert sim.observation(0) is not before
    assert_images_fresh(sim)
