"""Tests for the replay buffer, action selection and the training loop.

The Bellman literal 1 + 0.99 * 2 == 2.98, the epsilon midpoint 0.55 and
the pairwise decomposition case (1,2)+(4,1) -> (5,3) -> action 0 are
frozen by hand. The two-state MDP oracle has Q* = [1/(1-g), g/(1-g)].
The team scorer's oracle runs each aircraft's image, repeated once per
peer, through forward_batch and sums the rows, as selection once did.
"""

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firescout.aircraft import Action, relative_geometry
from firescout.dqn import (
    CurvePoint,
    _Collector,
    ReplayBuffer,
    Trainer,
    TrainingConfig,
    epsilon,
    evaluate_policy,
    evaluate_random,
    mean_stderr,
    run_training,
    select_action_multi,
    write_curve_csv,
)
from firescout.env import BELIEF, OBSERVATION, SimConfig, SurveillanceSim
from firescout.fire import CircularSeed
from firescout.harness import (desk_scenario, paper_scenario, profile_net_config,
                               profile_training_config)
from firescout import dqn, nn
from firescout.nn import AdaMax, NetworkConfig, QNetwork
from test_nn import blas_thread_env, forward_one

TINY_IMAGE = (1, 1, 1)


def select_action(net, state, eps, rng):
    """Epsilon-greedy over the two bank actions; Q-ties resolve to action 0."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps > 0.0 and rng.random() < eps:
        return Action(int(rng.integers(2)))
    image, cont = state
    q = forward_one(net, image, cont)
    return Action(int(np.argmax(q)))


def bellman_target(reward, next_state, target_net, gamma):
    """One transition's TD target, the oracle for Trainer.train_step's batch.
    Episodes end at a time limit, so every target bootstraps."""
    image, cont = next_state
    q = forward_one(target_net, image, cont)
    return float(reward + gamma * float(q.max()))


class StubNet:
    """Fixed Q-table stand-in; complains when it should not be consulted."""

    def __init__(self, q_rows=None):
        self.q_rows = q_rows
        self.calls = 0

    def forward_batch(self, images, conts):
        if self.q_rows is None:
            raise AssertionError("forward_batch should not have been called")
        self.calls += 1
        return np.asarray(self.q_rows, dtype=np.float64)

    def forward_team(self, images, pair_conts):
        n, p = np.shape(pair_conts)[:2]
        return self.forward_batch(images, pair_conts).reshape(n, p, -1).sum(axis=1)

    def forward_beside(self, images, conts):
        return nn._Beside(False, self.forward_batch, images, conts)


def push_tiny(buf, reward=0.0, action=0, cont=None):
    """One step of one aircraft with one peer: a single transition row."""
    img = np.zeros((1, *TINY_IMAGE), dtype=np.float32)
    c = np.zeros((1, 1, 5), dtype=np.float32) if cont is None else cont.reshape(1, 1, 5)
    buf.push(img, c, [action], [reward], img, c)


def push_rows(buf, images, conts, actions, rewards, next_images, next_conts):
    """Oracle for ReplayBuffer.push: one pair row at a time, owner-major."""
    for i in range(len(images)):
        for k in range(conts.shape[1]):
            j = buf.cursor
            buf.images[j] = images[i]
            buf.conts[j] = conts[i, k]
            buf.actions[j] = actions[i]
            buf.rewards[j] = rewards[i]
            buf.next_images[j] = next_images[i]
            buf.next_conts[j] = next_conts[i, k]
            buf.cursor = (j + 1) % buf.capacity
            buf.size = min(buf.size + 1, buf.capacity)


class TestEpsilon:
    def cfg(self, **kw):
        return TrainingConfig(total_iterations=2000, **kw)

    def test_linear_ramp_endpoints_and_midpoint(self):
        cfg = self.cfg()  # decay over 1000 iterations
        assert epsilon(0, cfg) == 1.0
        assert epsilon(500, cfg) == pytest.approx(0.55, abs=1e-12)
        assert epsilon(1000, cfg) == 0.1
        assert epsilon(1999, cfg) == 0.1

    def test_explicit_decay_override(self):
        cfg = self.cfg(epsilon_decay_iters=10)
        assert epsilon(5, cfg) == pytest.approx(0.55, abs=1e-12)
        assert epsilon(10, cfg) == 0.1

    def test_default_decay_is_half_of_total(self):
        assert self.cfg().decay_iters == 1000
        assert TrainingConfig(total_iterations=0).decay_iters == 1

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            epsilon(-1, self.cfg())

    def test_rising_epsilon_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(total_iterations=10, epsilon_start=0.1, epsilon_end=0.5)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(total_iterations=10, gamma=1.0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"eval_period": 0}, "eval_period"),
        ({"eval_period": -3}, "eval_period"),
        ({"batch_size": 64, "replay_capacity": 63}, "replay_capacity"),
    ], ids=["eval-period-0", "eval-period-negative", "replay-below-batch"])
    def test_invalid_schedule_rejected(self, kwargs, message):
        """Rejected when built, not after the prefill has run."""
        with pytest.raises(ValueError, match=message):
            TrainingConfig(total_iterations=10, **kwargs)

    def test_smallest_valid_schedule_accepted(self):
        cfg = TrainingConfig(total_iterations=10, eval_period=1, batch_size=8,
                             replay_capacity=8)
        assert cfg.eval_period == 1 and cfg.replay_capacity == cfg.batch_size


class TestSelectAction:
    def state(self):
        return (np.zeros(TINY_IMAGE, dtype=np.float32), np.zeros(5, dtype=np.float32))

    def test_greedy_picks_argmax(self):
        net = StubNet(q_rows=[[0.3, 0.9]])
        a = select_action(net, self.state(), 0.0, np.random.default_rng(0))
        assert a == Action.BANK_LEFT

    def test_tie_resolves_to_action_zero(self):
        net = StubNet(q_rows=[[0.5, 0.5]])
        a = select_action(net, self.state(), 0.0, np.random.default_rng(0))
        assert a == Action.BANK_RIGHT
        assert int(a) == 0

    def test_greedy_consumes_no_randomness(self):
        net = StubNet(q_rows=[[1.0, 0.0]])
        a_rng = np.random.default_rng(5)
        b_rng = np.random.default_rng(5)
        select_action(net, self.state(), 0.0, a_rng)
        assert a_rng.random() == b_rng.random()

    def test_full_exploration_never_queries_network(self):
        net = StubNet()  # raises on any forward
        rng = np.random.default_rng(1)
        counts = [0, 0]
        for _ in range(10_000):
            counts[int(select_action(net, self.state(), 1.0, rng))] += 1
        # binomial p=0.5: 3 sigma over 10k draws is +/- 150
        assert abs(counts[0] - 5000) < 150

    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            select_action(StubNet(q_rows=[[0, 1]]), self.state(), 1.5,
                          np.random.default_rng(0))


class TestSelectActionMulti:
    def test_summed_rows_decide(self):
        # (1,2) + (4,1) = (5,3): the first action wins even though the
        # second wins the first row alone
        net = StubNet(q_rows=[[1.0, 2.0], [4.0, 1.0]])
        image = np.zeros(TINY_IMAGE, dtype=np.float32)
        conts = [np.zeros(5, dtype=np.float32), np.ones(5, dtype=np.float32)]
        assert select_action_multi(net, image, conts) == Action.BANK_RIGHT

    def test_no_peers_rejected(self):
        with pytest.raises(ValueError):
            select_action_multi(StubNet(q_rows=[[1, 2]]),
                                np.zeros(TINY_IMAGE, dtype=np.float32), [])

    def test_single_peer_equals_plain_greedy(self):
        cfg = NetworkConfig(image_shape=(8, 6, 1), conv_stages=2, conv_filters=4,
                            image_dense=(10,), continuous_dense=(6,),
                            merge_dense=(8,))
        net = QNetwork(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        quiet = np.random.default_rng(0)
        for _ in range(100):
            image = rng.normal(size=(8, 6, 1)).astype(np.float32)
            cont = rng.normal(size=5).astype(np.float32)
            multi = select_action_multi(net, image, [cont])
            single = select_action(net, (image, cont), 0.0, quiet)
            assert multi == single


def oracle_team_q(net, images, pair_conts):
    """Per aircraft: its image repeated once per peer, forward_batch, rows summed."""
    return np.array([net.forward_batch(np.repeat(image[None], len(conts), axis=0), conts)
                     .sum(axis=0) for image, conts in zip(images, pair_conts)])


def oracle_pair_inputs(sim):
    return np.array([[[g.phi_own, g.rho / sim.config.rho_scale, g.theta, g.psi_rel,
                       g.phi_other]
                      for g in (relative_geometry(sim.aircraft[i], sim.aircraft[j])
                                for j in sim.peer_indices(i))]
                     for i in range(len(sim.aircraft))], dtype=np.float32)


class OracleCollector:
    """The per-aircraft selection loop that _Collector.collect_step replaced."""

    def __init__(self, sim, net, approach):
        self.sim, self.net, self.approach = sim, net, approach
        self.needs_reset = True

    def collect_step(self, eps, rng):
        sim = self.sim
        if self.needs_reset:
            sim.reset(rng)
            self.needs_reset = False
        actions = []
        for i in range(len(sim.aircraft)):
            if eps > 0.0 and rng.random() < eps:
                actions.append(Action(int(rng.integers(2))))
            else:
                q = oracle_team_q(self.net, [sim.state_image(i, self.approach)],
                                  [oracle_pair_inputs(sim)[i]])
                actions.append(Action(int(np.argmax(q[0]))))
        self.needs_reset = sim.step(actions, rng).done
        return actions


TEAM_CASES = [("desk", BELIEF, 4), ("desk", OBSERVATION, 2), ("paper", OBSERVATION, 2)]


def team_setup(profile, approach, n_aircraft):
    sc = desk_scenario() if profile == "desk" else paper_scenario()
    sim_cfg = replace(sc.sim, n_aircraft=n_aircraft)
    net = QNetwork(profile_net_config(profile, approach, sim_cfg), np.random.default_rng(31))
    return sim_cfg, net


class TestForwardTeam:
    @pytest.mark.parametrize("profile, approach, n_aircraft", TEAM_CASES)
    def test_sums_match_per_aircraft_oracle(self, profile, approach, n_aircraft):
        sim_cfg, net = team_setup(profile, approach, n_aircraft)
        sim = SurveillanceSim(sim_cfg)
        rng = np.random.default_rng(32)
        sim.reset(rng)
        for _ in range(30):
            images, conts = sim.team_images(approach), sim.pair_inputs()
            assert conts.tobytes() == oracle_pair_inputs(sim).tobytes()
            q = net.forward_team(images, conts)
            want = oracle_team_q(net, images, conts)
            assert q.shape == (n_aircraft, 2)
            # BLAS low bits depend on the row count; a value that cancels toward
            # 0 keeps the absolute error of the largest ones, hence the atol
            np.testing.assert_allclose(q, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())
            clear = np.abs(want[:, 0] - want[:, 1]) > 1e-4
            assert np.array_equal(q.argmax(axis=1)[clear], want.argmax(axis=1)[clear])
            sim.step([Action(int(a)) for a in rng.integers(2, size=n_aircraft)], rng)

    @pytest.mark.parametrize("profile, approach, n_aircraft", TEAM_CASES)
    def test_collector_matches_oracle_actions_and_draws(self, profile, approach, n_aircraft):
        sim_cfg, net = team_setup(profile, approach, n_aircraft)
        buffer = ReplayBuffer(1000, net.config.image_shape)
        ours = _Collector(SurveillanceSim(sim_cfg), net, buffer, approach)
        oracle = OracleCollector(SurveillanceSim(sim_cfg), net, approach)
        rng_ours, rng_oracle = np.random.default_rng(33), np.random.default_rng(33)
        for _ in range(40):
            want = oracle.collect_step(0.5, rng_oracle)
            assert ours.collect_step(0.5, rng_ours) == want
            assert rng_ours.bit_generator.state == rng_oracle.bit_generator.state

    def test_one_row_per_pair_needs_its_owner(self):
        _, net = team_setup("desk", OBSERVATION, 2)
        with pytest.raises(ValueError):
            net.forward_team(np.zeros((3, 10, 8, 1)), np.zeros((2, 1, 5)))


class TestBellmanTarget:
    def test_frozen_value(self):
        net = StubNet(q_rows=[[2.0, 1.0]])
        state = (np.zeros(TINY_IMAGE), np.zeros(5))
        assert bellman_target(1.0, state, net, 0.99) == 2.98

    def test_zero_gamma_is_reward_plus_nothing(self):
        net = StubNet(q_rows=[[100.0, 50.0]])
        state = (np.zeros(TINY_IMAGE), np.zeros(5))
        assert bellman_target(0.25, state, net, 0.0) == 0.25


class TestReplayBuffer:
    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(3, TINY_IMAGE)
        for r in (1.0, 2.0, 3.0, 4.0, 5.0):
            push_tiny(buf, reward=r)
        assert len(buf) == 3
        assert set(buf.rewards.tolist()) == {3.0, 4.0, 5.0}

    def test_push_stores_all_fields(self):
        buf = ReplayBuffer(4, TINY_IMAGE)
        cont = np.arange(5, dtype=np.float32)
        push_tiny(buf, reward=-2.5, action=1, cont=cont)
        assert buf.actions[0] == 1
        assert buf.rewards[0] == -2.5
        assert np.array_equal(buf.conts[0], cont)

    def test_underfilled_sampling_rejected(self):
        buf = ReplayBuffer(10, TINY_IMAGE)
        push_tiny(buf)
        with pytest.raises(ValueError):
            buf.sample_indices(2, np.random.default_rng(0))

    def test_sampling_is_uniform(self):
        buf = ReplayBuffer(10, TINY_IMAGE)
        for r in range(10):
            push_tiny(buf, reward=float(r))
        rng = np.random.default_rng(99)
        counts = np.zeros(10)
        draws = 2000 * 10
        for _ in range(2000):
            idx = buf.sample_indices(10, rng)
            np.add.at(counts, idx, 1)
        freq = counts / draws
        sigma = math.sqrt(0.1 * 0.9 / draws)
        assert np.abs(freq - 0.1).max() < 3 * sigma

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 4), capacity_steps=st.floats(0.05, 4.0),
           steps=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @example(n=4, capacity_steps=0.05, steps=3, seed=0)   # 1 slot, 12 rows a step
    @example(n=3, capacity_steps=0.5, steps=2, seed=1)    # 3 slots, 6 rows a step
    @example(n=2, capacity_steps=2.5, steps=8, seed=2)    # 5 slots, wraps 3 times
    def test_step_push_equals_row_by_row_oracle(self, n, capacity_steps, steps, seed):
        """After any sequence of step pushes every array (by bytes), the
        cursor and the size equal a buffer written one row at a time."""
        p = n - 1
        capacity = max(1, round(capacity_steps * n * p))
        shape = (2, 3, 2)
        ours, oracle = ReplayBuffer(capacity, shape), ReplayBuffer(capacity, shape)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            step = (rng.standard_normal((n, *shape), dtype=np.float32),
                    rng.standard_normal((n, p, 5), dtype=np.float32),
                    [Action(int(a)) for a in rng.integers(2, size=n)],
                    tuple(rng.standard_normal(n).tolist()),
                    rng.standard_normal((n, *shape), dtype=np.float32),
                    rng.standard_normal((n, p, 5), dtype=np.float32))
            ours.push(*step)
            push_rows(oracle, *step)
        for name in ("images", "conts", "actions", "rewards", "next_images",
                     "next_conts"):
            assert getattr(ours, name).tobytes() == getattr(oracle, name).tobytes(), name
        assert (ours.cursor, ours.size) == (oracle.cursor, oracle.size)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, TINY_IMAGE)

    def test_construction_touches_no_storage(self):
        """A 100k buffer of 20x20x2 images reserves 320 MB per image array;
        building it must not fault those pages in. Measured in a fresh
        process, where ru_maxrss (KiB on Linux) starts from the import.

        Training keeps the freed heap (keep_freed_heap), so the replay arrays
        must stay past its mmap threshold: the desk observation buffer at
        profile capacity (32 MB image arrays), built again after one was
        freed below a live block, must come from fresh pages and not from
        reused heap, which calloc zeroes by hand.
        """
        code = ("import resource\n"
                "import numpy as np\n"
                "from firescout.dqn import ReplayBuffer, keep_freed_heap\n"
                "def maxrss():\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "def rss():\n"
                "    with open('/proc/self/statm') as f:\n"
                "        return int(f.read().split()[1]) * resource.getpagesize() // 1024\n"
                "before = maxrss()\n"
                "buf = ReplayBuffer(100_000, (20, 20, 2))\n"
                "print(maxrss() - before)\n"
                "keep_freed_heap()\n"
                "before = rss()\n"
                "buf = ReplayBuffer(100_000, (10, 8, 1))\n"
                "above = np.ones(1 << 16)\n"
                "del buf\n"
                "buf = ReplayBuffer(100_000, (10, 8, 1))\n"
                "print(rss() - before)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=blas_thread_env(1),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        plain, kept = (int(line) for line in proc.stdout.split())
        assert plain < 100 * 1024
        assert kept < 16 * 1024, f"{kept / 1024:.1f} MB resident"


def toy_trainer(seed=0, gamma=0.9, period=50, iterations_cfg=1000):
    """Two-state MDP wired through the real network and trainer."""
    cfg = NetworkConfig(image_shape=TINY_IMAGE, conv_stages=0, image_dense=(),
                        continuous_dense=(16, 16), merge_dense=(16,))
    net = QNetwork(cfg, np.random.default_rng(seed))
    target = net.clone()
    img = np.zeros(TINY_IMAGE, dtype=np.float32)

    def cont(s):
        v = np.zeros(5, dtype=np.float32)
        v[s] = 1.0
        return v

    # each (state, action) pair is pushed as an owner with one peer
    pairs = [(s, a) for s in (0, 1) for a in (0, 1)]
    imgs = np.zeros((len(pairs), *TINY_IMAGE), dtype=np.float32)
    buf = ReplayBuffer(64, TINY_IMAGE)
    for _ in range(16):
        buf.push(imgs, np.array([[cont(s)] for s, _ in pairs]), [a for _, a in pairs],
                 [1.0 if a == s else 0.0 for s, a in pairs], imgs,
                 np.array([[cont(a)] for _, a in pairs]))
    tcfg = TrainingConfig(total_iterations=iterations_cfg, gamma=gamma,
                          batch_size=16, target_update_period=period,
                          prefill=0, replay_capacity=64)
    trainer = Trainer(net, target, buf, AdaMax(net.parameters(), alpha=0.002), tcfg)
    return trainer, img, cont


class TestTrainer:
    def test_loss_zero_when_targets_already_met(self):
        trainer, img, cont = toy_trainer()
        # transitions whose reward is the network's own Q value, under a target
        # whose Q-rows are zero: the error, gradients and update are exactly zero
        buf = ReplayBuffer(16, TINY_IMAGE)
        for _ in range(4):
            for s in (0, 1):
                q = forward_one(trainer.online, img, cont(s))
                for a in (0, 1):
                    c = cont(s).reshape(1, 1, 5)
                    buf.push(img[None], c, [a], [float(q[a])], img[None], c)
        trainer.buffer = buf
        trainer.target = StubNet(q_rows=np.zeros((trainer.cfg.batch_size, 2)))
        before = [p.copy() for p in trainer.online.parameters()]
        loss = trainer.train_step(np.random.default_rng(0))
        assert loss == 0.0
        for old, new in zip(before, trainer.online.parameters()):
            assert np.array_equal(old, new)

    def test_target_network_frozen_between_syncs(self):
        trainer, img, cont = toy_trainer(period=10**9)
        state = (img, cont(0))
        before = bellman_target(0.0, state, trainer.target, 0.9)
        rng = np.random.default_rng(1)
        for _ in range(5):
            trainer.train_step(rng)
        after = bellman_target(0.0, state, trainer.target, 0.9)
        assert before == after
        # the online network did move
        online_now = bellman_target(0.0, state, trainer.online, 0.9)
        assert online_now != before

    def test_target_syncs_on_schedule(self):
        trainer, img, cont = toy_trainer(period=3)
        rng = np.random.default_rng(2)
        trainer.train_step(rng)
        trainer.train_step(rng)
        p_on = trainer.online.parameters()
        p_tg = trainer.target.parameters()
        assert any(not np.array_equal(a, b) for a, b in zip(p_on, p_tg))
        trainer.train_step(rng)  # third step copies online -> target
        assert all(np.array_equal(a, b) for a, b in zip(p_on, p_tg))

    def test_two_state_mdp_loss_falls(self):
        trainer, img, cont = toy_trainer()
        rng = np.random.default_rng(1)
        losses = [trainer.train_step(rng) for _ in range(1000)]
        head = float(np.mean(losses[:100]))
        tail = float(np.mean(losses[-100:]))
        assert tail < 0.5 * head

    def test_two_state_mdp_learns_greedy_policy(self):
        trainer, img, cont = toy_trainer()
        rng = np.random.default_rng(1)
        for _ in range(1000):
            trainer.train_step(rng)
        assert int(np.argmax(forward_one(trainer.online, img, cont(0)))) == 0
        assert int(np.argmax(forward_one(trainer.online, img, cont(1)))) == 1
        # bootstrapped values approach Q* = [1/(1-g), g/(1-g)] = [10, 9]
        q0 = forward_one(trainer.online, img, cont(0))
        assert q0[0] > q0[1] > 0.5 * 9.0


class TestKeepFreedHeap:
    @pytest.mark.parametrize("approach", [BELIEF, OBSERVATION])
    def test_desk_step_takes_no_page_faults(self, approach):
        """After 3 warm-up steps a desk Trainer.train_step reuses the heap the
        step before it freed: under 50 minor page faults per step over 10
        steps (desk belief took about 1,070 while glibc gave that heap back
        after every step). In a fresh process on one BLAS thread."""
        code = ("import resource, sys\n"
                "import numpy as np\n"
                "from firescout.dqn import ReplayBuffer, Trainer\n"
                "from firescout.harness import (desk_scenario, profile_net_config,\n"
                "                               profile_training_config)\n"
                "from firescout.nn import AdaMax, QNetwork\n"
                "approach = sys.argv[1]\n"
                "config = profile_net_config('desk', approach, desk_scenario().sim)\n"
                "rng = np.random.default_rng(7)\n"
                "online = QNetwork(config, rng)\n"
                "buffer = ReplayBuffer(256, config.image_shape)\n"
                "def images():\n"
                "    return rng.integers(0, 2, (2, *config.image_shape)).astype(np.float32)\n"
                "for _ in range(64):\n"
                "    buffer.push(images(), rng.normal(size=(2, 1, 5)).astype(np.float32),\n"
                "                [0, 1], [0.5, 1.0], images(),\n"
                "                rng.normal(size=(2, 1, 5)).astype(np.float32))\n"
                "trainer = Trainer(online, online.clone(), buffer, AdaMax(online.parameters()),\n"
                "                  profile_training_config('desk', approach))\n"
                "for _ in range(3):\n"
                "    trainer.train_step(rng)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for _ in range(10):\n"
                "    trainer.train_step(rng)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        proc = subprocess.run([sys.executable, "-c", code, approach], env=blas_thread_env(1),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 10 < 50, f"{int(proc.stdout) / 10:.0f} faults per step"

    @staticmethod
    def fake_libc(monkeypatch):
        """Replace ctypes.CDLL with a library whose mallopt records its calls,
        and forget that this process has kept its heap."""
        import ctypes
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(dqn, "_heap_kept", False)
        return calls

    @pytest.mark.parametrize("confstr", ["returns None", "missing", ValueError, OSError])
    def test_does_nothing_off_glibc(self, monkeypatch, confstr):
        """Off glibc os.confstr has no CS_GNU_LIBC_VERSION value: it returns
        None, refuses the name, or does not exist (Windows)."""
        calls = self.fake_libc(monkeypatch)
        if confstr == "missing":
            monkeypatch.delattr(os, "confstr", raising=False)
        elif confstr == "returns None":
            monkeypatch.setattr(os, "confstr", lambda name: None)
        else:
            def refuse(name):
                raise confstr(name)
            monkeypatch.setattr(os, "confstr", refuse)
        dqn.keep_freed_heap()
        assert calls == []

    def test_sets_both_thresholds_once_per_process(self, monkeypatch):
        calls = self.fake_libc(monkeypatch)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        dqn.keep_freed_heap()
        assert calls == [(-3, 16 << 20), (-1, 64 << 20)]
        dqn.keep_freed_heap()
        toy_trainer()
        assert len(calls) == 2


class TestMeanStderr:
    def test_single_sample(self):
        assert mean_stderr([5.0]) == (5.0, 0.0)

    def test_frozen_three_sample_case(self):
        mean, se = mean_stderr([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert se == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_constant_scores_have_zero_stderr(self):
        assert mean_stderr([4.0, 4.0, 4.0, 4.0]) == (4.0, 0.0)


def small_sim_config(with_fire=True):
    return SimConfig(
        grid_width=10, grid_height=10, cell_size_m=10.0,
        seed_pattern=CircularSeed(center=(5, 5), radius=1) if with_fire else None,
        pregrow_seconds=0.0, horizon_seconds=3.0,
        n_range_bins=4, n_angle_bins=4, max_range_m=100.0)


def small_net_config(approach=BELIEF):
    shape = (10, 10, 2) if approach == BELIEF else (4, 4, 1)
    return NetworkConfig(image_shape=shape, conv_stages=1, conv_filters=2,
                         image_dense=(8,), continuous_dense=(8,), merge_dense=(8,))


class TestEvaluation:
    def test_fire_free_world_scores_zero(self):
        net = QNetwork(small_net_config(), np.random.default_rng(0))
        mean, se = evaluate_policy(net, small_sim_config(with_fire=False), 3,
                                   np.random.default_rng(1))
        assert mean == 0.0 and se == 0.0

    def test_policy_evaluation_deterministic(self):
        net = QNetwork(small_net_config(), np.random.default_rng(0))
        a = evaluate_policy(net, small_sim_config(), 3, np.random.default_rng(2))
        b = evaluate_policy(net, small_sim_config(), 3, np.random.default_rng(2))
        assert a == b

    @pytest.mark.parametrize("episodes", [0, -1])
    def test_no_episodes_rejected(self, episodes):
        net = QNetwork(small_net_config(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="episodes"):
            evaluate_policy(net, small_sim_config(), episodes, np.random.default_rng(1))
        with pytest.raises(ValueError, match="episodes"):
            evaluate_random(small_sim_config(), episodes, np.random.default_rng(1))

    def test_random_evaluation_deterministic_and_nonnegative(self):
        a = evaluate_random(small_sim_config(), 4, np.random.default_rng(3))
        b = evaluate_random(small_sim_config(), 4, np.random.default_rng(3))
        assert a == b
        assert a[0] >= 0.0


class TestRunTraining:
    def run_cfg(self, total):
        return TrainingConfig(total_iterations=total, batch_size=4, prefill=8,
                              replay_capacity=64, target_update_period=5,
                              eval_period=4, eval_episodes=1)

    def test_zero_iterations_returns_untrained_net(self):
        net, curve = run_training(small_sim_config(), small_net_config(),
                                  self.run_cfg(0), np.random.default_rng(0))
        assert curve == []
        assert sum(p.size for p in net.parameters()) > 0

    def test_curve_schedule(self):
        net, curve = run_training(small_sim_config(), small_net_config(),
                                  self.run_cfg(8), np.random.default_rng(0))
        assert [p.iteration for p in curve] == [0, 4, 8]
        assert math.isnan(curve[0].loss)
        assert all(math.isfinite(p.loss) for p in curve[1:])
        assert all(math.isfinite(p.mean_reward) for p in curve)

    def test_identical_seeds_identical_runs(self):
        a_net, a_curve = run_training(small_sim_config(), small_net_config(),
                                      self.run_cfg(6), np.random.default_rng(7))
        b_net, b_curve = run_training(small_sim_config(), small_net_config(),
                                      self.run_cfg(6), np.random.default_rng(7))
        assert len(a_curve) == len(b_curve)
        for pa, pb in zip(a_curve, b_curve):
            assert (pa.iteration, pa.mean_reward, pa.stderr, pa.epsilon) == \
                   (pb.iteration, pb.mean_reward, pb.stderr, pb.epsilon)
            assert pa.loss == pb.loss or (math.isnan(pa.loss) and math.isnan(pb.loss))
        for pa, pb in zip(a_net.parameters(), b_net.parameters()):
            assert np.array_equal(pa, pb)

    def test_initial_network_independent_of_horizon(self):
        # the init stream is split off before anything else consumes
        # randomness, so total_iterations=0 and >0 start from the same net
        short, _ = run_training(small_sim_config(), small_net_config(),
                                self.run_cfg(0), np.random.default_rng(9))
        cfg = self.run_cfg(4)
        sim_cfg = small_sim_config()
        net2 = QNetwork(small_net_config(), np.random.default_rng(9).spawn(4)[0])
        for a, b in zip(short.parameters(), net2.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_aircraft", [2, 3])
    def test_one_push_per_collected_step(self, monkeypatch, n_aircraft):
        pushes, steps = [], []
        for owner, name, log in ((ReplayBuffer, "push", pushes),
                                 (_Collector, "collect_step", steps)):
            def counted(*args, inner=getattr(owner, name), log=log):
                log.append(args)
                return inner(*args)
            monkeypatch.setattr(owner, name, counted)
        cfg = self.run_cfg(5)
        run_training(replace(small_sim_config(), n_aircraft=n_aircraft),
                     small_net_config(), cfg, np.random.default_rng(0))
        rows = n_aircraft * (n_aircraft - 1)
        assert len(pushes) == len(steps) == math.ceil(cfg.prefill / rows) + 5

    def test_pinned_desk_observation_parameters(self):
        """60 desk observation iterations end on pinned parameter bytes: the
        kernels, the parameter store and AdaMax keep every bit of the run."""
        sim = desk_scenario().sim
        cfg = replace(profile_training_config("desk", OBSERVATION, 60), prefill=256)
        net, _ = run_training(sim, profile_net_config("desk", OBSERVATION, sim), cfg,
                              np.random.default_rng(1234))
        digest = hashlib.sha256(b"".join(p.tobytes() for p in net.parameters())).hexdigest()
        assert digest == "8630e186c12a20974e2ea248c8b1cd0db03587e8ad887fb6fea0f2da5d891bb3"

    def test_mismatched_network_rejected(self):
        bad = NetworkConfig(image_shape=(9, 9, 2), conv_stages=1, conv_filters=2,
                            image_dense=(8,), continuous_dense=(8,), merge_dense=(8,))
        with pytest.raises(ValueError):
            run_training(small_sim_config(), bad, self.run_cfg(2),
                         np.random.default_rng(0))

    def test_single_aircraft_rejected(self):
        cfg = SimConfig(grid_width=10, grid_height=10, n_aircraft=1,
                        horizon_seconds=3.0, n_range_bins=4, n_angle_bins=4)
        with pytest.raises(ValueError):
            run_training(cfg, small_net_config(), self.run_cfg(2),
                         np.random.default_rng(0))


class TestCurveCsv:
    def test_round_trip_exact(self, tmp_path):
        curve = [
            CurvePoint(iteration=0, mean_reward=1.125, stderr=0.17,
                       epsilon=1.0, loss=float("nan")),
            CurvePoint(iteration=10, mean_reward=-2.0 / 3.0, stderr=0.01,
                       epsilon=0.55, loss=0.125),
        ]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,mean_reward,stderr,epsilon,loss"
        assert len(lines) == 3
        row = lines[2].split(",")
        assert int(row[0]) == 10
        assert float(row[1]) == -2.0 / 3.0
        assert float(row[3]) == 0.55

    def test_identical_bytes_on_rewrite(self, tmp_path):
        curve = [CurvePoint(iteration=0, mean_reward=0.1, stderr=0.2,
                            epsilon=1.0, loss=0.3)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(a, curve)
        write_curve_csv(b, curve)
        assert a.read_bytes() == b.read_bytes()
