"""Tests for the replay buffer, action selection and the training loop.

The Bellman literal 1 + 0.99 * 2 == 2.98, the epsilon midpoint 0.55 and
the pairwise decomposition case (1,2)+(4,1) -> (5,3) -> action 0 are
frozen by hand. The two-state MDP oracle has Q* = [1/(1-g), g/(1-g)].
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import firescout
from firescout.aircraft import Action
from firescout.dqn import (
    CurvePoint,
    ReplayBuffer,
    Trainer,
    TrainingConfig,
    Transition,
    bellman_target,
    epsilon,
    evaluate_policy,
    evaluate_random,
    mean_stderr,
    run_training,
    select_action,
    select_action_multi,
    write_curve_csv,
)
from firescout.env import BELIEF, OBSERVATION, SimConfig
from firescout.fire import CircularSeed
from firescout.nn import AdaMax, NetworkConfig, QNetwork

TINY_IMAGE = (1, 1, 1)


class StubNet:
    """Fixed Q-table stand-in; complains when it should not be consulted."""

    def __init__(self, q=None, q_rows=None):
        self.q = q
        self.q_rows = q_rows
        self.calls = 0

    def forward(self, image, cont):
        if self.q is None:
            raise AssertionError("forward should not have been called")
        self.calls += 1
        return np.asarray(self.q, dtype=np.float64)

    def forward_batch(self, images, conts):
        if self.q_rows is None:
            raise AssertionError("forward_batch should not have been called")
        self.calls += 1
        return np.asarray(self.q_rows, dtype=np.float64)


def tiny_transition(reward=0.0, action=0, terminal=False, cont=None):
    img = np.zeros(TINY_IMAGE, dtype=np.float32)
    c = np.zeros(5, dtype=np.float32) if cont is None else cont
    return Transition(image=img, cont=c, action=action, reward=reward,
                      next_image=img, next_cont=c, terminal=terminal)


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


class TestSelectAction:
    def state(self):
        return (np.zeros(TINY_IMAGE, dtype=np.float32), np.zeros(5, dtype=np.float32))

    def test_greedy_picks_argmax(self):
        net = StubNet(q=[0.3, 0.9])
        a = select_action(net, self.state(), 0.0, np.random.default_rng(0))
        assert a == Action.BANK_LEFT

    def test_tie_resolves_to_action_zero(self):
        net = StubNet(q=[0.5, 0.5])
        a = select_action(net, self.state(), 0.0, np.random.default_rng(0))
        assert a == Action.BANK_RIGHT
        assert int(a) == 0

    def test_greedy_consumes_no_randomness(self):
        net = StubNet(q=[1.0, 0.0])
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
            select_action(StubNet(q=[0, 1]), self.state(), 1.5, np.random.default_rng(0))


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


class TestBellmanTarget:
    def test_frozen_value(self):
        net = StubNet(q=[2.0, 1.0])
        state = (np.zeros(TINY_IMAGE), np.zeros(5))
        assert bellman_target(1.0, state, False, net, 0.99) == 2.98

    def test_terminal_skips_bootstrap(self):
        net = StubNet()  # raises if queried
        assert bellman_target(-0.5, (None, None), True, net, 0.99) == -0.5

    def test_zero_gamma_is_reward_plus_nothing(self):
        net = StubNet(q=[100.0, 50.0])
        state = (np.zeros(TINY_IMAGE), np.zeros(5))
        assert bellman_target(0.25, state, False, net, 0.0) == 0.25


class TestReplayBuffer:
    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(3, TINY_IMAGE)
        for r in (1.0, 2.0, 3.0, 4.0, 5.0):
            buf.push(tiny_transition(reward=r))
        assert len(buf) == 3
        assert set(buf.rewards.tolist()) == {3.0, 4.0, 5.0}

    def test_push_stores_all_fields(self):
        buf = ReplayBuffer(4, TINY_IMAGE)
        cont = np.arange(5, dtype=np.float32)
        buf.push(tiny_transition(reward=-2.5, action=1, terminal=True, cont=cont))
        assert buf.actions[0] == 1
        assert buf.rewards[0] == -2.5
        assert buf.terminals[0]
        assert np.array_equal(buf.conts[0], cont)

    def test_underfilled_sampling_rejected(self):
        buf = ReplayBuffer(10, TINY_IMAGE)
        buf.push(tiny_transition())
        with pytest.raises(ValueError):
            buf.sample_indices(2, np.random.default_rng(0))

    def test_sampling_is_uniform(self):
        buf = ReplayBuffer(10, TINY_IMAGE)
        for r in range(10):
            buf.push(tiny_transition(reward=float(r)))
        rng = np.random.default_rng(99)
        counts = np.zeros(10)
        draws = 2000 * 10
        for _ in range(2000):
            idx = buf.sample_indices(10, rng)
            np.add.at(counts, idx, 1)
        freq = counts / draws
        sigma = math.sqrt(0.1 * 0.9 / draws)
        assert np.abs(freq - 0.1).max() < 3 * sigma

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, TINY_IMAGE)

    def test_construction_touches_no_storage(self):
        """A 100k buffer of 20x20x2 images reserves 320 MB per image array;
        building it must not fault those pages in. Measured in a fresh
        process, where ru_maxrss (KiB on Linux) starts from the import.
        """
        code = ("import resource\n"
                "from firescout.dqn import ReplayBuffer\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "buf = ReplayBuffer(100_000, (20, 20, 2))\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(firescout.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100 * 1024


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

    buf = ReplayBuffer(64, TINY_IMAGE)
    for _ in range(16):
        for s in (0, 1):
            for a in (0, 1):
                buf.push(Transition(image=img, cont=cont(s), action=a,
                                    reward=1.0 if a == s else 0.0,
                                    next_image=img, next_cont=cont(a),
                                    terminal=False))
    tcfg = TrainingConfig(total_iterations=iterations_cfg, gamma=gamma,
                          batch_size=16, target_update_period=period,
                          prefill=0, replay_capacity=64)
    trainer = Trainer(net, target, buf, AdaMax(net.parameters(), alpha=0.002), tcfg)
    return trainer, img, cont


class TestTrainer:
    def test_loss_zero_when_targets_already_met(self):
        trainer, img, cont = toy_trainer()
        # terminal transitions whose reward is the network's own Q value:
        # the error, gradients and parameter update are all exactly zero
        buf = ReplayBuffer(16, TINY_IMAGE)
        for _ in range(4):
            for s in (0, 1):
                q = trainer.online.forward(img, cont(s))
                for a in (0, 1):
                    buf.push(Transition(image=img, cont=cont(s), action=a,
                                        reward=float(q[a]), next_image=img,
                                        next_cont=cont(s), terminal=True))
        trainer.buffer = buf
        before = [p.copy() for p in trainer.online.parameters()]
        loss = trainer.train_step(np.random.default_rng(0))
        assert loss == 0.0
        for old, new in zip(before, trainer.online.parameters()):
            assert np.array_equal(old, new)

    def test_target_network_frozen_between_syncs(self):
        trainer, img, cont = toy_trainer(period=10**9)
        state = (img, cont(0))
        before = bellman_target(0.0, state, False, trainer.target, 0.9)
        rng = np.random.default_rng(1)
        for _ in range(5):
            trainer.train_step(rng)
        after = bellman_target(0.0, state, False, trainer.target, 0.9)
        assert before == after
        # the online network did move
        online_now = bellman_target(0.0, state, False, trainer.online, 0.9)
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
        assert int(np.argmax(trainer.online.forward(img, cont(0)))) == 0
        assert int(np.argmax(trainer.online.forward(img, cont(1)))) == 1
        # bootstrapped values approach Q* = [1/(1-g), g/(1-g)] = [10, 9]
        q0 = trainer.online.forward(img, cont(0))
        assert q0[0] > q0[1] > 0.5 * 9.0


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
        assert net.n_parameters > 0

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
