"""End-to-end checks, one test per stated requirement.

Run with -v to get a pass/fail line per requirement. The two training
tests (09, 10) dominate the runtime; everything else finishes in
seconds.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import firescout
from firescout.aircraft import Action, AircraftState, SPEED, integrate
from firescout.dqn import (
    ReplayBuffer,
    Trainer,
    TrainingConfig,
    evaluate_policy,
    evaluate_random,
    run_training,
    select_action_multi,
)
from firescout.env import SimConfig, SurveillanceSim
from firescout.fire import (
    CircularSeed,
    FireGrid,
    PropagationParams,
    Wind,
    apply_seed,
    ignition_probability_map,
    new_grid,
    step_fire,
)
from firescout.harness import desk_scenario, profile_net_config
from firescout.nn import AdaMax, NetworkConfig, QNetwork
from firescout.receding_horizon import RHConfig, optimize_trajectory
from firescout.sensing import (
    BeliefMap,
    build_range_bins,
    ego_belief_image,
    render_observation,
    update_belief,
)
from test_nn import forward_one, vector_views
from test_receding_horizon import rollout_score

# Desk training run for requirement 09, pinned so the result is
# reproducible: seed, iteration count and evaluation seed together fix
# every float in the run.
DESK_TRAIN_SEED = 2
DESK_EVAL_SEED = 42
DESK_ITERATIONS = 40_000
DESK_TRAINING = dict(approach="observation", gamma=0.9, epsilon_end=0.2,
                     target_update_period=500, prefill=5000,
                     replay_capacity=100_000, eval_episodes=2)


# -- 1. fire model statistics ------------------------------------------------

def test_01_fire_ignition_frequencies_match_analytic():
    """20,000 one-step trials on a 7x7 grid, 3 binomial sigma per cell."""
    rng = np.random.default_rng(2024)
    grid = apply_seed(new_grid(7, 7, 15.0, 20.0, rng),
                      CircularSeed(center=(3, 3), radius=0))
    assert int(grid.burning.sum()) == 1

    params = PropagationParams()
    wind = Wind()
    analytic = ignition_probability_map(grid, params, wind)

    trials = 20_000
    start = time.monotonic()
    counts = np.zeros((7, 7), dtype=np.int64)
    for _ in range(trials):
        after = step_fire(grid, params, wind, rng)
        counts += after.burning & ~grid.burning
    elapsed = time.monotonic() - start

    freq = counts / trials
    sigma = np.sqrt(analytic * (1.0 - analytic) / trials)
    # zero-probability cells have sigma 0 and must never ignite
    assert np.all(np.abs(freq - analytic) <= 3.0 * sigma + 1e-15)
    assert np.all(freq[analytic == 0.0] == 0.0)
    assert np.any(analytic > 0.0)
    assert elapsed < 10.0


# -- 2. fire update semantics ------------------------------------------------

def test_02_fire_update_semantics_exact():
    params = PropagationParams()
    wind = Wind()
    rng = np.random.default_rng(5)

    fuel = np.full((5, 5), 3.0)
    burning = np.zeros((5, 5), dtype=bool)
    burning[2, 2] = True
    g = FireGrid(fuel=fuel.copy(), burning=burning.copy())

    # burning cells lose exactly beta fuel per step
    g1 = step_fire(g, params, wind, rng)
    assert g1.fuel[2, 2] == 2.0

    # a cell reaching zero fuel extinguishes and stays off the fire map
    g = FireGrid(fuel=np.full((5, 5), 1.0), burning=burning.copy())
    g1 = step_fire(g, params, wind, rng)
    assert g1.fuel[2, 2] == 0.0
    assert not g1.burning[2, 2]

    # burned-out and fuel-free cells have ignition probability zero and
    # never reignite, regardless of burning neighbors
    fuel = np.full((5, 5), 5.0)
    fuel[2, 3] = 0.0
    burning = np.zeros((5, 5), dtype=bool)
    burning[2, 2] = True
    g = FireGrid(fuel=fuel, burning=burning)
    probs = ignition_probability_map(g, params, wind)
    assert probs[2, 3] == 0.0
    assert probs[2, 2] == 0.0  # already burning
    for _ in range(30):
        g = step_fire(g, params, wind, rng)
        assert not g.burning[2, 3]
    assert not g.burning.any()  # everything burned out within fuel budget

    # fuel never goes negative
    assert np.all(g.fuel >= 0.0)


# -- 3. kinematic closure ----------------------------------------------------

def test_03_constant_bank_closes_circle():
    phi = math.radians(30.0)
    omega = 9.81 * math.tan(phi) / SPEED
    period = 2.0 * math.pi / omega
    radius = SPEED / omega
    assert period == pytest.approx(22.19, abs=0.005)
    assert radius == pytest.approx(70.62, abs=0.005)

    start = AircraftState(x=12.0, y=-3.0, psi=0.7, phi=phi)
    end = integrate(start, period)
    assert math.hypot(end.x - start.x, end.y - start.y) < 1e-6

    # the same closure holds when flown in 0.1 s decision steps
    state = start
    steps = int(round(period / 0.1))
    for _ in range(steps):
        state = integrate(state, period / steps)
    assert math.hypot(state.x - start.x, state.y - start.y) < 1e-6


# -- 4. observation oracle ---------------------------------------------------

def test_04_observation_matches_exhaustive_scan():
    bins = build_range_bins(40, 500.0)
    assert bins.cutpoints[0] == 0.0
    assert bins.cutpoints[-1] == 500.0
    widths = np.diff(bins.cutpoints)
    assert math.fsum(widths) == 500.0
    assert widths[-1] / widths[0] == pytest.approx(10.0, rel=1e-9)

    rng = np.random.default_rng(77)
    n_angle = 30
    sector = 2.0 * math.pi / n_angle
    for case in range(100):
        grid = new_grid(30, 30, 10.0, 12.0, rng)
        grid.burning = rng.random((30, 30)) < 0.15
        pose = AircraftState(x=float(rng.uniform(-50, 350)),
                             y=float(rng.uniform(-50, 350)),
                             psi=float(rng.uniform(-math.pi, math.pi)))
        obs = render_observation(grid, pose, bins, n_angle)
        for i in range(40):
            r = bins.centers[i]
            for j in range(n_angle):
                bearing = pose.psi + (j + 0.5) * sector
                px = pose.x + r * math.cos(bearing)
                py = pose.y + r * math.sin(bearing)
                ix = math.floor(px / grid.cell_size)
                iy = math.floor(py / grid.cell_size)
                if 0 <= ix < 30 and 0 <= iy < 30:
                    expected = bool(grid.burning[iy, ix])
                else:
                    expected = False
                assert obs.values[i, j] == expected


# -- 5. belief map properties ------------------------------------------------

def test_05_belief_properties_over_random_steps():
    rng = np.random.default_rng(4242)
    params = PropagationParams()
    wind = Wind()
    grid = apply_seed(new_grid(20, 20, 15.0, 20.0, rng, cell_size=10.0),
                      CircularSeed(center=(10, 10), radius=2))
    belief = BeliefMap.initial(grid.burning, cell_size=10.0)
    pose = AircraftState(x=100.0, y=100.0, psi=0.0)

    cell = grid.cell_size
    yy, xx = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
    centers_x = (xx + 0.5) * cell
    centers_y = (yy + 0.5) * cell

    for step in range(1000):
        # drifting pose, occasionally teleported to keep coverage varied
        if step % 97 == 0:
            pose = AircraftState(x=float(rng.uniform(-30, 230)),
                                 y=float(rng.uniform(-30, 230)),
                                 psi=float(rng.uniform(-math.pi, math.pi)))
        else:
            pose = integrate(pose, 0.2)
        if step % 25 == 0:
            grid = step_fire(grid, params, wind, rng)

        prev = belief
        belief, discovered = update_belief(belief, grid, [pose])

        dist = np.hypot(centers_x - pose.x, centers_y - pose.y)
        visited = dist <= 100.0
        # visited cells copy the truth and reset their staleness
        assert np.array_equal(belief.fire[visited], grid.burning[visited])
        assert np.all(belief.time_since[visited] == 0)
        # unvisited cells keep their estimate and age, capped at 255
        assert np.array_equal(belief.fire[~visited], prev.fire[~visited])
        expected_age = np.minimum(prev.time_since[~visited].astype(np.int64) + 1, 255)
        assert np.array_equal(belief.time_since[~visited], expected_age)
        assert discovered == int((visited & grid.burning & ~prev.fire).sum())

    # ego image: out-of-grid pixels read (no fire, fully stale)
    corner = AircraftState(x=-500.0, y=-500.0, psi=0.3)
    image = ego_belief_image(belief, corner)
    assert image.shape == (20, 20, 2)
    assert np.all(image[..., 0] == 0.0)
    assert np.all(image[..., 1] == 1.0)


# -- 6. gradient check -------------------------------------------------------

def _numeric_gradient(f, arr, eps=1e-6):
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + eps
        hi = f()
        arr[idx] = keep - eps
        lo = f()
        arr[idx] = keep
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def test_06_network_gradient_check():
    """Central finite differences across every parameter of a dual-branch
    net with a 12x10x1 image input, double precision, rel err < 1e-4."""
    config = NetworkConfig(image_shape=(12, 10, 1), conv_stages=3,
                           conv_filters=4, image_dense=(16,),
                           continuous_dense=(8, 8), merge_dense=(12,))
    net = QNetwork(config, np.random.default_rng(31), dtype=np.float64)
    rng = np.random.default_rng(32)
    images = rng.normal(size=(4, 12, 10, 1))
    conts = rng.normal(size=(4, 5))
    actions = rng.integers(0, 2, 4)
    targets = rng.normal(size=4)

    def objective():
        loss, _ = net.loss_and_gradients(images, conts, actions, targets)
        return loss

    _, analytic = net.loss_and_gradients(images, conts, actions, targets)
    for param, grad in zip(net.parameters(), analytic):
        numeric = _numeric_gradient(objective, param)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-6)
        assert np.max(np.abs(grad - numeric) / denom) < 1e-4


# -- 7. optimizer convergence ------------------------------------------------

def test_07_adamax_minimizes_quadratic():
    params = vector_views(np.array([5.0]))
    theta = params[0]
    opt = AdaMax(params, alpha=0.03)
    crossed = None
    for step in range(1, 1001):
        opt.step(params, vector_views(2.0 * theta))
        if crossed is None and abs(theta[0]) < 1e-3:
            crossed = step
    assert crossed is not None and crossed <= 1000

    # the update rule matches an independent scalar transcription,
    # float for float
    params = vector_views(np.array([5.0]))
    theta = params[0]
    opt = AdaMax(params, alpha=0.03)
    t_ref, m, u = 5.0, 0.0, 0.0
    b1, b2 = 0.9, 0.999
    for step in range(1, 201):
        g = 2.0 * t_ref
        opt.step(params, vector_views(np.array([g])))
        m = m * b1 + (1.0 - b1) * g
        u = max(b2 * u, abs(g))
        scale = 0.03 / (1.0 - b1 ** step)
        t_ref -= scale * m / max(u, 1e-8)
        assert theta[0] == t_ref


# -- 8. DQN sanity on a toy MDP ----------------------------------------------

def _toy_components(alpha=0.002, period=50):
    """Deterministic 2-state MDP: action == state pays 1, next state is
    the chosen action. gamma 0.9 gives Q*(s, s) = 10, Q*(s, 1-s) = 9."""
    config = NetworkConfig(image_shape=(1, 1, 1), conv_stages=0,
                           image_dense=(), continuous_dense=(16, 16),
                           merge_dense=(16,))
    net = QNetwork(config, np.random.default_rng(3))
    target = net.clone()
    buffer = ReplayBuffer(64, config.image_shape)
    image = np.zeros((1, 1, 1), dtype=np.float32)
    # one push per (state, action) pair: an owner with one peer
    for _ in range(16):
        for s in (0, 1):
            for a in (0, 1):
                cont = np.zeros((1, 1, 5), dtype=np.float32)
                cont[..., s] = 1.0
                nxt = np.zeros((1, 1, 5), dtype=np.float32)
                nxt[..., a] = 1.0
                buffer.push(image[None], cont, [a], [1.0 if a == s else 0.0],
                            image[None], nxt)
    cfg = TrainingConfig(total_iterations=1000, approach="belief", gamma=0.9,
                         batch_size=16, target_update_period=period,
                         prefill=0, replay_capacity=64)
    trainer = Trainer(net, target, buffer, AdaMax(net.parameters(), alpha=alpha), cfg)
    return net, target, trainer, image


def test_08_toy_mdp_loss_falls_and_target_holds_between_syncs():
    net, target, trainer, image = _toy_components()
    rng = np.random.default_rng(0)
    losses = [trainer.train_step(rng) for _ in range(1000)]
    head = float(np.mean(losses[:100]))
    tail = float(np.mean(losses[900:1000]))
    assert tail < 0.5 * head

    # the greedy policy is correct in both states
    for s in (0, 1):
        cont = np.zeros(5, dtype=np.float32)
        cont[s] = 1.0
        q = forward_one(net, image, cont)
        assert int(np.argmax(q)) == s

    # target outputs are bit-frozen between syncs
    net, target, trainer, image = _toy_components(period=37)
    rng = np.random.default_rng(1)
    probe_c = np.zeros((4, 5), dtype=np.float32)
    probe_c[np.arange(4) % 2 == 0, 0] = 1.0
    probe_c[np.arange(4) % 2 == 1, 1] = 1.0
    probe_i = np.zeros((4, 1, 1, 1), dtype=np.float32)
    reference = target.forward_batch(probe_i, probe_c)
    for step in range(1, 120):
        trainer.train_step(rng)
        now = target.forward_batch(probe_i, probe_c)
        if step % 37 == 0:
            reference = now
        else:
            assert np.array_equal(now, reference)


# -- 9. desk-scale training ordering -----------------------------------------

def test_09_desk_training_beats_initial_and_random():
    sim = desk_scenario().sim
    net_cfg = profile_net_config("desk", "observation", sim)
    cfg = TrainingConfig(total_iterations=DESK_ITERATIONS, **DESK_TRAINING)

    start = time.monotonic()
    net, curve = run_training(sim, net_cfg, cfg,
                              np.random.default_rng(DESK_TRAIN_SEED))
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0

    initial = QNetwork(net_cfg,
                       np.random.default_rng(DESK_TRAIN_SEED).spawn(4)[0])
    final_mean, _ = evaluate_policy(net, sim, 20,
                                    np.random.default_rng(DESK_EVAL_SEED))
    init_mean, _ = evaluate_policy(initial, sim, 20,
                                   np.random.default_rng(DESK_EVAL_SEED))
    rand_mean, _ = evaluate_random(sim, 20,
                                   np.random.default_rng(DESK_EVAL_SEED))
    assert final_mean >= 2.0 * init_mean
    assert final_mean >= 1.5 * rand_mean


# -- 10. receding-horizon baseline ordering ----------------------------------

def test_10_receding_horizon_beats_random():
    from firescout.harness import run_suite
    sc = desk_scenario()
    entries = run_suite(sc, 20, controllers=["receding-horizon", "random"])
    rh, rand = entries[0].mean, entries[1].mean
    assert rh >= 2.0 * rand


def test_10b_coordinate_descent_matches_exhaustive_at_t6():
    rng = np.random.default_rng(88)
    cfg = RHConfig(horizon_steps=6, execute_steps=2, restarts=24)
    bins = cfg.bins()
    matched = 0
    for scene in range(50):
        grid = new_grid(30, 30, 10.0, 12.0, rng)
        grid.burning = rng.random((30, 30)) < 0.08
        start = AircraftState(x=float(rng.uniform(0, 300)),
                              y=float(rng.uniform(0, 300)),
                              psi=float(rng.uniform(-math.pi, math.pi)),
                              phi=float(rng.uniform(-0.5, 0.5)))
        best = -math.inf
        for code in range(2 ** 6):
            plan = [Action((code >> k) & 1) for k in range(6)]
            best = max(best, rollout_score(grid, start, plan, [], cfg.weights,
                                           bins, cfg.n_angle_bins))
        _, score = optimize_trajectory(grid, start, [], cfg, rng.spawn(1)[0])
        assert score <= best + 1e-9
        if score >= best - 1e-9:
            matched += 1
    assert matched >= 45


# -- 11. pairwise decomposition ----------------------------------------------

def test_11_multi_aircraft_selection_equals_pairwise_greedy():
    config = NetworkConfig(image_shape=(8, 8, 2), conv_stages=1,
                           conv_filters=4, image_dense=(16,),
                           continuous_dense=(8,), merge_dense=(16,))
    net = QNetwork(config, np.random.default_rng(55))
    rng = np.random.default_rng(56)
    for _ in range(1000):
        image = rng.random((8, 8, 2), dtype=np.float32)
        cont = rng.standard_normal(5).astype(np.float32)
        multi = select_action_multi(net, image, [cont])
        single = Action(int(np.argmax(forward_one(net, image, cont))))
        assert multi == single


# -- 12. CLI determinism -----------------------------------------------------

TINY_SCENARIO = """{
  "grid": {"width_cells": 10, "height_cells": 10, "cell_size_m": 10.0},
  "seed_pattern": {"kind": "circular", "center_cell": [5, 5], "radius_cells": 1},
  "pregrow_seconds": 0.0,
  "horizon_seconds": 3.0,
  "observation": {"n_range_bins": 4, "n_angle_bins": 4, "max_range_m": 100.0},
  "receding_horizon": {"horizon_steps": 6, "execute_steps": 2, "restarts": 1},
  "rng_seed": 9
}
"""


def _cli(args, cwd):
    # The child must import the same package this process did. A relative
    # PYTHONPATH entry (e.g. PYTHONPATH=src) would resolve against cwd, so
    # put the package's parent directory on the path as an absolute entry.
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(firescout.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "firescout.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"firescout {args[0]} failed (cwd={cwd}, "
        f"PYTHONPATH={env['PYTHONPATH']}):\n{proc.stderr}")
    return proc.stdout


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as f:
                out[rel] = f.read()
    return out


def test_12_cli_reruns_are_byte_identical(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(TINY_SCENARIO)
    cwd = str(tmp_path)

    commands = {
        "train": ["train", "--config", "tiny.json", "--iterations", "3",
                  "--approach", "observation", "--out", "train_out"],
        "evaluate": ["evaluate", "--config", "train_out/scenario_eval.json",
                     "--episodes", "2", "--out", "eval_out"],
        "baseline": ["baseline", "--config", "tiny.json", "--episodes", "2",
                     "--out", "base_out"],
        "render": ["render", "--config", "tiny.json", "--snapshot-every", "10",
                   "--out", "render_out"],
    }
    # each command runs twice into the same directory; the second pass
    # must overwrite every artifact with identical bytes (and identical
    # stdout, paths aside)
    first_bytes, first_stdout = {}, {}
    for name, args in commands.items():
        first_stdout[name] = _cli(args, cwd)
        first_bytes[name] = _tree_bytes(tmp_path / f"{args[args.index('--out') + 1]}")
    for name, args in commands.items():
        stdout = _cli(args, cwd)
        assert stdout == first_stdout[name]
        again = _tree_bytes(tmp_path / f"{args[args.index('--out') + 1]}")
        assert set(again) == set(first_bytes[name])
        for rel, data in again.items():
            assert data == first_bytes[name][rel], \
                f"{name}/{rel} differs between reruns"
