"""Self-tests of the benchmark on tiny sizes.

Run from the repository root:  python -m pytest -q benchmark
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402

bootstrap.require_package()

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from firescout import env  # noqa: E402
from firescout.env import OBSERVATION, SurveillanceSim  # noqa: E402
from firescout.receding_horizon import optimize_trajectory  # noqa: E402
from tracer import Tracer, grad_step_mflop, layer_metrics  # noqa: E402

TINY = workloads.Workload("tiny", "desk", OBSERVATION, 2, 1.0, 4, 64,
                          "observation-net", 2, 1)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tiny") / "weights.bin")
    setup = workloads.build(TINY, 7, path)
    return setup, workloads.run_round(setup)


def test_traced_round_gives_the_untraced_digest_and_every_layer_metric(tiny):
    setup, plain = tiny
    original = env.step_fire
    tracer = Tracer()
    with tracer.traced_round():
        traced = workloads.run_round(setup)
    assert env.step_fire is original
    assert traced.digest == plain.digest

    metrics, problems = layer_metrics(tracer, grad_step_mflop(setup.net_config, 64))
    assert problems == []
    expected = set(run.PER_LAYER) - {"trace.overhead.train_pct", "trace.overhead.eval_pct"}
    assert set(metrics) == expected
    assert metrics["dqn.train_step.ms"] > 0
    assert metrics["env.step.calls"] > 0
    assert metrics["nn.forward_batch.rows"] == metrics["nn.forward_batch.calls"]


def test_outputs_of_a_real_round_pass_every_check(tiny, tmp_path):
    setup, r = tiny
    assert checks.check_curve(r.curve, setup.train_config, setup.sim) == []
    initial = workloads.initial_network(setup)
    assert checks.check_network(r.net, initial, str(tmp_path / "w.bin")) == []
    assert len(r.records) == TINY.suite_episodes
    for record in r.records:
        assert checks.check_episode(record, setup.sim) == []


@pytest.mark.parametrize("plant", ["epsilon", "score", "loss", "last_iteration"])
def test_curve_check_rejects_planted_errors(tiny, plant):
    setup, r = tiny
    curve = list(r.curve)
    last = curve[-1]
    if plant == "epsilon":
        curve[-1] = replace(last, epsilon=last.epsilon + 1e-3)
    elif plant == "score":
        curve[-1] = replace(last, mean_reward=-1.0)
    elif plant == "loss":
        curve[-1] = replace(last, loss=-0.5)
    else:
        curve = curve[:-1]
    assert checks.check_curve(curve, setup.train_config, setup.sim)


def test_network_check_rejects_planted_errors(tiny, tmp_path, monkeypatch):
    setup, r = tiny
    initial = workloads.initial_network(setup)
    path = str(tmp_path / "w.bin")

    assert checks.check_network(initial, initial, path)          # never trained

    broken = r.net.clone()
    broken.parameters()[0].flat[0] = np.nan
    assert checks.check_network(broken, initial, path)

    real_load = checks.load_weights

    def lossy_load(p):
        net = real_load(p)
        net.parameters()[-1].flat[0] += np.float32(1e-3)
        return net

    monkeypatch.setattr(checks, "load_weights", lossy_load)
    assert checks.check_network(r.net, initial, path)


@pytest.mark.parametrize("plant", ["cumulative", "total", "displacement", "bank"])
def test_episode_check_rejects_planted_errors(tiny, plant):
    setup, r = tiny
    record = r.records[0]
    k = len(record.states) // 2
    if plant == "cumulative":
        cumulative = list(record.cumulative)
        cumulative[k] += 1.0
        record = replace(record, cumulative=cumulative)
    elif plant == "total":
        record = replace(record, total_score=record.total_score + 1.0)
    else:
        states = list(record.states)
        a = states[k][0]
        moved = (replace(a, x=a.x + 1.0) if plant == "displacement"
                 else replace(a, phi=a.phi + math.radians(10.0)))
        states[k] = (moved,) + tuple(states[k][1:])
        record = replace(record, states=states)
    assert checks.check_episode(record, setup.sim)


@pytest.fixture(scope="module")
def plan_scene(tiny):
    setup, _ = tiny
    rng = np.random.default_rng(3)
    sim = SurveillanceSim(setup.sim)
    sim.reset(rng)
    cfg = setup.scenario.rh
    plan, score = optimize_trajectory(sim.grid, sim.aircraft[0], sim.aircraft[1:], cfg, rng)
    return sim.grid, sim.aircraft[0], sim.aircraft[1:], cfg, plan, score


def test_plan_check_accepts_the_planner_and_rejects_planted_errors(plan_scene):
    grid, start, peers, cfg, plan, score = plan_scene
    assert checks.check_plan(grid, start, peers, cfg, plan, score) == []
    # a shifted score
    assert checks.check_plan(grid, start, peers, cfg, plan, score + 1e-3)
    # a flipped action, reported with the unflipped plan's score
    flipped = list(plan)
    flipped[5] = type(plan[5])(1 - int(plan[5]))
    assert checks.check_plan(grid, start, peers, cfg, flipped, score)
    # a plan that coordinate descent would not stop at, with its true score
    rng = np.random.default_rng(11)
    worse = [type(plan[0])(int(a)) for a in rng.integers(2, size=len(plan))]
    fresh = checks.fresh_plan_score(grid, start, worse, peers, cfg)
    assert any("flipping" in p for p in checks.check_plan(grid, start, peers, cfg, worse, fresh))


def test_digest_moves_with_a_shifted_score(tiny):
    _, r = tiny
    shifted = [replace(r.records[0], total_score=r.records[0].total_score + 1.0)] + r.records[1:]
    assert workloads.output_digest(r.weights, shifted) != r.digest


def test_benchmark_json_matches_the_metrics_and_workloads_run_prints():
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bootstrap.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "desk-train-obs-rh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
