"""Workload definitions and the round of work each one repeats.

A round trains a network with ``dqn.run_training``, writes its weights,
then scores a controller with ``harness.run_suite``. Every round of a run
uses the same seed-derived inputs, so every round must produce the same
output digest. The benchmark times the two public calls from outside and
hands the artifacts to ``checks``.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

from firescout import dqn, harness, nn
from firescout.env import BELIEF, OBSERVATION, SimConfig
from firescout.nn import NetworkConfig, QNetwork

# Purposes of the seed streams derived from the workload seed.
TRAIN_STREAM, SUITE_STREAM, PLAN_STREAM = 0, 1, 2


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str              # scenario and network profile: desk or paper
    approach: str             # observation or belief inputs for training
    n_aircraft: int
    horizon_seconds: float    # episode length for training, in-loop and suite evaluation
    train_iterations: int
    prefill: int              # transitions collected at epsilon 1 before the first gradient step
    suite_controller: str     # controller that harness.run_suite scores
    suite_episodes: int
    plan_checks: int          # RH plans re-scored outside the timed section


WORKLOADS = {w.name: w for w in (
    Workload("desk-train-belief-4ac", "desk", BELIEF, 4, 10.0, 60, 64,
             "belief-net", 10, 0),
    Workload("desk-train-obs-rh", "desk", OBSERVATION, 2, 3.0, 450, 256,
             "receding-horizon", 4, 3),
    Workload("paper-train-obs", "paper", OBSERVATION, 2, 5.0, 4, 64,
             "observation-net", 20, 0),
)}


def stream_seed(seed: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, purpose])


@dataclass(frozen=True)
class Setup:
    """Everything a round needs, built once per process."""

    workload: Workload
    seed: int
    sim: SimConfig
    net_config: NetworkConfig
    train_config: dqn.TrainingConfig
    scenario: harness.Scenario
    weights_path: str


def build(workload: Workload, seed: int, weights_path: str) -> Setup:
    base = harness.profile_scenario(workload.profile)
    sim = replace(base.sim, n_aircraft=workload.n_aircraft,
                  horizon_seconds=workload.horizon_seconds)
    net_config = harness.profile_net_config(workload.profile, workload.approach, sim)
    train_config = replace(
        harness.profile_training_config(workload.profile, workload.approach,
                                        workload.train_iterations),
        prefill=workload.prefill, eval_period=workload.train_iterations,
        eval_episodes=1)
    uses_net = workload.suite_controller in harness.NET_CONTROLLERS
    suite_seed = int(stream_seed(seed, SUITE_STREAM).generate_state(1)[0])
    scenario = replace(base, sim=sim, controller=workload.suite_controller,
                       weights_path=weights_path if uses_net else None,
                       seed=suite_seed)
    return Setup(workload, seed, sim, net_config, train_config, scenario, weights_path)


def train_rng(setup: Setup) -> np.random.Generator:
    return np.random.default_rng(stream_seed(setup.seed, TRAIN_STREAM))


def initial_network(setup: Setup) -> QNetwork:
    """The network run_training starts from: it draws init weights from
    the first of the four streams it spawns from its master generator.
    """
    return QNetwork(setup.net_config, rng=train_rng(setup).spawn(4)[0])


@contextlib.contextmanager
def captured_episodes():
    """Collect every EpisodeRecord that run_suite produces."""
    records = []
    inner = harness.run_episode

    def capture(*args, **kwargs):
        record = inner(*args, **kwargs)
        records.append(record)
        return record

    harness.run_episode = capture
    try:
        yield records
    finally:
        harness.run_episode = inner


@dataclass
class RoundResult:
    iterations: int
    train_s: float
    steps: int
    eval_s: float
    curve: list
    net: QNetwork
    weights: bytes
    records: list
    digest: str


def output_digest(weights: bytes, records) -> str:
    h = hashlib.sha256(weights)
    for r in records:
        h.update(repr(r.total_score).encode() + b"\n")
    return h.hexdigest()


def run_round(setup: Setup) -> RoundResult:
    """One training run then one evaluation suite, each timed as a whole."""
    w = setup.workload
    rng = train_rng(setup)
    t0 = time.perf_counter()
    net, curve = dqn.run_training(setup.sim, setup.net_config, setup.train_config, rng)
    train_s = time.perf_counter() - t0

    nn.save_weights(net, setup.weights_path)
    with open(setup.weights_path, "rb") as f:
        weights = f.read()

    with captured_episodes() as records:
        t0 = time.perf_counter()
        harness.run_suite(setup.scenario, w.suite_episodes)
        eval_s = time.perf_counter() - t0
    steps = sum(len(r.times_s) for r in records)
    return RoundResult(iterations=w.train_iterations, train_s=train_s, steps=steps,
                       eval_s=eval_s, curve=curve, net=net, weights=weights,
                       records=records, digest=output_digest(weights, records))
