"""Q-learning loop: replay, epsilon-greedy self-play, fixed targets.

Every aircraft flies the same online network. A transition is recorded
per (aircraft, peer) pair, so the network only ever learns the pairwise
value it is later queried for; with two aircraft this is exactly one
transition per aircraft per step. Action selection with several peers
sums the pairwise Q-rows before the argmax. One QNetwork.forward_team
call scores a whole decision step: the image branch runs once per
aircraft, the continuous branch once per ordered pair. Likewise one
ReplayBuffer.push writes a whole decision step from the team's arrays,
one row per ordered pair.

Evaluation flies env.play with a policy callable and always scores the
accumulated discovery reward of the shared belief map, whatever inputs
the flying network consumes.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .aircraft import Action
from .env import BELIEF, N_PAIR_INPUTS, OBSERVATION, SimConfig, SurveillanceSim, play, \
    random_policy
from .nn import AdaMax, NetworkConfig, QNetwork, copy_weights


class ReplayBuffer:
    """Preallocated ring storage of pairwise transitions, uniform sampling."""

    def __init__(self, capacity: int, image_shape: tuple[int, int, int]):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.images = np.zeros((capacity, *image_shape), dtype=np.float32)
        self.conts = np.zeros((capacity, N_PAIR_INPUTS), dtype=np.float32)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.next_images = np.zeros(self.images.shape, self.images.dtype)
        self.next_conts = np.zeros(self.conts.shape, self.conts.dtype)
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def push(self, images, conts, actions, rewards, next_images, next_conts) -> None:
        """Write one decision step from the team's arrays: images (n, h, w, c),
        pair inputs (n, p, N_PAIR_INPUTS), actions and rewards (n,). Its n*p
        pair rows go in owner-major order; when they outnumber the ring, the
        last capacity rows are kept, as n*p single-row writes would leave it.
        Every episode ends at its time limit, not in a terminal state, so
        each row bootstraps from its next state (Pardo et al. 2018).
        """
        n, p = conts.shape[:2]
        rows = n * p
        kept = np.arange(max(0, rows - self.capacity), rows)
        slots = (self.cursor + kept) % self.capacity
        owners = kept // p
        self.images[slots] = images[owners]
        self.conts[slots] = conts.reshape(rows, -1)[kept]
        self.actions[slots] = np.asarray(actions)[owners]
        self.rewards[slots] = np.asarray(rewards)[owners]
        self.next_images[slots] = next_images[owners]
        self.next_conts[slots] = next_conts.reshape(rows, -1)[kept]
        self.cursor = (self.cursor + rows) % self.capacity
        self.size = min(self.size + rows, self.capacity)

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} transitions, need {batch_size}")
        return rng.integers(0, self.size, size=batch_size)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = self.sample_indices(batch_size, rng)
        return (self.images[idx], self.conts[idx], self.actions[idx],
                self.rewards[idx], self.next_images[idx], self.next_conts[idx])


@dataclass(frozen=True)
class TrainingConfig:
    total_iterations: int
    approach: str = BELIEF
    gamma: float = 0.99
    batch_size: int = 64
    target_update_period: int = 1000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_decay_iters: int | None = None    # None: half of total_iterations
    prefill: int = 50_000
    replay_capacity: int = 100_000
    eval_period: int | None = None            # None: 5 curve points
    eval_episodes: int = 3

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon cannot increase over training")
        if self.total_iterations < 0 or self.batch_size < 1:
            raise ValueError("invalid iteration count or batch size")
        if self.target_update_period < 1:
            raise ValueError("target_update_period must be at least 1")
        if self.approach not in (OBSERVATION, BELIEF):
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.prefill < 0 or self.replay_capacity < self.batch_size:
            raise ValueError("invalid replay sizing: prefill < 0 or replay_capacity < batch_size")
        if self.eval_period is not None and self.eval_period < 1:
            raise ValueError("eval_period must be at least 1")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be at least 1")

    @property
    def decay_iters(self) -> int:
        if self.epsilon_decay_iters is not None:
            return self.epsilon_decay_iters
        return max(1, self.total_iterations // 2)


def epsilon(iteration: int, cfg: TrainingConfig) -> float:
    """Exploration probability: linear ramp down, then flat."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    d = cfg.decay_iters
    if iteration >= d:
        return cfg.epsilon_end
    frac = iteration / d
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


def select_action_multi(net: QNetwork, image: np.ndarray,
                        peer_conts: list[np.ndarray]) -> Action:
    """Greedy action maximizing the summed pairwise Q-values.

    Each peer contributes one Q-row computed from the shared ownship
    image and that pair's continuous inputs: the one-aircraft case of
    forward_team.
    """
    if len(peer_conts) == 0:
        raise ValueError("need at least one other aircraft")
    q = net.forward_team(np.asarray(image)[None, ...], np.asarray(peer_conts)[None, ...])
    return Action(int(np.argmax(q[0])))


# glibc malloc thresholds that keep_freed_heap sets, and whether it has run:
# the setting holds for the whole process.
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 64 << 20
_heap_kept = False


def keep_freed_heap() -> None:
    """Once per process, on glibc only: let the heap a gradient step frees
    stay mapped for the next step.

    A step's temporaries (im2col matrices, activations, gradients) are freed
    at its end. glibc's dynamic rule sets the trim threshold to twice the
    largest freed mmap block, about 3.7 MB on the desk belief step, which
    frees about 4.9 MB; so the heap top went back to the kernel after every
    step and the next step faulted it in again 4 KB at a time (about 1,070
    minor faults per step). Setting either threshold turns the dynamic rule
    off, so both are set:

    - _MMAP_THRESHOLD, 16 MiB: blocks below it come from the heap and are
      reused. At 4 MiB a paper observation step took about 8,100 faults
      (5,400 under the dynamic rule), at 16 MiB 7. It stays well below the
      smallest replay array at profile capacity (desk observation images,
      32 MB), so those keep coming from mmap and their pages stay unbacked
      until written.
    - _TRIM_THRESHOLD, 64 MiB: free memory the heap keeps at its top before
      it trims. With this threshold alone (mmap threshold back at 128 KiB)
      the desk belief step took 2,300-3,700 faults, not fewer.

    No float moves: only where the memory comes from.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        glibc = None
    if not glibc:
        return
    import ctypes  # here, not at import time; numpy has loaded it already
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


class Trainer:
    """Owns the online/target pair and the gradient step bookkeeping. The
    first Trainer of a process keeps the freed heap between steps."""

    def __init__(self, online: QNetwork, target: QNetwork, buffer: ReplayBuffer,
                 optimizer: AdaMax, cfg: TrainingConfig):
        keep_freed_heap()
        self.online = online
        self.target = target
        self.buffer = buffer
        self.optimizer = optimizer
        self.cfg = cfg
        self.iterations = 0

    def train_step(self, rng: np.random.Generator) -> float:
        """One uniform batch, one AdaMax step; returns the batch loss. The
        target network's pass runs beside the online forward pass."""
        cfg = self.cfg
        images, conts, actions, rewards, next_images, next_conts = \
            self.buffer.sample(cfg.batch_size, rng)
        with self.target.forward_beside(next_images, next_conts) as next_q:
            loss, grads = self.online.loss_and_gradients(
                images, conts, actions, lambda: rewards + cfg.gamma * next_q.result().max(axis=1))
        self.optimizer.step(self.online.parameters(), grads)
        self.iterations += 1
        if self.iterations % cfg.target_update_period == 0:
            copy_weights(self.online, self.target)
        return loss


@dataclass(frozen=True)
class CurvePoint:
    iteration: int
    mean_reward: float
    stderr: float
    epsilon: float
    loss: float


def mean_stderr(scores: list[float]) -> tuple[float, float]:
    arr = np.asarray(scores, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


@dataclass(frozen=True)
class GreedyPolicy:
    """Every aircraft's greedy action from one forward_team call on the
    approach's images; draws no random numbers."""

    net: QNetwork
    approach: str

    def __call__(self, sim: SurveillanceSim, action_rng=None) -> list[Action]:
        q = self.net.forward_team(sim.team_images(self.approach), sim.pair_inputs())
        return [Action(int(a)) for a in np.argmax(q, axis=1)]


def evaluate(sim_config: SimConfig, policy, episodes: int,
             rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of policy's accumulated discovery reward
    over one episode per stream spawned from rng."""
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    sim = SurveillanceSim(sim_config)
    scores = []
    for ep_rng in rng.spawn(episodes):
        sim.reset(ep_rng)
        score = 0.0
        for result in play(sim, policy, ep_rng):
            score += sim.discovery_score(result.discovered)
        scores.append(score)
    return mean_stderr(scores)


def evaluate_policy(net: QNetwork, sim_config: SimConfig, episodes: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """evaluate with net's greedy policy, its approach inferred from the
    network's input channels (1 = polar observation, 2 = belief image)."""
    channels = net.config.image_shape[2]
    if channels not in (1, 2):
        raise ValueError(f"cannot infer approach from {channels}-channel input")
    policy = GreedyPolicy(net, OBSERVATION if channels == 1 else BELIEF)
    return evaluate(sim_config, policy, episodes, rng)


def evaluate_random(sim_config: SimConfig, episodes: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """evaluate with the uniform-random policy: for a given rng, the same
    fire and spawn draws as evaluate_policy."""
    return evaluate(sim_config, random_policy, episodes, rng)


def _check_run_config(sim_config: SimConfig, net_config: NetworkConfig,
                      cfg: TrainingConfig) -> None:
    expected = sim_config.image_shape(cfg.approach)
    if net_config.image_shape != expected:
        raise ValueError(
            f"network expects image {net_config.image_shape} but the "
            f"{cfg.approach} approach on this scenario produces {expected}")
    if net_config.n_continuous != N_PAIR_INPUTS:
        raise ValueError(f"pairwise state carries exactly {N_PAIR_INPUTS} continuous inputs")
    if sim_config.n_aircraft < 2:
        raise ValueError("pairwise training needs at least 2 aircraft")


class _Collector:
    """Steps the simulator with epsilon-greedy self-play and pushes each
    step's pair transitions into the buffer. Its episodes run across
    gradient steps and draw exploration from the environment stream, so
    it does not fly env.play.
    """

    def __init__(self, sim: SurveillanceSim, net: QNetwork, buffer: ReplayBuffer,
                 approach: str):
        self.sim = sim
        self.greedy = GreedyPolicy(net, approach)
        self.buffer = buffer
        self.approach = approach
        self._needs_reset = True

    def collect_step(self, eps: float, rng: np.random.Generator) -> list[Action]:
        """One decision step, pushed as one write; returns the team's actions."""
        sim = self.sim
        if self._needs_reset:
            sim.reset(rng)
            self._needs_reset = False
        images, conts = sim.team_images(self.approach), sim.pair_inputs()
        # rng order per aircraft: the explore draw, then its action if it explores
        actions = [Action(int(rng.integers(2))) if eps > 0.0 and rng.random() < eps
                   else None for _ in sim.aircraft]
        if None in actions:
            greedy = self.greedy(sim)
            actions = [g if a is None else a for a, g in zip(actions, greedy)]
        result = sim.step(actions, rng)
        self.buffer.push(images, conts, actions, sim.rewards(self.approach, result.discovered),
                         sim.team_images(self.approach), sim.pair_inputs())
        self._needs_reset = result.done
        return actions


def run_training(sim_config: SimConfig, net_config: NetworkConfig,
                 cfg: TrainingConfig, rng: np.random.Generator,
                 ) -> tuple[QNetwork, list[CurvePoint]]:
    """Prefill, then alternate one environment step with one gradient step.

    The master rng is split into independent streams for network init,
    environment rollout, batch sampling and evaluation, so the initial
    network depends only on the master seed, never on total_iterations.
    Curve points carry the greedy evaluation score at iteration 0, every
    eval_period iterations, and the final iteration.
    """
    _check_run_config(sim_config, net_config, cfg)
    init_rng, env_rng, sample_rng, eval_rng = rng.spawn(4)

    online = QNetwork(net_config, rng=init_rng)
    target = online.clone()
    optimizer = AdaMax(online.parameters())
    buffer = ReplayBuffer(cfg.replay_capacity, net_config.image_shape)
    trainer = Trainer(online, target, buffer, optimizer, cfg)
    collector = _Collector(SurveillanceSim(sim_config), online, buffer, cfg.approach)

    eval_period = cfg.eval_period
    if eval_period is None:
        eval_period = max(1, cfg.total_iterations // 5)

    curve: list[CurvePoint] = []

    def record(iteration: int, loss: float) -> None:
        mean, stderr = evaluate_policy(online, sim_config, cfg.eval_episodes,
                                       eval_rng.spawn(1)[0])
        curve.append(CurvePoint(iteration=iteration, mean_reward=mean,
                                stderr=stderr, epsilon=epsilon(iteration, cfg),
                                loss=loss))

    if cfg.total_iterations == 0:
        return online, curve

    prefill_target = min(max(cfg.prefill, cfg.batch_size), cfg.replay_capacity)
    while len(buffer) < prefill_target:
        collector.collect_step(1.0, env_rng)

    record(0, float("nan"))
    for iteration in range(1, cfg.total_iterations + 1):
        collector.collect_step(epsilon(iteration, cfg), env_rng)
        loss = trainer.train_step(sample_rng)
        if iteration % eval_period == 0 or iteration == cfg.total_iterations:
            record(iteration, loss)
    return online, curve


def write_curve_csv(path, curve: list[CurvePoint]) -> None:
    """Training curve as CSV; floats use repr so rereads are exact."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["iteration", "mean_reward", "stderr", "epsilon", "loss"])
        for p in curve:
            writer.writerow([p.iteration, repr(p.mean_reward), repr(p.stderr),
                             repr(p.epsilon), repr(p.loss)])
