"""Q-learning loop: replay, epsilon-greedy self-play, fixed targets.

Every aircraft flies the same online network. A transition is recorded
per (aircraft, peer) pair, so the network only ever learns the pairwise
value it is later queried for; with two aircraft this is exactly one
transition per aircraft per step. Action selection with several peers
sums the pairwise Q-rows before the argmax.

Evaluation always scores the accumulated discovery reward of the shared
belief map, whatever inputs the flying network consumes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .aircraft import Action
from .env import BELIEF, OBSERVATION, SimConfig, SurveillanceSim
from .nn import AdaMax, NetworkConfig, QNetwork, copy_weights


@dataclass(frozen=True)
class Transition:
    """One pairwise experience tuple."""

    image: np.ndarray        # ownship image input
    cont: np.ndarray         # (5,) pairwise continuous input
    action: int
    reward: float
    next_image: np.ndarray
    next_cont: np.ndarray
    terminal: bool           # True only when the episode ended un-bootstrapped


class ReplayBuffer:
    """Preallocated ring storage with uniform sampling."""

    def __init__(self, capacity: int, image_shape: tuple[int, int, int],
                 n_continuous: int = 5):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.images = np.zeros((capacity, *image_shape), dtype=np.float32)
        self.conts = np.zeros((capacity, n_continuous), dtype=np.float32)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.next_images = np.zeros(self.images.shape, self.images.dtype)
        self.next_conts = np.zeros(self.conts.shape, self.conts.dtype)
        self.terminals = np.zeros(capacity, dtype=bool)
        self.size = 0
        self.cursor = 0

    def __len__(self) -> int:
        return self.size

    def push(self, t: Transition) -> None:
        i = self.cursor
        self.images[i] = t.image
        self.conts[i] = t.cont
        self.actions[i] = t.action
        self.rewards[i] = t.reward
        self.next_images[i] = t.next_image
        self.next_conts[i] = t.next_cont
        self.terminals[i] = t.terminal
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} transitions, need {batch_size}")
        return rng.integers(0, self.size, size=batch_size)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = self.sample_indices(batch_size, rng)
        return (self.images[idx], self.conts[idx], self.actions[idx],
                self.rewards[idx], self.next_images[idx], self.next_conts[idx],
                self.terminals[idx])


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
    learning_rate: float = 0.002
    bootstrap_on_truncation: bool = True
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
        if self.prefill < 0 or self.replay_capacity < 1:
            raise ValueError("invalid replay sizing")
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


def select_action(net: QNetwork, state, eps: float, rng: np.random.Generator) -> Action:
    """Epsilon-greedy over the two bank actions; Q-ties resolve to action 0."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps > 0.0 and rng.random() < eps:
        return Action(int(rng.integers(2)))
    image, cont = state
    q = net.forward(image, cont)
    return Action(int(np.argmax(q)))


def select_action_multi(net: QNetwork, image: np.ndarray,
                        peer_conts: list[np.ndarray]) -> Action:
    """Greedy action maximizing the summed pairwise Q-values.

    Each peer contributes one Q-row computed from the shared ownship
    image and that pair's continuous inputs.
    """
    if len(peer_conts) == 0:
        raise ValueError("need at least one other aircraft")
    images = np.repeat(np.asarray(image)[None, ...], len(peer_conts), axis=0)
    q = net.forward_batch(images, np.asarray(peer_conts))
    return Action(int(np.argmax(q.sum(axis=0))))


def bellman_target(reward: float, next_state, terminal: bool,
                   target_net: QNetwork, gamma: float) -> float:
    if terminal:
        return float(reward)
    image, cont = next_state
    q = target_net.forward(image, cont)
    return float(reward + gamma * float(q.max()))


class Trainer:
    """Owns the online/target pair and the gradient step bookkeeping."""

    def __init__(self, online: QNetwork, target: QNetwork, buffer: ReplayBuffer,
                 optimizer: AdaMax, cfg: TrainingConfig):
        self.online = online
        self.target = target
        self.buffer = buffer
        self.optimizer = optimizer
        self.cfg = cfg
        self.iterations = 0

    def train_step(self, rng: np.random.Generator) -> float:
        """One uniform batch, one AdaMax step; returns the batch loss."""
        cfg = self.cfg
        images, conts, actions, rewards, next_images, next_conts, terminals = \
            self.buffer.sample(cfg.batch_size, rng)
        next_q = self.target.forward_batch(next_images, next_conts)
        targets = rewards + cfg.gamma * next_q.max(axis=1) * ~terminals
        loss, grads = self.online.loss_and_gradients(images, conts, actions, targets)
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


def _greedy_actions(net: QNetwork, sim: SurveillanceSim, approach: str) -> list[Action]:
    actions = []
    for i in range(len(sim.aircraft)):
        image = sim.state_image(i, approach)
        conts = [sim.continuous_state(i, j) for j in sim.peer_indices(i)]
        actions.append(select_action_multi(net, image, conts))
    return actions


def _episode_discovery_score(sim: SurveillanceSim, act, rng: np.random.Generator) -> float:
    """Roll one episode; act(sim) supplies the joint action each step."""
    sim.reset(rng)
    score = 0.0
    while not sim.done:
        result = sim.step(act(sim), rng)
        score += sim.discovery_score(result.discovered)
    return score


def evaluate_policy(net: QNetwork, sim_config: SimConfig, episodes: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Greedy rollouts; returns mean and standard error of the per-episode
    accumulated discovery reward.

    The approach is inferred from the network's input channels (1 =
    polar observation, 2 = belief image). Greedy control consumes no
    random numbers, so a given rng yields the same fire/spawn sequence
    whichever network is being scored.
    """
    approach = _approach_for(net.config)
    sim = SurveillanceSim(sim_config)
    scores = []
    for ep_rng in rng.spawn(episodes):
        scores.append(_episode_discovery_score(
            sim, lambda s: _greedy_actions(net, s, approach), ep_rng))
    return mean_stderr(scores)


def evaluate_random(sim_config: SimConfig, episodes: int,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Uniform-random policy under the same per-episode streams as
    evaluate_policy; action draws come from a spawned side stream so the
    environment sees identical randomness.
    """
    sim = SurveillanceSim(sim_config)
    scores = []
    for ep_rng in rng.spawn(episodes):
        action_rng = ep_rng.spawn(1)[0]
        scores.append(_episode_discovery_score(
            sim,
            lambda s: [Action(int(a)) for a in action_rng.integers(2, size=len(s.aircraft))],
            ep_rng))
    return mean_stderr(scores)


def _approach_for(net_config: NetworkConfig) -> str:
    channels = net_config.image_shape[2]
    if channels == 1:
        return OBSERVATION
    if channels == 2:
        return BELIEF
    raise ValueError(f"cannot infer approach from {channels}-channel input")


def _check_run_config(sim_config: SimConfig, net_config: NetworkConfig,
                      cfg: TrainingConfig) -> None:
    expected = sim_config.image_shape(cfg.approach)
    if net_config.image_shape != expected:
        raise ValueError(
            f"network expects image {net_config.image_shape} but the "
            f"{cfg.approach} approach on this scenario produces {expected}")
    if net_config.n_continuous != 5:
        raise ValueError("pairwise state carries exactly 5 continuous inputs")
    if sim_config.n_aircraft < 2:
        raise ValueError("pairwise training needs at least 2 aircraft")


class _Collector:
    """Steps the simulator with epsilon-greedy self-play and emits the
    per-pair transitions of each step.
    """

    def __init__(self, sim: SurveillanceSim, net: QNetwork, approach: str,
                 bootstrap_on_truncation: bool):
        self.sim = sim
        self.net = net
        self.approach = approach
        self.bootstrap = bootstrap_on_truncation
        self._needs_reset = True

    def _states(self):
        sim = self.sim
        images = [sim.state_image(i, self.approach) for i in range(len(sim.aircraft))]
        conts = [[sim.continuous_state(i, j) for j in sim.peer_indices(i)]
                 for i in range(len(sim.aircraft))]
        return images, conts

    def collect_step(self, eps: float, rng: np.random.Generator) -> list[Transition]:
        sim = self.sim
        if self._needs_reset:
            sim.reset(rng)
            self._needs_reset = False
        images, conts = self._states()
        actions = []
        for i in range(len(sim.aircraft)):
            if eps > 0.0 and rng.random() < eps:
                actions.append(Action(int(rng.integers(2))))
            else:
                actions.append(select_action_multi(self.net, images[i], conts[i]))
        result = sim.step(actions, rng)
        rewards = [sim.reward(i, self.approach, result.discovered)
                   for i in range(len(sim.aircraft))]
        next_images, next_conts = self._states()
        terminal = result.done and not self.bootstrap
        out = []
        for i in range(len(sim.aircraft)):
            for k in range(len(conts[i])):
                out.append(Transition(
                    image=images[i], cont=conts[i][k], action=int(actions[i]),
                    reward=rewards[i], next_image=next_images[i],
                    next_cont=next_conts[i][k], terminal=terminal))
        if result.done:
            self._needs_reset = True
        return out


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
    optimizer = AdaMax(online.parameters(), alpha=cfg.learning_rate)
    buffer = ReplayBuffer(cfg.replay_capacity, net_config.image_shape)
    trainer = Trainer(online, target, buffer, optimizer, cfg)
    collector = _Collector(SurveillanceSim(sim_config), online, cfg.approach,
                           cfg.bootstrap_on_truncation)

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
        for t in collector.collect_step(1.0, env_rng):
            buffer.push(t)

    record(0, float("nan"))
    for iteration in range(1, cfg.total_iterations + 1):
        eps = epsilon(iteration, cfg)
        for t in collector.collect_step(eps, env_rng):
            buffer.push(t)
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
