"""Spans around calls into firescout's layers, installed from outside.

Module functions are wrapped in the namespace of the module that calls
them (``env`` imports ``step_fire`` by name, so ``env.step_fire`` is the
one to wrap); public methods are wrapped on their class. Each call
records one span (name, start, end, parent) in memory. Spans are kept in
preorder, so the spans a call caused are the indices from its own to its
recorded ``end``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from firescout import dqn, env, fire, harness, nn, receding_horizon


def _targets():
    """(owner, attribute, span name) for every wrapped call site."""
    reward_fns = ("fire_distance_penalty", "cold_cells_penalty", "bank_penalty",
                  "proximity_penalty", "belief_reward")
    return [
        (fire, "step_fire", "fire.step_fire"),          # from pre_grow
        (env, "step_fire", "fire.step_fire"),
        (env, "integrate", "aircraft.integrate"),
        (receding_horizon, "integrate", "receding_horizon.integrate"),
        (env, "update_belief", "sensing.update_belief"),
        (env, "render_observation", "sensing.render_observation"),
        (env, "ego_belief_image", "sensing.ego_belief_image"),
        *[(env, f, "rewards") for f in reward_fns],
        (env.SurveillanceSim, "step", "env.step"),
        (env.SurveillanceSim, "reset", "env.reset"),
        (env.SurveillanceSim, "state_image", "env.state_image"),
        (env.SurveillanceSim, "observation_reward", "env.reward"),
        (env.SurveillanceSim, "belief_reward", "env.reward"),
        (nn.QNetwork, "forward_batch", "nn.forward_batch"),
        (nn.QNetwork, "loss_and_gradients", "nn.loss_and_gradients"),
        (nn.Conv2D, "forward_cached", "nn.conv_forward"),
        (nn.Conv2D, "backward", "nn.conv_backward"),
        (nn.MaxPool2, "backward", "nn.pool_backward"),
        (nn.AdaMax, "step", "nn.adamax_step"),
        (harness, "load_weights", "nn.load_weights"),
        (dqn, "run_training", "dqn.run_training"),
        (dqn, "evaluate_policy", "dqn.evaluate_policy"),
        (dqn, "select_action_multi", "dqn.select_action_multi"),
        (harness, "select_action_multi", "dqn.select_action_multi"),
        (dqn.Trainer, "train_step", "dqn.train_step"),
        (dqn.ReplayBuffer, "__init__", "dqn.replay_init"),
        (dqn.ReplayBuffer, "push", "dqn.replay_push"),
        (dqn.ReplayBuffer, "sample", "dqn.replay_sample"),
        (receding_horizon, "optimize_trajectory", "receding_horizon.optimize_trajectory"),
        (harness, "run_episode", "harness.run_episode"),
        (harness, "run_suite", "harness.run_suite"),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rounds: list[dict] = []      # per traced round: span arrays
        self.buffers: list = []           # ReplayBuffers built in the current round
        self.replay_bytes = 0.0
        self._saved = []
        self._reset_lists()

    def _reset_lists(self):
        self._name, self._t0, self._t1 = [], [], []
        self._parent, self._end, self._rows = [], [], []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        names, t0s, t1s = self._name, self._t0, self._t1
        parents, ends, rows = self._parent, self._end, self._rows
        stack = self._stack
        clock = time.perf_counter
        is_forward = name == "nn.forward_batch"
        is_buffer = name == "dqn.replay_init"
        buffers = self.buffers

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            ends.append(0)
            rows.append(len(args[1]) if is_forward else 0)
            stack.append(i)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[i] = clock()
                stack.pop()
                ends[i] = len(names)
                if is_buffer:
                    buffers.append(args[0])

        return traced

    @contextmanager
    def traced_round(self):
        """Install every wrapper for the duration of one round."""
        self._reset_lists()
        for owner, attr, name in _targets():
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        try:
            yield
        finally:
            for owner, attr, fn in reversed(self._saved):
                setattr(owner, attr, fn)
            self._saved.clear()
            self.rounds.append({
                "name": np.asarray(self._name, dtype=np.int32),
                "t0": np.asarray(self._t0, dtype=np.float64),
                "t1": np.asarray(self._t1, dtype=np.float64),
                "parent": np.asarray(self._parent, dtype=np.int64),
                "end": np.asarray(self._end, dtype=np.int64),
                "rows": np.asarray(self._rows, dtype=np.int64),
            })
            self._reset_lists()
            if self.buffers:
                # Bytes of replay storage per transition of capacity.
                buf = self.buffers[-1]
                arrays = [v for v in vars(buf).values() if isinstance(v, np.ndarray)]
                self.replay_bytes = sum(a.nbytes for a in arrays) / buf.capacity
            self.buffers.clear()

    def save(self, path) -> None:
        """Write every traced round's spans: one array per field, rounds
        concatenated, with a round index per span.
        """
        fields = ("name", "t0", "t1", "parent", "end")
        out = {f: np.concatenate([r[f] for r in self.rounds]) for f in fields}
        out["round"] = np.concatenate(
            [np.full(len(r["name"]), k, dtype=np.int32) for k, r in enumerate(self.rounds)])
        out["names"] = np.asarray(self.names)
        np.savez(path, **out)


# -- per-layer metrics --------------------------------------------------------

# metric -> span names counted; nn.forward_batch counts come from inference_calls
COUNTS = {
    "dqn.select_action_multi.calls": "dqn.select_action_multi",
    "dqn.replay_push.calls": "dqn.replay_push",
    "sensing.render_observation.calls": "sensing.render_observation",
    "sensing.ego_belief_image.calls": "sensing.ego_belief_image",
    "sensing.update_belief.calls": "sensing.update_belief",
    "rewards.calls": "rewards",
    "env.step.calls": "env.step",
    "env.state_image.calls": "env.state_image",
    "env.reward.calls": "env.reward",
    "fire.step_fire.calls": "fire.step_fire",
    "aircraft.integrate.calls": ("aircraft.integrate", "receding_horizon.integrate"),
    "receding_horizon.optimize_trajectory.calls": "receding_horizon.optimize_trajectory",
    "receding_horizon.integrate.calls": "receding_horizon.integrate",
    "harness.run_episode.calls": "harness.run_episode",
}

# metric -> (span names, scale to the metric's unit): median per call
PER_CALL = {
    "nn.load_weights.ms": ("nn.load_weights", 1e3),
    "dqn.train_step.ms": ("dqn.train_step", 1e3),
    "dqn.select_action_multi.us": ("dqn.select_action_multi", 1e6),
    "dqn.replay_push.us": ("dqn.replay_push", 1e6),
    "dqn.replay_sample.us": ("dqn.replay_sample", 1e6),
    "sensing.render_observation.us": ("sensing.render_observation", 1e6),
    "sensing.ego_belief_image.us": ("sensing.ego_belief_image", 1e6),
    "sensing.update_belief.us": ("sensing.update_belief", 1e6),
    "rewards.us": ("rewards", 1e6),
    "env.reset.ms": ("env.reset", 1e3),
    "env.reward.us": ("env.reward", 1e6),
    "fire.step_fire.us": ("fire.step_fire", 1e6),
    "aircraft.integrate.us": (("aircraft.integrate", "receding_horizon.integrate"), 1e6),
    "receding_horizon.optimize_trajectory.ms": ("receding_horizon.optimize_trajectory", 1e3),
    "harness.run_episode.s": ("harness.run_episode", 1.0),
}

# metric -> span name summed within each gradient step (Trainer.train_step), in ms
PER_GRAD_STEP = {
    "nn.loss_and_gradients.ms": "nn.loss_and_gradients",
    "nn.conv_forward.ms": "nn.conv_forward",
    "nn.conv_backward.ms": "nn.conv_backward",
    "nn.pool_backward.ms": "nn.pool_backward",
    "nn.adamax_step.ms": "nn.adamax_step",
}


class RoundSpans:
    """Queries over one traced round's spans."""

    def __init__(self, arrays: dict, names: list[str]):
        self.a = arrays
        self.ids = {n: i for i, n in enumerate(names)}
        self.dur = arrays["t1"] - arrays["t0"]

    def where(self, *names: str) -> np.ndarray:
        wanted = [self.ids[n] for n in names if n in self.ids]
        return np.nonzero(np.isin(self.a["name"], wanted))[0]

    def inside(self, i: int, name: str) -> float:
        """Summed duration of the spans of one name that call i caused."""
        if name not in self.ids:
            return 0.0
        lo, hi = i + 1, self.a["end"][i]
        sel = self.a["name"][lo:hi] == self.ids[name]
        return float(self.dur[lo:hi][sel].sum())

    def inference_calls(self) -> np.ndarray:
        """forward_batch calls made by select_action_multi (not by training)."""
        fwd = self.where("nn.forward_batch")
        sel = self.ids.get("dqn.select_action_multi", -1)
        parents = self.a["parent"][fwd]
        return fwd[(parents >= 0) & (self.a["name"][np.maximum(parents, 0)] == sel)]

    def step_self_times(self) -> np.ndarray:
        """env.step durations minus their fire, sensing and aircraft children."""
        steps = self.where("env.step")
        if len(steps) == 0:
            return np.zeros(0)
        kids = self.where("fire.step_fire", "sensing.update_belief", "aircraft.integrate")
        kids = kids[np.isin(self.a["parent"][kids], steps)]
        child = np.zeros(len(self.dur))
        np.add.at(child, self.a["parent"][kids], self.dur[kids])
        return self.dur[steps] - child[steps]


def _median(samples, scale) -> float:
    samples = np.asarray(samples, dtype=np.float64)
    return float(np.median(samples)) * scale if samples.size else 0.0


def layer_metrics(tracer: Tracer, grad_step_mflop: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over all traced rounds, and any round-to-round
    count mismatches (counts must repeat exactly between rounds).
    """
    rounds = [RoundSpans(r, tracer.names) for r in tracer.rounds]
    problems = []
    counts = []
    for rs in rounds:
        c = {}
        for metric, spans in COUNTS.items():
            spans = spans if isinstance(spans, tuple) else (spans,)
            c[metric] = int(len(rs.where(*spans)))
        inf = rs.inference_calls()
        c["nn.forward_batch.calls"] = int(len(inf))
        c["nn.forward_batch.rows"] = int(rs.a["rows"][inf].sum())
        counts.append(c)
    for k, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            diff = sorted(m for m in c if c[m] != counts[0][m])
            problems.append(f"traced round {k} counts differ from round 0 in {diff}")
    out = dict(counts[0])

    for metric, (spans, scale) in PER_CALL.items():
        spans = spans if isinstance(spans, tuple) else (spans,)
        out[metric] = _median(np.concatenate([rs.dur[rs.where(*spans)] for rs in rounds]), scale)
    out["nn.forward_batch.us"] = _median(
        np.concatenate([rs.dur[rs.inference_calls()] for rs in rounds]), 1e6)
    out["env.step.self_us"] = _median(
        np.concatenate([rs.step_self_times() for rs in rounds]), 1e6)

    per_step = {m: [] for m in PER_GRAD_STEP}
    split = {"dqn.env_s": [], "dqn.learn_s": [], "dqn.eval_s": []}
    for rs in rounds:
        for i in rs.where("dqn.train_step"):
            for metric, name in PER_GRAD_STEP.items():
                per_step[metric].append(rs.inside(i, name))
        for i in rs.where("dqn.run_training"):
            learn = rs.inside(i, "dqn.train_step")
            ev = rs.inside(i, "dqn.evaluate_policy")
            split["dqn.learn_s"].append(learn)
            split["dqn.eval_s"].append(ev)
            split["dqn.env_s"].append(float(rs.dur[i]) - learn - ev)
    for metric, samples in per_step.items():
        out[metric] = _median(samples, 1e3)
    for metric, samples in split.items():
        out[metric] = _median(samples, 1.0)

    out["nn.grad_step.mflop"] = grad_step_mflop
    step_s = out["dqn.train_step.ms"] / 1e3
    out["nn.grad_step.gflops"] = grad_step_mflop / 1e3 / step_s if step_s > 0 else 0.0
    out["dqn.replay_bytes_per_transition"] = tracer.replay_bytes
    return out, problems


def grad_step_mflop(cfg, batch: int) -> float:
    """Matrix-multiply work of one Trainer.train_step, from layer shapes.

    Counts 2 flops per multiply-add in conv and dense layers for the
    target network's forward pass, the online forward pass, the weight
    gradients, and the input gradients that are needed (none for the
    network's own inputs: the first conv layer and the first continuous
    dense layer). Pooling, activations and the optimizer are not counted.
    """
    h, w, c = cfg.image_shape
    k = cfg.kernel_size
    conv = []
    for _ in range(cfg.conv_stages):
        conv.append(2 * h * w * k * k * c * cfg.conv_filters)
        c = cfg.conv_filters
        h, w = h // 2, w // 2
    dense, width = [], h * w * c
    for n in cfg.image_dense:
        dense.append(2 * width * n)
        width = n
    image_out = width
    cont, width = [], cfg.n_continuous
    for n in cfg.continuous_dense:
        cont.append(2 * width * n)
        width = n
    width = image_out + width
    for n in (*cfg.merge_dense, cfg.n_actions):
        dense.append(2 * width * n)
        width = n
    forward = sum(conv) + sum(dense) + sum(cont)
    input_grads = forward - conv[0] - (cont[0] if cont else 0)
    return batch * (3 * forward + input_grads) / 1e6
