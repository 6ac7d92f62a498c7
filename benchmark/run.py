"""Run one benchmark workload and print its metrics.

Usage:
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The run first times several fresh-process set-ups (``setup_s``), then
repeats whole rounds of the workload (train, then evaluate) until the
next round would end more than ``--seconds`` after the process started;
at least three rounds always run. Every round uses the same seed-derived
inputs and is checked; the first is a warm-up and is not measured. With
``--trace 0`` each throughput metric is the rate of the slowest measured
round (``setup_s`` is a median over the set-ups); with ``--trace 1``
untraced and traced rounds interleave, the per-layer metrics come from
the traced rounds' spans, and the untraced rounds give the tracing
overhead. The last line of standard output is one JSON object: correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

SETUP_PROBES = 7
MIN_ROUNDS = 3     # a warm-up round and at least two measured ones

END_TO_END = {
    "setup_s": "s",
    "train_iters_per_s": "iter/s",
    "eval_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "nn.loss_and_gradients.ms": "ms",
    "nn.conv_forward.ms": "ms",
    "nn.conv_backward.ms": "ms",
    "nn.pool_backward.ms": "ms",
    "nn.adamax_step.ms": "ms",
    "nn.grad_step.mflop": "MFLOP",
    "nn.grad_step.gflops": "GFLOP/s",
    "nn.forward_batch.calls": "count",
    "nn.forward_batch.rows": "count",
    "nn.forward_batch.us": "us",
    "nn.load_weights.ms": "ms",
    "dqn.train_step.ms": "ms",
    "dqn.select_action_multi.calls": "count",
    "dqn.select_action_multi.us": "us",
    "dqn.env_s": "s",
    "dqn.learn_s": "s",
    "dqn.eval_s": "s",
    "dqn.replay_push.calls": "count",
    "dqn.replay_push.us": "us",
    "dqn.replay_sample.us": "us",
    "dqn.replay_bytes_per_transition": "B",
    "sensing.render_observation.calls": "count",
    "sensing.render_observation.us": "us",
    "sensing.ego_belief_image.calls": "count",
    "sensing.ego_belief_image.us": "us",
    "sensing.update_belief.calls": "count",
    "sensing.update_belief.us": "us",
    "rewards.calls": "count",
    "rewards.us": "us",
    "env.step.calls": "count",
    "env.step.self_us": "us",
    "env.reset.ms": "ms",
    "env.state_image.calls": "count",
    "env.reward.calls": "count",
    "env.reward.us": "us",
    "fire.step_fire.calls": "count",
    "fire.step_fire.us": "us",
    "aircraft.integrate.calls": "count",
    "aircraft.integrate.us": "us",
    "receding_horizon.optimize_trajectory.calls": "count",
    "receding_horizon.optimize_trajectory.ms": "ms",
    "receding_horizon.integrate.calls": "count",
    "harness.run_episode.calls": "count",
    "harness.run_episode.s": "s",
    "trace.overhead.train_pct": "%",
    "trace.overhead.eval_pct": "%",
}


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += [f"{label}: {p}" for p in problems[:5]]


def probe_setup(name: str, seed: int, run_dir: str) -> list[float]:
    """Seconds from process start to ready, for SETUP_PROBES fresh processes."""
    probe = os.path.join(bootstrap.HERE, "setup_probe.py")
    weights = os.path.join(run_dir, "probe_weights.bin")
    samples = []
    for _ in range(SETUP_PROBES):
        spawned_at = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, name, str(seed), repr(spawned_at), weights],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def thread_count() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def check_round(r, setup, initial, reference_digest, tally: Tally) -> None:
    import checks
    w = setup.workload
    tally.ops(r.iterations + len(r.records))
    tally.check("curve", checks.check_curve(r.curve, setup.train_config, setup.sim))
    tally.check("network", checks.check_network(
        r.net, initial, setup.weights_path + ".roundtrip"))
    tally.check("suite", [] if len(r.records) == w.suite_episodes else
                [f"{len(r.records)} episodes recorded, expected {w.suite_episodes}"])
    for k, record in enumerate(r.records):
        tally.check(f"episode {k}", checks.check_episode(record, setup.sim))
    if reference_digest is not None:
        tally.check("digest", [] if r.digest == reference_digest else
                    [f"round digest {r.digest} differs from the first round's {reference_digest}"])


def check_plans(setup, tally: Tally) -> None:
    """Plan scenes drawn from the workload seed: the planner's score and
    local optimality, checked against checks.fresh_plan_score.
    """
    import numpy as np
    import checks
    import workloads
    from firescout import receding_horizon
    from firescout.env import SurveillanceSim

    rng = np.random.default_rng(workloads.stream_seed(setup.seed, workloads.PLAN_STREAM))
    sim = SurveillanceSim(setup.sim)
    for k in range(setup.workload.plan_checks):
        sim.reset(rng)
        start, peers = sim.aircraft[0], sim.aircraft[1:]
        plan, score = receding_horizon.optimize_trajectory(
            sim.grid, start, peers, setup.scenario.rh, rng)
        tally.ops(1)
        tally.check(f"plan {k}", checks.check_plan(
            sim.grid, start, peers, setup.scenario.rh, plan, score))


def measure(args, run_dir: str, started: float):
    import workloads
    from tracer import Tracer, grad_step_mflop, layer_metrics

    w = workloads.WORKLOADS[args.workload]
    tally = Tally()
    setup_samples = probe_setup(w.name, args.seed, run_dir)
    setup = workloads.build(w, args.seed, os.path.join(run_dir, "weights.bin"))
    initial = workloads.initial_network(setup)
    tracer = Tracer() if args.trace else None
    check_plans(setup, tally)

    plain, traced, walls = [], [], []
    digest = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # The first round is a warm-up: checked, never measured. Measured
        # rounds follow the pattern U T T U U T T U ..., so drift over the
        # run weighs on both kinds alike.
        if tracer is not None and len(walls) % 4 in (2, 3):
            with tracer.traced_round():
                r = workloads.run_round(setup)
            rates = traced
        else:
            r = workloads.run_round(setup)
            rates = plain
        if walls:
            rates.append((r.iterations / r.train_s, r.steps / r.eval_s))
        check_round(r, setup, initial, digest, tally)
        digest = digest or r.digest
        del r
        if not walls:
            # Peak memory of a process that set up and ran one round. Later
            # rounds read 32 MB more on desk-train-obs-rh in some runs but
            # not others: once a round has freed its 32 MB replay arrays,
            # glibc's malloc serves the next round's from the heap, and
            # calloc zeroes reused heap by hand, so the lazily written
            # `images` array becomes resident too.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(time.perf_counter() - t0)
        # The deadline counts from process start, so set-up probes and
        # plan checks take their time out of the run, not on top of it.
        elapsed = time.perf_counter() - started
        if len(walls) >= MIN_ROUNDS and elapsed + statistics.median(walls) > args.seconds:
            break

    threads = thread_count()
    tally.check("threads", [] if threads <= (os.cpu_count() or 1) else
                [f"{threads} threads on {os.cpu_count()} cores"])

    # A rate is that of the slowest measured round. The machine's speed
    # moves between a slow phase, whose level repeats from run to run,
    # and faster phases whose speed and share of a run do not; a median or
    # a total over the rounds follows that share, the slowest round
    # follows the slow phase (see README, Environment).
    def train_rate(rates):
        return min(train for train, _ in rates)

    def eval_rate(rates):
        return min(ev for _, ev in rates)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "train_iters_per_s": train_rate(plain),
            "eval_steps_per_s": eval_rate(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics, problems = layer_metrics(tracer, grad_step_mflop(
            setup.net_config, setup.train_config.batch_size))
        tally.check("trace counts", problems)
        metrics["trace.overhead.train_pct"] = 100.0 * (train_rate(plain) / train_rate(traced) - 1.0)
        metrics["trace.overhead.eval_pct"] = 100.0 * (eval_rate(plain) / eval_rate(traced) - 1.0)
        units = PER_LAYER
        os.makedirs(bootstrap.OUT, exist_ok=True)
        tracer.save(os.path.join(bootstrap.OUT, f"{w.name}-seed{args.seed}.spans.npz"))

    print(f"workload {w.name} seed {args.seed}: a warm-up round, {len(plain)} untraced "
          f"and {len(traced)} traced rounds in {time.perf_counter() - start:.1f} s")
    print(f"output digest {digest}")
    for kind, rates in (("untraced", plain), ("traced", traced)):
        if rates:
            print(f"{kind} rounds, iter/s and steps/s: " + ", ".join(
                f"{train:.4g} {ev:.4g}" for train, ev in rates))
    for line in tally.messages:
        print(f"CHECK FAILED {line}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    return tally, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bootstrap.require_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = os.path.join(bootstrap.OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        tally, metrics = measure(args, run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
