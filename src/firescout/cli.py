"""Command line front end: train, evaluate, baseline, render.

Every command takes a scenario (from --config, else the profile default)
and a seed, and writes only deterministic artifacts, so rerunning with
the same inputs reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .dqn import run_training, write_curve_csv
from .harness import PROFILES, Scenario, ScenarioError, profile_net_config, \
    profile_scenario, profile_training_config, load_scenario, render_record, \
    run_episode, run_suite, save_scenario, scenario_from_dict, scenario_to_dict, \
    write_episode_csv
from .nn import save_weights


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH",
                    help="scenario JSON (default: the profile's built-in scenario)")
    sp.add_argument("--seed", type=int, metavar="U64",
                    help="override the scenario's rng seed")
    sp.add_argument("--out", metavar="DIR",
                    help="output directory (default: firescout_<command>)")
    sp.add_argument("--profile", choices=PROFILES, default="desk")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="firescout",
        description="Decentralized fixed-wing wildfire surveillance: "
                    "simulator, Q-learning and baselines.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a Q-network and write weights + curve")
    _add_common(t)
    t.add_argument("--iterations", type=int, metavar="N",
                   help="training iterations (default: profile preset)")
    t.add_argument("--approach", choices=("observation", "belief"),
                   default="belief")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate",
                       help="score the scenario's controller over seeded episodes")
    _add_common(e)
    e.add_argument("--episodes", type=int, default=20, metavar="N")
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("baseline", help="run the receding-horizon baseline")
    _add_common(b)
    b.add_argument("--episodes", type=int, default=20, metavar="N")
    b.set_defaults(func=cmd_baseline)

    r = sub.add_parser("render", help="draw one episode as PGM/SVG overlays")
    _add_common(r)
    r.add_argument("--snapshot-every", type=int, metavar="STEPS",
                   help="also raster the fire/belief every STEPS agent steps")
    r.set_defaults(func=cmd_render)
    return p


def _override(sc: Scenario, **fields) -> Scenario:
    """sc with scenario-file fields replaced, checked as a file's would be."""
    return scenario_from_dict({**scenario_to_dict(sc), **fields})


def _resolve_scenario(args) -> Scenario:
    if args.config:
        sc = load_scenario(args.config)
    else:
        sc = profile_scenario(args.profile)
    if args.seed is not None:
        sc = _override(sc, rng_seed=args.seed)
    return sc


def _out_dir(args) -> str:
    """The out directory's path; each command makes it just before its
    first write, so a refused input or a failed run leaves none."""
    return args.out or f"firescout_{args.command}"


def cmd_train(args, sc: Scenario) -> int:
    if args.iterations is not None and args.iterations < 0:
        raise ScenarioError(f"--iterations: must be at least 0, got {args.iterations}")
    if sc.sim.n_aircraft < 2:
        raise ScenarioError(f"aircraft_count: pairwise training needs at least 2 "
                            f"aircraft, got {sc.sim.n_aircraft}")
    training = profile_training_config(args.profile, args.approach, args.iterations)
    net_config = profile_net_config(args.profile, args.approach, sc.sim)
    rng = np.random.default_rng(np.random.SeedSequence(sc.seed))
    net, curve = run_training(sc.sim, net_config, training, rng)

    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    weights_path = os.path.join(out, "weights.bin")
    save_weights(net, weights_path)
    write_curve_csv(os.path.join(out, "curve.csv"), curve)
    save_scenario(os.path.join(out, "scenario.json"), sc)
    # A ready-to-run evaluation config pointing at the fresh weights.
    eval_sc = replace(sc, controller=f"{args.approach}-net", weights_path=weights_path)
    save_scenario(os.path.join(out, "scenario_eval.json"), eval_sc)

    final = curve[-1].mean_reward if curve else float("nan")
    print(f"trained {training.total_iterations} iterations "
          f"({args.approach} approach); final eval {final}")
    print(f"wrote {weights_path}")
    return 0


def cmd_evaluate(args, sc: Scenario) -> int:
    out = _out_dir(args)
    entries = run_suite(sc, args.episodes, out_dir=out)
    for e in entries:
        print(f"{e.controller}: mean {e.mean} stderr {e.stderr} "
              f"over {e.episodes} episodes")
    print(f"wrote {os.path.join(out, 'summary.csv')}")
    return 0


def cmd_baseline(args, sc: Scenario) -> int:
    sc = replace(sc, controller="receding-horizon")
    out = _out_dir(args)
    entries = run_suite(sc, args.episodes, out_dir=out)
    e = entries[0]
    print(f"receding-horizon: mean {e.mean} stderr {e.stderr} "
          f"over {e.episodes} episodes")
    return 0


def cmd_render(args, sc: Scenario) -> int:
    if args.snapshot_every is not None:
        sc = _override(sc, snapshot_every_steps=args.snapshot_every)
    out = _out_dir(args)
    record = run_episode(sc)
    paths = render_record(record, sc, out)    # makes out
    write_episode_csv(os.path.join(out, "episode.csv"), record)
    print(f"wrote {len(paths)} images and episode.csv to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sc = None
    try:
        sc = _resolve_scenario(args)
        return args.func(args, sc)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        size = "" if sc is None else f" = {sc.sim.grid_width} x {sc.sim.grid_height}"
        print(f"error: {args.command}: out of memory "
              f"(grid.width_cells x grid.height_cells{size})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
