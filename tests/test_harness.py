"""Tests for scenario files, episode logging, suites and rendering."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firescout
from firescout.dqn import evaluate_policy, evaluate_random, mean_stderr
from firescout.env import SimConfig
from firescout.fire import ArcSeed, CircularSeed, PropagationParams, TShapeSeed, Wind
from firescout.harness import (
    _FIELDS,
    _RH_COPIES,
    CONTROLLERS,
    NET_CONTROLLERS,
    PROFILES,
    Scenario,
    ScenarioError,
    desk_scenario,
    load_scenario,
    paper_scenario,
    profile_net_config,
    profile_scenario,
    profile_training_config,
    render_record,
    run_episode,
    run_suite,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_episode_csv,
)
from firescout.nn import NetworkConfig, QNetwork, save_weights
from firescout.receding_horizon import RHConfig
from firescout.rewards import RewardWeights


def read_pgm(path) -> np.ndarray:
    """Read a plain PGM back into the array orientation write_pgm uses."""
    with open(path) as f:
        tokens = []
        for line in f:
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain (P2) PGM file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    data = np.array(tokens[4:4 + w * h], dtype=np.uint8).reshape(h, w)
    return data[::-1]


def tiny_dict(**overrides):
    """A seconds-scale scenario for fast episode tests."""
    d = {
        "grid": {"width_cells": 10, "height_cells": 10, "cell_size_m": 10.0},
        "seed_pattern": {"kind": "circular", "center_cell": [5, 5],
                         "radius_cells": 1},
        "pregrow_seconds": 0.0,
        "horizon_seconds": 3.0,
        "observation": {"n_range_bins": 4, "n_angle_bins": 4,
                        "max_range_m": 100.0},
        "receding_horizon": {"horizon_steps": 6, "execute_steps": 2,
                             "restarts": 1},
    }
    d.update(overrides)
    return d


class TestScenarioParsing:
    def test_empty_dict_gives_full_scale_defaults(self):
        sc = scenario_from_dict({})
        assert sc.sim.grid_width == 100
        assert sc.sim.grid_height == 100
        assert sc.sim.cell_size_m == 10.0
        assert sc.sim.n_range_bins == 40
        assert sc.sim.n_angle_bins == 30
        assert sc.sim.n_aircraft == 2
        assert sc.controller == "random"
        assert isinstance(sc.sim.seed_pattern, CircularSeed)

    def test_round_trip_identity(self):
        cases = [
            {},
            tiny_dict(),
            {"seed_pattern": {"kind": "t_shape", "center_cell": [30, 40],
                              "arm_cells": 5}},
            {"seed_pattern": {"kind": "arc", "center_cell": [50, 50],
                              "radius_cells": 8}},
            {"seed_pattern": {"kind": "none"}},
            {"wind": {"direction_rad": 1.25, "strength": 0.7}},
            {"spawn_poses": [
                {"x_m": 100.0, "y_m": 200.0, "psi_rad": 0.5, "phi_rad": 0.0},
                {"x_m": 800.0, "y_m": 900.0, "psi_rad": -2.0, "phi_rad": 0.1}]},
            {"controller": "receding-horizon", "rng_seed": 77,
             "snapshot_every_steps": 50},
        ]
        for data in cases:
            sc = scenario_from_dict(data)
            d = scenario_to_dict(sc)
            again = scenario_from_dict(d)
            assert scenario_to_dict(again) == d

    def test_seed_patterns_build_correct_types(self):
        t = scenario_from_dict({"seed_pattern": {"kind": "t_shape",
                                                 "center_cell": [10, 10],
                                                 "arm_cells": 3}})
        assert isinstance(t.sim.seed_pattern, TShapeSeed)
        a = scenario_from_dict({"seed_pattern": {"kind": "arc",
                                                 "center_cell": [10, 10],
                                                 "radius_cells": 3}})
        assert isinstance(a.sim.seed_pattern, ArcSeed)
        n = scenario_from_dict({"seed_pattern": {"kind": "none"}})
        assert n.sim.seed_pattern is None

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict({"bogus": 1})

    def test_unknown_nested_field_has_path(self):
        with pytest.raises(ScenarioError, match=r"grid\.bogus"):
            scenario_from_dict({"grid": {"bogus": 1}})
        with pytest.raises(ScenarioError, match=r"wind\."):
            scenario_from_dict({"wind": {"speed": 3}})

    def test_seed_fields_checked_for_every_kind(self):
        for sp in ({"kind": "none", "radius_cells": 2}, None,
                   {"kind": "arc", "center_cell": [5, 5], "arm_cells": 2}):
            with pytest.raises(ScenarioError, match="seed_pattern"):
                scenario_from_dict({"seed_pattern": sp})

    def test_dotted_top_level_key_is_unknown(self):
        with pytest.raises(ScenarioError, match=r"unknown field grid\.width_cells"):
            scenario_from_dict({"grid.width_cells": 5})

    def test_spawn_pose_fields_named(self):
        with pytest.raises(ScenarioError, match=r"spawn_poses\[1\]\.y_m"):
            scenario_from_dict({"spawn_poses": [{"x_m": 1.0, "y_m": 2.0}, {"x_m": 1.0}]})
        with pytest.raises(ScenarioError, match=r"spawn_poses\[0\]\.z_m"):
            scenario_from_dict({"spawn_poses": [{"x_m": 1.0, "y_m": 2.0, "z_m": 0.0},
                                                {"x_m": 1.0, "y_m": 2.0}]})
        with pytest.raises(ScenarioError, match="spawn_poses"):
            scenario_from_dict({"spawn_poses": [{"x_m": 1.0, "y_m": 2.0}]})

    def test_missing_seed_kind_named(self):
        with pytest.raises(ScenarioError, match=r"seed_pattern\.kind"):
            scenario_from_dict({"seed_pattern": {"center_cell": [1, 1]}})

    def test_seed_size_bounded_by_grid(self):
        # A size that reaches off any grid is refused before its cells are listed.
        with pytest.raises(ScenarioError, match=r"seed_pattern\.radius_cells"):
            scenario_from_dict({"seed_pattern": {"kind": "circular", "center_cell": [50, 50],
                                                 "radius_cells": 10 ** 9}})
        with pytest.raises(ScenarioError, match=r"seed_pattern\.center_cell"):
            scenario_from_dict({"seed_pattern": {"kind": "t_shape", "center_cell": [50, 50],
                                                 "arm_cells": 60}})

    def test_unknown_seed_kind_rejected(self):
        with pytest.raises(ScenarioError, match="ellipse"):
            scenario_from_dict({"seed_pattern": {"kind": "ellipse",
                                                 "center_cell": [1, 1]}})

    def test_unknown_controller_rejected(self):
        with pytest.raises(ScenarioError, match="controller"):
            scenario_from_dict({"controller": "pid"})

    def test_net_controller_requires_weights(self):
        with pytest.raises(ScenarioError, match="weights_path"):
            scenario_from_dict({"controller": "belief-net"})

    def test_missing_weights_file_rejected(self):
        with pytest.raises(ScenarioError, match="weights_path"):
            scenario_from_dict({"controller": "belief-net",
                                "weights_path": "/nonexistent/w.bin"})

    def test_invalid_nested_value_reports_section(self):
        with pytest.raises(ScenarioError, match="propagation"):
            scenario_from_dict({"propagation": {"ignition_alpha": 2.0}})

    def test_file_round_trip(self, tmp_path):
        sc = scenario_from_dict(tiny_dict(rng_seed=5))
        path = tmp_path / "scenario.json"
        save_scenario(path, sc)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(sc)
        # canonical formatting: rewriting produces identical bytes
        path2 = tmp_path / "again.json"
        save_scenario(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)


class TestRunEpisode:
    def test_fire_free_scores_zero(self):
        sc = scenario_from_dict(tiny_dict(seed_pattern={"kind": "none"}))
        record = run_episode(sc)
        assert record.total_score == 0.0
        assert all(d == 0.0 for d in record.discovery)

    def test_step_bookkeeping(self):
        sc = scenario_from_dict(tiny_dict())
        record = run_episode(sc)
        steps = sc.sim.horizon_steps
        assert len(record.times_s) == steps
        assert len(record.states) == steps
        assert record.times_s[0] == pytest.approx(0.1)
        assert record.times_s[-1] == pytest.approx(3.0)
        # cumulative is the running sum of the discovery increments
        run = 0.0
        for inc, cum in zip(record.discovery, record.cumulative):
            run += inc
            assert cum == run
        assert record.total_score == record.cumulative[-1]
        assert all(b >= a for a, b in zip(record.cumulative, record.cumulative[1:]))

    def test_deterministic_csv_bytes(self, tmp_path):
        sc = scenario_from_dict(tiny_dict(rng_seed=123))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_episode_csv(a, run_episode(sc))
        write_episode_csv(b, run_episode(sc))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_layout(self, tmp_path):
        sc = scenario_from_dict(tiny_dict())
        record = run_episode(sc)
        path = tmp_path / "ep.csv"
        write_episode_csv(path, record)
        lines = path.read_text().splitlines()
        assert lines[0] == ("step,t_s,x0_m,y0_m,psi0_rad,phi0_rad,reward0,"
                            "x1_m,y1_m,psi1_rad,phi1_rad,reward1,"
                            "discovery_reward,cumulative_score")
        assert len(lines) == 1 + sc.sim.horizon_steps
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == record.times_s[0]
        assert float(first[-1]) == record.cumulative[0]

    def test_snapshot_schedule(self):
        sc = scenario_from_dict(tiny_dict(snapshot_every_steps=10))
        record = run_episode(sc)
        assert [s.step for s in record.snapshots] == [0, 10, 20, 30]

    def test_initial_snapshot_always_present(self):
        sc = scenario_from_dict(tiny_dict())
        record = run_episode(sc)
        assert len(record.snapshots) == 1
        assert record.snapshots[0].step == 0
        assert record.snapshots[0].grid.burning.any()

    def test_spawn_poses_respected(self):
        poses = [{"x_m": 20.0, "y_m": 30.0, "psi_rad": 0.0, "phi_rad": 0.0},
                 {"x_m": 70.0, "y_m": 80.0, "psi_rad": 1.0, "phi_rad": 0.0}]
        sc = scenario_from_dict(tiny_dict(spawn_poses=poses,
                                          seed_pattern={"kind": "none"}))
        record = run_episode(sc)
        # after one step at 20 m/s the aircraft is ~2 m from its spawn
        # (chord of a 2 m arc, so marginally under 2 m when banked)
        a0 = record.states[0][0]
        assert math.hypot(a0.x - 20.0, a0.y - 30.0) == pytest.approx(2.0, abs=1e-3)

    def test_receding_horizon_controller_runs(self):
        sc = scenario_from_dict(tiny_dict(controller="receding-horizon"))
        record = run_episode(sc)
        assert record.controller == "receding-horizon"
        # dense observation shaping: every step strictly negative
        assert all(r < 0.0 for step in record.rewards for r in step)

    def test_random_uses_belief_reward_scale(self):
        sc = scenario_from_dict(tiny_dict())
        record = run_episode(sc)
        # belief shaping is discovery minus a small separation term, so
        # per-step rewards stay above -lambda_prox_belief * n_peers
        assert all(r > -0.2 for step in record.rewards for r in step)

    def test_belief_net_controller_runs(self, tmp_path):
        cfg = NetworkConfig(image_shape=(10, 10, 2), conv_stages=1, conv_filters=2,
                            image_dense=(8,), continuous_dense=(8,), merge_dense=(8,))
        wpath = tmp_path / "w.bin"
        save_weights(QNetwork(cfg, np.random.default_rng(0)), wpath)
        sc = scenario_from_dict(tiny_dict(controller="belief-net",
                                          weights_path=str(wpath)))
        record = run_episode(sc)
        assert record.controller == "belief-net"
        assert len(record.times_s) == sc.sim.horizon_steps

    def test_observation_net_controller_runs(self, tmp_path):
        cfg = NetworkConfig(image_shape=(4, 4, 1), conv_stages=1, conv_filters=2,
                            image_dense=(8,), continuous_dense=(8,), merge_dense=(8,))
        wpath = tmp_path / "w.bin"
        save_weights(QNetwork(cfg, np.random.default_rng(0)), wpath)
        sc = scenario_from_dict(tiny_dict(controller="observation-net",
                                          weights_path=str(wpath)))
        record = run_episode(sc)
        assert all(r < 0.0 for step in record.rewards for r in step)


def tiny_net(approach: str) -> QNetwork:
    """A seeded network for tiny_dict's belief or observation images."""
    shape = (10, 10, 2) if approach == "belief" else (4, 4, 1)
    return QNetwork(NetworkConfig(image_shape=shape, conv_stages=1, conv_filters=2,
                                  image_dense=(8,), continuous_dense=(8,),
                                  merge_dense=(8,)), np.random.default_rng(0))


class TestOneEngine:
    """Training evaluation and suite episodes are the same episodes: for a
    seeded rng, dqn's evaluate_* return mean_stderr of run_episode's
    scores over the streams spawned from that rng."""

    EPISODES = 4
    # 10 s, not tiny_dict's 3 s: long enough that the score depends on
    # which action stream the random policy draws from.
    SCENARIO = tiny_dict(horizon_seconds=10.0)

    def episode_scores(self, sc, seed, net=None):
        return [run_episode(sc, rng=child, net=net).total_score
                for child in np.random.default_rng(seed).spawn(self.EPISODES)]

    def test_random_matches_random_controller(self):
        sc = scenario_from_dict(self.SCENARIO)
        scores = self.episode_scores(sc, 5)
        assert len(set(scores)) > 1  # episodes differ, so a shifted stream shows
        assert evaluate_random(sc.sim, self.EPISODES, np.random.default_rng(5)) == \
            mean_stderr(scores)

    @pytest.mark.parametrize("approach", ["belief", "observation"])
    def test_greedy_matches_net_controller(self, approach):
        net = tiny_net(approach)
        sc = dataclasses.replace(scenario_from_dict(self.SCENARIO),
                                 controller=f"{approach}-net")
        scores = self.episode_scores(sc, 6, net=net)
        assert evaluate_policy(net, sc.sim, self.EPISODES, np.random.default_rng(6)) == \
            mean_stderr(scores)


class TestRunSuite:
    def test_one_episode_rejected(self):
        sc = scenario_from_dict(tiny_dict())
        with pytest.raises(ValueError):
            run_suite(sc, 1)

    def test_same_controller_twice_identical(self):
        sc = scenario_from_dict(tiny_dict(rng_seed=3))
        entries = run_suite(sc, 3, controllers=["random", "random"])
        assert entries[0].mean == entries[1].mean
        assert entries[0].stderr == entries[1].stderr

    def test_summary_recomputes_from_episode_csvs(self, tmp_path):
        sc = scenario_from_dict(tiny_dict(rng_seed=11))
        out = tmp_path / "suite"
        entries = run_suite(sc, 3, controllers=["random"], out_dir=out)
        finals = []
        for ep in range(3):
            path = out / f"0_random_ep{ep:03d}.csv"
            last = path.read_text().splitlines()[-1]
            finals.append(float(last.split(",")[-1]))
        arr = np.asarray(finals)
        assert entries[0].mean == float(arr.mean())
        if len(arr) > 1:
            expect_se = float(arr.std(ddof=1) / math.sqrt(len(arr)))
            assert entries[0].stderr == expect_se
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "controller,episodes,mean_score,stderr"
        cols = summary[1].split(",")
        assert cols[0] == "random"
        assert float(cols[2]) == entries[0].mean

    def test_unknown_controller_rejected(self):
        sc = scenario_from_dict(tiny_dict())
        with pytest.raises(ScenarioError):
            run_suite(sc, 2, controllers=["autopilot"])


class TestRender:
    def test_render_outputs(self, tmp_path):
        sc = scenario_from_dict(tiny_dict(snapshot_every_steps=15))
        record = run_episode(sc)
        out = tmp_path / "render"
        paths = render_record(record, sc, out)
        names = sorted(os.path.basename(p) for p in paths)
        assert "trajectories.svg" in names
        assert "step00000_fire.pgm" in names
        assert "step00015_belief.pgm" in names
        assert "step00030_staleness.pgm" in names
        fire = read_pgm(out / "step00000_fire.pgm")
        assert fire.shape == (10, 10)
        assert fire.max() == 255  # the seeded fire is visible
        svg = (out / "trajectories.svg").read_text()
        assert "<polyline" in svg and "viewBox" in svg

    def test_render_deterministic(self, tmp_path):
        sc = scenario_from_dict(tiny_dict(snapshot_every_steps=10, rng_seed=2))
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        render_record(run_episode(sc), sc, a_dir)
        render_record(run_episode(sc), sc, b_dir)
        for name in os.listdir(a_dir):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


class TestProfiles:
    def test_profiles_exposed(self):
        assert PROFILES == ("desk", "paper")
        assert profile_scenario("desk").sim.grid_width == 20
        assert profile_scenario("paper").sim.grid_width == 100
        with pytest.raises(ValueError):
            profile_scenario("laptop")

    def test_desk_scenario_parses_and_is_scaled(self):
        sc = desk_scenario()
        assert sc.sim.cell_size_m == 50.0
        assert sc.sim.propagation.alpha == pytest.approx(0.018)
        assert sc.sim.n_range_bins == 10
        assert sc.sim.n_angle_bins == 8

    def test_paper_scenario_matches_defaults(self):
        sc = paper_scenario()
        assert scenario_to_dict(sc) == scenario_to_dict(scenario_from_dict({}))

    def test_profile_net_configs(self):
        paper = profile_net_config("paper", "belief", paper_scenario().sim)
        assert paper.image_shape == (100, 100, 2)
        assert paper.conv_filters == 64
        assert paper.image_dense == (500, 100)
        desk = profile_net_config("desk", "observation", desk_scenario().sim)
        assert desk.image_shape == (10, 8, 1)
        assert desk.conv_filters < paper.conv_filters

    def test_profile_training_configs(self):
        paper = profile_training_config("paper", "belief")
        assert paper.target_update_period == 1000
        assert paper.batch_size == 64
        desk = profile_training_config("desk", "observation",
                                       total_iterations=500)
        assert desk.total_iterations == 500
        assert desk.approach == "observation"


class TestBadInputExitsTwo:
    """Each bad input ends the CLI with status 2 and a message naming the
    field, with no traceback, no run on garbage and no out directory.
    """

    def run_cli(self, tmp_path, capsys, args, config=None):
        from firescout import cli
        if config is not None:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(config))
            args = [*args, "--config", str(path)]
        args = [*args, "--out", str(tmp_path / "out")]
        try:
            code = cli.main(args)
        except SystemExit as e:
            code = e.code
        assert not (tmp_path / "out").exists()
        return code, capsys.readouterr()

    def test_one_range_bin(self, tmp_path, capsys):
        config = tiny_dict(observation={"n_range_bins": 1, "n_angle_bins": 4,
                                        "max_range_m": 100.0})
        code, out = self.run_cli(tmp_path, capsys, ["evaluate", "--episodes", "2"], config)
        assert code == 2
        assert "observation.n_range_bins" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("cell", [0.0, -10.0, float("nan"), float("inf")])
    def test_cell_size_not_positive_and_finite(self, tmp_path, capsys, cell):
        config = tiny_dict(grid={"width_cells": 10, "height_cells": 10, "cell_size_m": cell})
        code, out = self.run_cli(tmp_path, capsys, ["evaluate", "--episodes", "2"], config)
        assert code == 2
        assert "grid.cell_size_m" in out.err
        assert "mean" not in out.out

    @pytest.mark.parametrize("command", ["baseline", "evaluate"])
    def test_suite_of_one_episode(self, tmp_path, capsys, command):
        code, out = self.run_cli(tmp_path, capsys, [command, "--episodes", "1"], tiny_dict())
        assert code == 2
        assert "episodes" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("override,field", [
        ({"grid": {"width_cells": 0}}, "grid.width_cells"),
        ({"grid": {"width_cells": "abc"}}, "grid.width_cells"),
        ({"grid": {"width_cells": True}}, "grid.width_cells"),
        ({"grid": {"width_cells": 20.7}}, "grid.width_cells"),
        ({"observation": {"n_angle_bins": 0}}, "observation.n_angle_bins"),
        ({"observation": {"max_range_m": "nan"}}, "observation.max_range_m"),
        ({"observation": {"max_range_m": 0}}, "observation.max_range_m"),
        ({"propagation": {"max_offset_cells": -1}}, "propagation.max_offset_cells"),
        ({"propagation": {"step_seconds": 0}}, "propagation.step_seconds"),
        ({"seed_pattern": {"kind": "circular", "center_cell": [9, 9], "radius_cells": 1}},
         "seed_pattern.center_cell"),
        ({"grid": 5}, "grid"),
        ({"rng_seed": -1}, "rng_seed"),
        ({"aircraft_count": "two"}, "aircraft_count"),
        ({"grid": {"fuel_min_steps": 20.0, "fuel_max_steps": 10.0}}, "grid.fuel_max_steps"),
        ({"snapshot_every_steps": 0}, "snapshot_every_steps"),
        ({"wind": {"strength": -1}}, "wind.strength"),
        ({"horizon_seconds": 0.04}, "horizon_seconds"),    # under one decision step
        ({"horizon_seconds": 1e308}, "horizon_seconds"),    # horizon_steps would overflow
    ])
    def test_bad_field(self, tmp_path, capsys, override, field):
        config = tiny_dict()
        for key, value in override.items():
            if isinstance(value, dict):
                config[key] = {**config.get(key, {}), **value}
            else:
                config[key] = value
        code, out = self.run_cli(tmp_path, capsys, ["baseline", "--episodes", "2"], config)
        assert code == 2
        assert field in out.err
        assert "Traceback" not in out.err
        assert "mean" not in out.out

    @pytest.mark.parametrize("flags,field", [
        (["--seed", "-1"], "rng_seed"),
        (["--snapshot-every", "0"], "snapshot_every_steps"),
    ])
    def test_bad_override_flag(self, tmp_path, capsys, flags, field):
        code, out = self.run_cli(tmp_path, capsys, ["render", *flags], tiny_dict())
        assert code == 2
        assert field in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("flags,override,field", [
        (["--iterations", "-1"], {}, "--iterations"),
        (["--iterations", "2"], {"aircraft_count": 1}, "aircraft_count"),
    ], ids=["negative-iterations", "one-aircraft"])
    def test_bad_training_input(self, tmp_path, capsys, flags, override, field):
        code, out = self.run_cli(tmp_path, capsys, ["train", *flags], tiny_dict(**override))
        assert code == 2
        assert field in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("approach", ["belief", "observation"])
    @pytest.mark.parametrize("command", [["evaluate", "--episodes", "2"], ["render"]],
                             ids=["evaluate", "render"])
    def test_net_controller_with_one_aircraft(self, tmp_path, capsys, approach, command):
        wpath = tmp_path / "weights.bin"
        save_weights(tiny_net(approach), wpath)
        config = tiny_dict(controller=f"{approach}-net", weights_path=str(wpath),
                           aircraft_count=1)
        code, out = self.run_cli(tmp_path, capsys, command, config)
        assert code == 2
        assert "aircraft_count" in out.err
        assert "Traceback" not in out.err
        assert "mean" not in out.out

    @pytest.mark.parametrize("damage", ["truncated", "junk header"])
    def test_bad_weights_file(self, tmp_path, capsys, damage):
        cfg = NetworkConfig(image_shape=(10, 10, 2), conv_stages=1, conv_filters=2,
                            image_dense=(8,), continuous_dense=(8,), merge_dense=(8,))
        wpath = tmp_path / "weights.bin"
        save_weights(QNetwork(cfg, np.random.default_rng(0)), wpath)
        blob = wpath.read_bytes()
        if damage == "truncated":
            blob = blob[:len(blob) // 2]
        else:
            header_len = int.from_bytes(blob[8:12], "little")
            blob = blob[:12] + b"}" * header_len + blob[12 + header_len:]
        wpath.write_bytes(blob)
        config = tiny_dict(controller="belief-net", weights_path=str(wpath))
        code, out = self.run_cli(tmp_path, capsys, ["evaluate", "--episodes", "2"], config)
        assert code == 2
        assert "weights_path" in out.err and str(wpath) in out.err
        assert "Traceback" not in out.err
        assert "mean" not in out.out

    @pytest.mark.parametrize("command", [["evaluate", "--episodes", "2"], ["render"]],
                             ids=["evaluate", "render"])
    def test_one_byte_weights_file(self, tmp_path, capsys, command):
        wpath = tmp_path / "weights.bin"
        wpath.write_bytes(b"F")
        config = tiny_dict(controller="belief-net", weights_path=str(wpath))
        code, out = self.run_cli(tmp_path, capsys, command, config)
        assert code == 2
        assert "weight file ends after 1 bytes" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("command", [["render"], ["evaluate", "--episodes", "2"],
                                         ["baseline", "--episodes", "2"],
                                         ["train", "--iterations", "2"]],
                             ids=["render", "evaluate", "baseline", "train"])
    def test_out_of_memory_exits_two(self, tmp_path, command):
        """A grid too large for the process's memory ends with status 2,
        one line naming the command and the grid size fields, and no out
        directory. The CLI runs in a child process under a 1 GiB
        address-space limit."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(tiny_dict(grid={"width_cells": 1_000_000_000,
                                                   "height_cells": 10,
                                                   "cell_size_m": 10.0})))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from firescout import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(firescout.__file__)))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code, *command, "--config", str(path),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {command[0]}: out of memory "
            "(grid.width_cells x grid.height_cells = 1000000000 x 10)"]
        assert not (tmp_path / "out").exists()


# -- the field table --------------------------------------------------------

# Dataclass fields that scenario files do not expose: the planner's copies
# of the sensor fields and reward weights.
NOT_IN_SCENARIOS = {(RHConfig, name) for name in _RH_COPIES}
# Parsed outside the table, each by its own small case.
SPECIAL_CASES = {(SimConfig, "seed_pattern"), (SimConfig, "spawn_poses")}
DEFAULTS = scenario_from_dict({"seed_pattern": {"kind": "none"}})


def attribute(sc, attr):
    return functools.reduce(getattr, attr.split("."), sc)


def set_field(data, name, value):
    section, _, key = name.rpartition(".")
    (data.setdefault(section, {}) if section else data)[key] = value


def bounds(name, resolved):
    """(lo, lo_open, hi, hi_open) of an interval field; ends that name
    another field take its value from resolved."""
    valid = _FIELDS[name][1]
    lo, hi = (resolved[end] if end in resolved else float(end)
              for end in valid[1:-1].split(", "))
    return lo, valid[0] == "(", hi, valid[-1] == ")"


def flat_values(sc):
    return {name: attribute(sc, attr) for name, (attr, _) in _FIELDS.items()}


def owner(attr):
    """(dataclass, field name) at the end of an attribute path from Scenario."""
    *owners, leaf = attr.split(".")
    return functools.reduce(lambda c, o: get_type_hints(c)[o], owners, Scenario), leaf


def is_int_field(name):
    cls, leaf = owner(_FIELDS[name][0])
    hint = get_type_hints(cls)[leaf]
    return int in (get_args(hint) or (hint,))


@st.composite
def scenario_dicts(draw):
    """Valid scenario dicts that set any subset of the table's fields."""
    data, resolved = {}, flat_values(DEFAULTS)
    for name, (attr, valid) in _FIELDS.items():
        if name == "controller":
            value = draw(st.sampled_from([c for c in CONTROLLERS if c not in NET_CONTROLLERS]))
        elif name == "weights_path":
            value = draw(st.none() | st.text(max_size=8))
        elif name == "snapshot_every_steps" and draw(st.booleans()):
            value = None
        else:
            lo, lo_open, hi, hi_open = bounds(name, resolved)
            if is_int_field(name):
                lo, hi = lo + lo_open, min(hi - hi_open, lo + 40)
                value = draw(st.integers(int(lo), int(hi)))
            else:
                value = draw(st.floats(max(lo, -1e6), min(hi, 1e6), exclude_min=lo_open,
                                       exclude_max=hi_open and hi <= 1e6))
        # A field whose bounds name another one is always set, so its
        # default cannot fall outside them.
        if draw(st.booleans()) or isinstance(valid, str) and any(
                end in _FIELDS for end in valid[1:-1].split(", ")):
            set_field(data, name, value)
            resolved[name] = value
    w, h = resolved["grid.width_cells"], resolved["grid.height_cells"]
    kind = draw(st.sampled_from(["none", "circular", "t_shape", "arc"]))
    if kind != "none":
        # A box of half-width r around the centre holds every kind of seed of size r.
        r = draw(st.integers(0, (min(w, h) - 1) // 2))
        center = [draw(st.integers(r, w - 1 - r)), draw(st.integers(r, h - 1 - r))]
        size = "arm_cells" if kind == "t_shape" else "radius_cells"
        data["seed_pattern"] = {"kind": kind, "center_cell": center, size: r}
    else:
        data["seed_pattern"] = {"kind": "none"}
    if draw(st.booleans()):
        finite = st.floats(-1e4, 1e4)
        data["spawn_poses"] = [{"x_m": draw(finite), "y_m": draw(finite),
                                "psi_rad": draw(finite), "phi_rad": draw(finite)}
                               for _ in range(resolved["aircraft_count"])]
    return data


class TestFieldTable:
    def test_every_config_field_is_in_a_scenario_or_listed(self):
        covered = {owner(attr) for attr, _ in _FIELDS.values()}
        for cls in (SimConfig, Wind, PropagationParams, RewardWeights, RHConfig):
            for f in dataclasses.fields(cls):
                if dataclasses.is_dataclass(f.default):
                    continue  # a section: its own fields are checked
                key = (cls, f.name)
                places = (key in covered) + (key in NOT_IN_SCENARIOS) + (key in SPECIAL_CASES)
                assert places == 1, f"{cls.__name__}.{f.name} is in {places} places, not 1"

    @settings(max_examples=200, deadline=None)
    @given(data=scenario_dicts())
    def test_round_trip(self, data):
        sc = scenario_from_dict(data)
        written = scenario_to_dict(sc)
        again = scenario_from_dict(written)
        assert again == sc
        assert scenario_to_dict(again) == written
        assert json.loads(json.dumps(written)) == written

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(list(_FIELDS)), data=st.data())
    def test_one_bad_field_is_named(self, name, data):
        base = tiny_dict()
        wrong_type = st.text(max_size=4) | st.lists(st.integers(), max_size=2)
        bad = [st.booleans(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)]
        if name == "weights_path":
            bad.append(st.integers())
        elif name == "controller":
            bad += [st.integers(), st.text(max_size=12).filter(lambda c: c not in CONTROLLERS)]
        else:
            bad += [wrong_type, st.sampled_from([math.nan, math.inf, -math.inf])]
            if not is_int_field(name):
                bad.append(st.sampled_from([10 ** 400, -10 ** 400]))  # past any float
            if is_int_field(name):
                bad.append(st.floats())  # 20.0 too: an integer field takes no float
            lo, lo_open, hi, hi_open = bounds(name, flat_values(scenario_from_dict(base)))
            ints = is_int_field(name)
            if math.isfinite(lo):
                bad.append(st.integers(int(lo) - 1000, int(lo) - 1 + lo_open) if ints
                           else st.floats(lo - 1000, lo, exclude_max=not lo_open))
            if math.isfinite(hi):
                bad.append(st.integers(int(hi) + (not hi_open), int(hi) + 1000) if ints
                           else st.floats(hi, hi + 1000, exclude_min=not hi_open))
        value = data.draw(st.one_of(*bad))
        set_field(base, name, value)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(base)
        assert str(err.value).startswith(f"{name}: "), (value, str(err.value))
