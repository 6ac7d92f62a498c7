"""Tests for scenario files, episode logging, suites and rendering."""

import json
import math
import os

import numpy as np
import pytest

from firescout.fire import ArcSeed, CircularSeed, TShapeSeed
from firescout.harness import (
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
from firescout.pgm import read_pgm


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

    def test_missing_seed_kind_named(self):
        with pytest.raises(ScenarioError, match=r"seed_pattern\.kind"):
            scenario_from_dict({"seed_pattern": {"center_cell": [1, 1]}})

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
    field, with no traceback and no run on garbage.
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
