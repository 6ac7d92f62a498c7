"""Desk-scale wildfire surveillance: stochastic fire spread, banked-turn
aircraft, shared belief mapping, from-scratch deep Q-learning and a
receding-horizon baseline.
"""

from .aircraft import Action, AircraftState, RelativeGeometry, apply_action, \
    integrate, relative_geometry, wrap_angle
from .env import BELIEF, OBSERVATION, SimConfig, StepResult, SurveillanceSim
from .fire import ArcSeed, CircularSeed, FireGrid, PropagationParams, \
    SeedPattern, TShapeSeed, Wind, apply_seed, ignition_probability_map, \
    new_grid, pre_grow, step_fire
from .nn import AdaMax, NetworkConfig, QNetwork, copy_weights, load_weights, \
    save_weights
from .dqn import ReplayBuffer, TrainingConfig, Trainer, epsilon, evaluate_policy, \
    evaluate_random, run_training, select_action_multi
from .harness import EpisodeRecord, Scenario, ScenarioError, desk_scenario, \
    load_scenario, paper_scenario, render_record, run_episode, run_suite, \
    save_scenario, scenario_from_dict, scenario_to_dict
from .receding_horizon import RHConfig, RHPolicy, optimize_trajectory
from .rewards import RewardWeights, bank_penalty, belief_reward, belief_rewards, \
    cold_cells_penalty, fire_distance_penalty, observation_rewards, proximity_penalty
from .sensing import BeliefMap, PolarObservation, RangeBins, build_range_bins, \
    ego_belief_image, render_observation, update_belief

__version__ = "0.1.0"

__all__ = [
    "Action", "AircraftState", "RelativeGeometry", "apply_action", "integrate",
    "relative_geometry", "wrap_angle",
    "BELIEF", "OBSERVATION", "SimConfig", "StepResult", "SurveillanceSim",
    "ArcSeed", "CircularSeed", "FireGrid", "PropagationParams", "SeedPattern",
    "TShapeSeed", "Wind", "apply_seed", "ignition_probability_map", "new_grid",
    "pre_grow", "step_fire",
    "AdaMax", "NetworkConfig", "QNetwork", "copy_weights", "load_weights", "save_weights",
    "ReplayBuffer", "TrainingConfig", "Trainer", "epsilon",
    "evaluate_policy", "evaluate_random", "run_training", "select_action_multi",
    "EpisodeRecord", "Scenario", "ScenarioError", "desk_scenario", "load_scenario",
    "paper_scenario", "render_record", "run_episode", "run_suite", "save_scenario",
    "scenario_from_dict", "scenario_to_dict",
    "RHConfig", "RHPolicy", "optimize_trajectory",
    "RewardWeights", "bank_penalty", "belief_reward", "belief_rewards", "cold_cells_penalty",
    "fire_distance_penalty", "observation_rewards", "proximity_penalty",
    "BeliefMap", "PolarObservation", "RangeBins", "build_range_bins",
    "ego_belief_image", "render_observation", "update_belief",
]
