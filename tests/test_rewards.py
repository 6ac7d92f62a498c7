"""Tests for the reward terms.

Closed-form literals frozen by hand:
  proximity at rho = c, lambda4 = 2:     -2 / e = -0.7357588823428847
  bank at 50 degrees, lambda3 = 0.5:     -0.38077177473338575
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from firescout.aircraft import RelativeGeometry
from firescout.rewards import (
    RewardWeights,
    bank_penalty,
    belief_reward,
    cold_cells_penalty,
    fire_distance_penalty,
    proximity_penalty,
)
from firescout.sensing import PolarObservation, RangeBins, build_range_bins

W = RewardWeights()


def observation_reward(obs, bins, geom, w):
    """Sum of the four observation-approach penalties for one peer (always <= 0)."""
    return (fire_distance_penalty(obs, bins, w)
            + cold_cells_penalty(obs, bins, w)
            + bank_penalty(geom.phi_own, w)
            + proximity_penalty(geom.rho, w))


def obs_with(bins, n_angle=30, rows=()):
    values = np.zeros((len(bins.centers), n_angle), dtype=bool)
    for r in rows:
        values[r, 0] = True
    return PolarObservation(values=values, bins=bins)


def geom(rho=300.0, phi_own=0.0, phi_other=0.0):
    return RelativeGeometry(rho=rho, theta=0.0, psi_rel=0.0,
                            phi_own=phi_own, phi_other=phi_other)


class TestFireDistance:
    def test_no_fire_charges_full_range(self):
        bins = build_range_bins(40, 500.0)
        assert fire_distance_penalty(obs_with(bins), bins, W) == -0.02 * 500.0

    def test_nearest_burning_row_wins(self):
        bins = build_range_bins(40, 500.0)
        obs = obs_with(bins, rows=(5, 20))
        expected = -0.02 * float(bins.centers[5])
        assert fire_distance_penalty(obs, bins, W) == expected

    def test_any_sector_counts(self):
        bins = build_range_bins(8, 200.0)
        values = np.zeros((8, 4), dtype=bool)
        values[2, 3] = True
        obs = PolarObservation(values=values, bins=bins)
        assert fire_distance_penalty(obs, bins, W) == -0.02 * float(bins.centers[2])


class TestColdCells:
    def test_hand_built_bins(self):
        # centers 20, 60, 100: only the first sits inside r0 = 60
        bins = RangeBins(cutpoints=np.array([0.0, 40.0, 80.0, 120.0]))
        values = np.zeros((3, 2), dtype=bool)
        obs = PolarObservation(values=values, bins=bins)
        assert cold_cells_penalty(obs, bins, W) == -0.02 * 2

    def test_burning_bins_not_charged(self):
        bins = RangeBins(cutpoints=np.array([0.0, 40.0, 80.0, 120.0]))
        values = np.zeros((3, 2), dtype=bool)
        values[0, :] = True
        obs = PolarObservation(values=values, bins=bins)
        assert cold_cells_penalty(obs, bins, W) == 0.0

    def test_default_bins_count(self):
        bins = build_range_bins(40, 500.0)
        inside = int((bins.centers < 60.0).sum())
        assert inside > 0
        obs = obs_with(bins)
        assert cold_cells_penalty(obs, bins, W) == -0.02 * (inside * 30)


class TestBankAndProximity:
    def test_level_flight_free(self):
        assert bank_penalty(0.0, W) == 0.0

    def test_bank_fifty_degrees(self):
        assert bank_penalty(math.radians(50.0), W) == pytest.approx(
            -0.38077177473338575, rel=1e-15)

    def test_bank_sign_symmetric(self):
        assert bank_penalty(0.4, W) == bank_penalty(-0.4, W)

    def test_proximity_at_length_scale(self):
        assert proximity_penalty(100.0, W) == pytest.approx(
            -0.7357588823428847, rel=1e-15)

    def test_proximity_weight_override(self):
        assert proximity_penalty(100.0, W, weight=0.1) == pytest.approx(
            -0.1 * math.exp(-1.0), rel=1e-15)

    def test_proximity_decays(self):
        far = proximity_penalty(5000.0, W)
        near = proximity_penalty(10.0, W)
        assert near < far < 0.0
        assert far == pytest.approx(0.0, abs=1e-15)


class TestComposites:
    def test_observation_reward_sums_terms(self):
        bins = build_range_bins(40, 500.0)
        obs = obs_with(bins, rows=(3,))
        g = geom(rho=150.0, phi_own=0.2)
        total = observation_reward(obs, bins, g, W)
        parts = (fire_distance_penalty(obs, bins, W)
                 + cold_cells_penalty(obs, bins, W)
                 + bank_penalty(0.2, W)
                 + proximity_penalty(150.0, W))
        assert total == parts
        assert total < 0.0

    def test_belief_reward_no_peers(self):
        assert belief_reward(3, [], W) == 3.0
        assert belief_reward(0, [], W) == 0.0

    def test_belief_reward_with_peer(self):
        got = belief_reward(3, [geom(rho=100.0)], W)
        assert got == pytest.approx(3.0 - 0.1 * math.exp(-1.0), rel=1e-14)

    def test_belief_reward_two_peers(self):
        got = belief_reward(0, [geom(rho=100.0), geom(rho=200.0)], W)
        expected = -0.1 * math.exp(-1.0) - 0.1 * math.exp(-2.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_belief_reward_rejects_negative_count(self):
        with pytest.raises(ValueError):
            belief_reward(-1, [], W)

    def test_discovery_weight_scales(self):
        w = RewardWeights(discovery_reward=2.5)
        assert belief_reward(4, [], w) == 10.0


class TestWeights:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RewardWeights(lambda1=-0.01)
        with pytest.raises(ValueError):
            RewardWeights(lambda_prox_belief=-1.0)

    def test_nonpositive_scales_rejected(self):
        with pytest.raises(ValueError):
            RewardWeights(r0=0.0)
        with pytest.raises(ValueError):
            RewardWeights(c=-5.0)

    def test_round_trip_dict(self):
        w = RewardWeights(lambda1=0.05, r0=80.0)
        assert RewardWeights(**asdict(w)) == w
