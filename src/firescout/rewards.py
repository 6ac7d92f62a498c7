"""Reward models for both sensing approaches.

The observation reward is a sum of four penalties approximated from the
polar image: distance to the nearest observed fire, non-burning cells
close to the aircraft, bank-angle magnitude, and proximity to the other
aircraft. The belief reward pays for newly discovered burning cells
(shared by the whole team) minus the same exponential proximity penalty.
The simulator and the planner run the array forms, observation_rewards
and belief_rewards; the scalar terms are their test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aircraft import RelativeGeometry
from .sensing import PolarObservation, RangeBins


@dataclass(frozen=True)
class RewardWeights:
    """Term weights. Defaults keep the four penalties at comparable scale
    for the nominal grid; none of the library's guarantees depend on them.
    """

    lambda1: float = 0.02   # distance to observed fire front
    lambda2: float = 0.02   # non-burning bins inside the r0 disk
    lambda3: float = 0.5    # squared bank angle
    lambda4: float = 2.0    # pairwise proximity (observation approach)
    r0: float = 60.0        # m, radius of the "over the front" disk
    c: float = 100.0        # m, proximity penalty length scale
    lambda_prox_belief: float = 0.1  # pairwise proximity (belief approach)
    discovery_reward: float = 1.0    # per newly seen burning cell

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda_prox_belief"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.r0 <= 0 or self.c <= 0:
            raise ValueError("r0 and c must be positive")


def fire_distance_penalty(obs: PolarObservation, bins: RangeBins, w: RewardWeights) -> float:
    """-lambda1 times the bin-center radius of the nearest burning bin.

    With no fire in view the full sensor range is charged instead.
    """
    burning_rows = obs.values.any(axis=1)
    if not burning_rows.any():
        return -w.lambda1 * bins.max_range
    nearest = bins.centers[burning_rows].min()
    return -w.lambda1 * float(nearest)


def cold_cells_penalty(obs: PolarObservation, bins: RangeBins, w: RewardWeights) -> float:
    """-lambda2 per non-burning bin whose center radius is inside r0."""
    near = bins.centers < w.r0
    count = int((~obs.values[near]).sum())
    return -w.lambda2 * count


def bank_penalty(phi_own: float, w: RewardWeights) -> float:
    return -w.lambda3 * phi_own * phi_own


def proximity_penalty(rho: float, w: RewardWeights, weight: float | None = None) -> float:
    """-weight * exp(-rho / c); weight defaults to lambda4."""
    if weight is None:
        weight = w.lambda4
    return -weight * math.exp(-rho / w.c)


def belief_reward(discovered: int, geoms: list[RelativeGeometry],
                  w: RewardWeights) -> float:
    """Team discovery bonus minus the separation penalty toward each peer.

    The discovery term counts every burning cell newly added to the shared
    belief this step, so it is identical for every aircraft in the team.
    """
    if discovered < 0:
        raise ValueError("discovered must be non-negative")
    total = w.discovery_reward * discovered
    for g in geoms:
        total += proximity_penalty(g.rho, w, weight=w.lambda_prox_belief)
    return total


def observation_rewards(values: np.ndarray, phi: np.ndarray, peer_rho: np.ndarray,
                        bins: RangeBins, w: RewardWeights) -> np.ndarray:
    """Observation reward (m,) of m states from their polar flags values
    (m, n_range, n_angle), banks phi (m,) and peer ranges peer_rho (m, p):
    fire distance + cold cells + bank, then each peer's term in turn.
    """
    radii = bins.centers
    nearest = np.where(values.any(axis=2), radii, np.inf).min(axis=1)
    r1 = -w.lambda1 * np.where(np.isinf(nearest), bins.max_range, nearest)
    r2 = -w.lambda2 * (~values[:, radii < w.r0]).sum(axis=(1, 2))
    total = r1 + r2 + -w.lambda3 * phi * phi
    for rho in peer_rho.T:
        total = total - w.lambda4 * np.exp(-rho / w.c)
    return total


def belief_rewards(discovered: int, peer_rho: np.ndarray, w: RewardWeights) -> np.ndarray:
    """Belief reward of m aircraft that share discovered, shape (m,)
    float64; peer_rho (m, p) as in observation_rewards."""
    total = np.full(len(peer_rho), w.discovery_reward * discovered)
    for rho in peer_rho.T:
        total = total - w.lambda_prox_belief * np.exp(-rho / w.c)
    return total
