"""Reward models for both sensing approaches.

The observation reward is a sum of four penalties approximated from the
polar image: distance to the nearest observed fire, non-burning cells
close to the aircraft, bank-angle magnitude, and proximity to the other
aircraft. The belief reward pays for newly discovered burning cells
(shared by the whole team) minus the same exponential proximity penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
