"""Fire sensing: polar observation images and the shared belief map.

Two sensing models feed the controllers. The observation model renders
the true fire into a body-frame polar image whose range resolution decays
with distance. The belief model maintains a grid-aligned map shared by
the whole team: a binary is-burning belief plus a per-cell count of steps
since the cell was last directly observed, refreshed whenever any
aircraft passes within the visit radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aircraft import AircraftState
from .fire import FireGrid

VISIT_RADIUS = 100.0   # m, cells this close to an aircraft are seen exactly
TIME_SINCE_MAX = 255   # staleness counter saturates here


@dataclass(frozen=True)
class RangeBins:
    """Monotone range cutpoints for the polar observation.

    cutpoints has n_bins + 1 entries from 0 to the maximum range; interval
    widths grow linearly with range so nearby fire is resolved finely.
    """

    cutpoints: np.ndarray  # (n_bins + 1,) float64, strictly increasing

    @property
    def n_bins(self) -> int:
        return len(self.cutpoints) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.cutpoints)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.cutpoints[:-1] + self.cutpoints[1:])

    @property
    def max_range(self) -> float:
        return float(self.cutpoints[-1])


def build_range_bins(n_bins: int = 40, max_range: float = 500.0,
                     ratio: float = 10.0) -> RangeBins:
    """Bins whose widths ramp linearly from w to ratio*w, tiling [0, max_range].

    The per-bin weights are normalized so the final cutpoint lands exactly
    on max_range.
    """
    if n_bins < 2:
        raise ValueError("need at least 2 range bins")
    idx = np.arange(n_bins, dtype=np.float64)
    weights = 1.0 + (ratio - 1.0) * idx / (n_bins - 1)
    cumulative = np.cumsum(weights)
    cut = np.empty(n_bins + 1)
    cut[0] = 0.0
    cut[1:] = max_range * (cumulative / cumulative[-1])
    return RangeBins(cutpoints=cut)


@dataclass(frozen=True)
class PolarObservation:
    """Binary fire image in the ownship polar frame.

    values[i, j] is the burning flag of the grid cell nearest the center
    of range bin i and angular sector j; sectors tile the full circle
    counterclockwise starting at the nose. Points off the grid read False.
    """

    values: np.ndarray  # (n_range, n_angle) bool
    bins: RangeBins


def sample_polar(grid: FireGrid, xs, ys, psis, bins: RangeBins,
                 n_angle_bins: int = 30) -> np.ndarray:
    """Burning flags at every (range bin, sector) center point of n poses,
    shape (n, n_range, n_angle); points off the grid read False.
    """
    bearings = psis + (np.arange(n_angle_bins) + 0.5)[:, None] * (2.0 * np.pi / n_angle_bins)
    h, w = grid.burning.shape
    cells = []    # (n_range, n_angle, n): every pass runs over the poses
    for trig, at, edge in ((np.cos, xs, w), (np.sin, ys, h)):
        p = bins.centers[:, None, None] * trig(bearings)
        p += at
        p /= grid.cell_size
        # past an edge, clamp onto a False row or column (index -1 wraps to it)
        cells.append(np.floor(np.clip(p, -1.0, edge, out=p), out=p))
    padded = np.zeros((h + 1, w + 1), dtype=bool)
    padded[:h, :w] = grid.burning
    flat = (cells[1] * (w + 1) + cells[0]).astype(np.intp)
    return padded.ravel().take(flat).transpose(2, 0, 1)


def render_observation(grid: FireGrid, state: AircraftState, bins: RangeBins,
                       n_angle_bins: int = 30) -> PolarObservation:
    """Sample the true fire at every (range bin, sector) center point."""
    values = sample_polar(grid, [state.x], [state.y], [state.psi], bins, n_angle_bins)
    return PolarObservation(values=values[0], bins=bins)


@dataclass
class BeliefMap:
    """Team-shared fire belief with per-cell staleness counters.

    time_since is 0 exactly for cells visited on the most recent update
    and saturates at TIME_SINCE_MAX.
    """

    fire: np.ndarray        # (h, w) bool
    time_since: np.ndarray  # (h, w) int32 in [0, TIME_SINCE_MAX]
    cell_size: float = 10.0

    @property
    def height(self) -> int:
        return self.fire.shape[0]

    @property
    def width(self) -> int:
        return self.fire.shape[1]

    @classmethod
    def initial(cls, fire: np.ndarray, cell_size: float = 10.0) -> "BeliefMap":
        """Fresh map: belief equals the given seed, nothing visited yet."""
        fire = np.asarray(fire, dtype=bool)
        time_since = np.full(fire.shape, TIME_SINCE_MAX, dtype=np.int32)
        return cls(fire=fire.copy(), time_since=time_since, cell_size=cell_size)

    def copy(self) -> "BeliefMap":
        return BeliefMap(self.fire.copy(), self.time_since.copy(), self.cell_size)


def _visited_mask(belief: BeliefMap, aircraft: list[AircraftState]) -> np.ndarray:
    cs = belief.cell_size
    cx = (np.arange(belief.width) + 0.5) * cs
    cy = (np.arange(belief.height) + 0.5) * cs
    visited = np.zeros((belief.height, belief.width), dtype=bool)
    r2 = VISIT_RADIUS * VISIT_RADIUS
    for a in aircraft:
        d2 = (cx[None, :] - a.x) ** 2 + (cy[:, None] - a.y) ** 2
        visited |= d2 <= r2
    return visited


def update_belief(belief: BeliefMap, grid: FireGrid,
                  aircraft: list[AircraftState]) -> tuple[BeliefMap, int]:
    """One sensing update from all aircraft positions at once.

    Cells within VISIT_RADIUS of any aircraft take on the true burning
    flag and reset their staleness to 0; everything else keeps its belief
    and ages by one step (capped). Returns the new map and the number of
    visited cells whose belief flipped from clear to burning.
    """
    if belief.fire.shape != grid.burning.shape:
        raise ValueError(
            f"belief {belief.fire.shape} and grid {grid.burning.shape} dimensions differ")
    visited = _visited_mask(belief, aircraft)
    discovered = int(np.count_nonzero(visited & grid.burning & ~belief.fire))
    fire = np.where(visited, grid.burning, belief.fire)
    time_since = np.where(visited, 0,
                          np.minimum(belief.time_since + 1, TIME_SINCE_MAX)).astype(np.int32)
    return BeliefMap(fire=fire, time_since=time_since, cell_size=belief.cell_size), discovered


def ego_belief_image(belief: BeliefMap, state: AircraftState) -> np.ndarray:
    """Resample the belief into an ownship-centered, heading-aligned image.

    Output is (h, w, 2): channel 0 the fire belief as 0/1, channel 1 the
    staleness normalized by TIME_SINCE_MAX. The aircraft sits at the
    center pixel with its heading along the +column axis; rows run toward
    its left. One pixel spans one belief cell, sampled nearest-neighbor.
    Pixels that fall outside the map read (0, 1): no fire believed, maximally
    stale.
    """
    h, w = belief.height, belief.width
    cs = belief.cell_size
    r0, c0 = h // 2, w // 2
    down = (np.arange(w) - c0) * cs       # along heading, per column
    cross = (np.arange(h) - r0) * cs      # to the left, per row
    cos_p, sin_p = np.cos(state.psi), np.sin(state.psi)
    wx = state.x + down[None, :] * cos_p - cross[:, None] * sin_p
    wy = state.y + down[None, :] * sin_p + cross[:, None] * cos_p
    ix = np.floor(wx / cs).astype(np.int64)
    iy = np.floor(wy / cs).astype(np.int64)
    inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    image = np.empty((h, w, 2), dtype=np.float32)
    image[..., 0] = 0.0
    image[..., 1] = 1.0
    image[inside, 0] = belief.fire[iy[inside], ix[inside]]
    image[inside, 1] = belief.time_since[iy[inside], ix[inside]] / TIME_SINCE_MAX
    return image


def belief_channels_u8(belief: BeliefMap) -> tuple[np.ndarray, np.ndarray]:
    """Belief as exportable images: fire 0/255, staleness raw 0-255."""
    fire = np.where(belief.fire, 255, 0).astype(np.uint8)
    time_since = belief.time_since.astype(np.uint8)
    return fire, time_since
