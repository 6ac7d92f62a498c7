"""Fire sensing: polar observation images and the shared belief map.

Two sensing models feed the controllers. The observation model renders
the true fire into a body-frame polar image whose range resolution decays
with distance. The belief model maintains a grid-aligned map shared by
the whole team: a binary is-burning belief plus a per-cell count of steps
since the cell was last directly observed, refreshed whenever any
aircraft passes within the visit radius.
"""

from __future__ import annotations

import math
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
    def centers(self) -> np.ndarray:
        return 0.5 * (self.cutpoints[:-1] + self.cutpoints[1:])

    @property
    def max_range(self) -> float:
        return float(self.cutpoints[-1])


def build_range_bins(n_bins: int, max_range: float) -> RangeBins:
    """Bins whose widths ramp linearly from w to 10*w, tiling [0, max_range].

    The per-bin weights are normalized so the final cutpoint lands exactly
    on max_range.
    """
    if n_bins < 2:
        raise ValueError("need at least 2 range bins")
    idx = np.arange(n_bins, dtype=np.float64)
    weights = 1.0 + 9.0 * idx / (n_bins - 1)
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
                 n_angle_bins: int) -> np.ndarray:
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
                       n_angle_bins: int) -> PolarObservation:
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
    """Cells whose centers lie within VISIT_RADIUS of any aircraft.

    Each aircraft's disk is tested only over a square window of cells
    around it, shifted to lie inside the map (the whole axis where the map
    is narrower), with the distances a full-grid pass computes. All the
    windows are one array.
    """
    h, w, cs = belief.height, belief.width, belief.cell_size
    visited = np.zeros((h, w), dtype=bool)
    if not aircraft:
        return visited
    # a disk's cells lie within reach - 1 cells of the aircraft's own cell
    reach = math.ceil(VISIT_RADIUS / cs) + 1
    sy, sx = min(2 * reach + 1, h), min(2 * reach + 1, w)
    pos = np.array([(a.y, a.x) for a in aircraft])    # (n, 2): row axis, column axis
    lo = np.array([(min(max(math.floor(a.y / cs) - reach, 0), h - sy),
                    min(max(math.floor(a.x / cs) - reach, 0), w - sx)) for a in aircraft])
    rows = lo[:, :1] + np.arange(sy)                  # (n, window rows)
    cols = lo[:, 1:] + np.arange(sx)                  # (n, window columns)
    dy2 = ((rows + 0.5) * cs - pos[:, :1]) ** 2
    dx2 = ((cols + 0.5) * cs - pos[:, 1:]) ** 2
    near = dx2[:, None, :] + dy2[:, :, None] <= VISIT_RADIUS * VISIT_RADIUS
    visited.reshape(-1)[(rows[:, :, None] * w + cols[:, None, :])[near]] = True
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


def ego_belief_images(belief: BeliefMap, states) -> np.ndarray:
    """Resample the belief into ownship-centered, heading-aligned images,
    one per aircraft state, shape (n, h, w, 2).

    Channel 0 is the fire belief as 0/1, channel 1 the staleness
    normalized by TIME_SINCE_MAX. Each aircraft sits at the center pixel
    with its heading along the +column axis; rows run toward its left.
    One pixel spans one belief cell, sampled nearest-neighbor. Pixels that
    fall outside the map read (0, 1): no fire believed, maximally stale.
    """
    h, w = belief.height, belief.width
    cs = belief.cell_size
    down = (np.arange(w) - w // 2) * cs       # along heading, per column
    cross = (np.arange(h) - h // 2)[:, None] * cs    # to the left, per row
    xs, ys, psis = np.array([(s.x, s.y, s.psi) for s in states]).T[:, :, None, None]
    cos_p, sin_p = np.cos(psis), np.sin(psis)
    cells = []    # (n, h, w) column and row indices into the padded map
    for p, edge in ((xs + down * cos_p - cross * sin_p, w),
                    (ys + down * sin_p + cross * cos_p, h)):
        p /= cs
        # past an edge, clamp onto the padding row or column (index -1 wraps to it)
        np.maximum(p, -1.0, out=p)
        cells.append(np.floor(np.minimum(p, edge, out=p), out=p))
    flat = (cells[1] * (w + 1) + cells[0]).astype(np.intp)
    # each cell's (fire, staleness) pixel, plus an off-map row and column
    pixels = np.empty((h + 1, w + 1, 2), dtype=np.float32)
    pixels[...] = (0.0, 1.0)
    pixels[:h, :w, 0] = belief.fire
    pixels[:h, :w, 1] = belief.time_since / TIME_SINCE_MAX
    return pixels.reshape(-1, 2).take(flat, axis=0)


def ego_belief_image(belief: BeliefMap, state: AircraftState) -> np.ndarray:
    """One aircraft's (h, w, 2) ego belief image; see ego_belief_images."""
    return ego_belief_images(belief, [state])[0]


def belief_channels_u8(belief: BeliefMap) -> tuple[np.ndarray, np.ndarray]:
    """Belief as exportable images: fire 0/255, staleness raw 0-255."""
    fire = np.where(belief.fire, 255, 0).astype(np.uint8)
    time_since = belief.time_since.astype(np.uint8)
    return fire, time_since
