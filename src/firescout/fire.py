"""Stochastic cellular wildfire propagation.

The land area is discretized into a rectangular grid of cells. Each cell
carries an amount of burnable fuel and a boolean burning flag. Burning
cells consume fuel at a fixed rate and extinguish when it runs out;
non-burning fueled cells ignite stochastically based on proximity to
burning cells, optionally biased by wind.

World coordinates: x grows east with column index, y grows north with row
index. Arrays are indexed ``[row, col]`` i.e. ``[iy, ix]``; the center of
cell ``(ix, iy)`` is at ``((ix + 0.5) * cell_size, (iy + 0.5) * cell_size)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class FireGrid:
    """Per-cell fuel and burning state.

    fuel is non-negative and never increases over time. A burning cell
    always had positive fuel at the moment it was set alight.
    """

    fuel: np.ndarray        # (h, w) float64, >= 0
    burning: np.ndarray     # (h, w) bool
    cell_size: float = 10.0  # meters per cell edge

    @property
    def height(self) -> int:
        return self.fuel.shape[0]

    @property
    def width(self) -> int:
        return self.fuel.shape[1]

    @property
    def extent(self) -> tuple[float, float]:
        """World size (x_extent, y_extent) in meters."""
        return self.width * self.cell_size, self.height * self.cell_size

    def copy(self) -> "FireGrid":
        return FireGrid(self.fuel.copy(), self.burning.copy(), self.cell_size)


@dataclass(frozen=True)
class PropagationParams:
    """Tuning constants for the spread model.

    beta is the fuel consumed per burning cell per fire step. alpha scales
    the pairwise ignition probability, which falls off with the inverse
    square of cell distance and is zero beyond a Chebyshev offset of
    max_offset cells.
    """

    beta: float = 1.0
    alpha: float = 0.09
    max_offset: int = 2
    step_duration: float = 2.5  # seconds of world time per fire step

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class Wind:
    """Directional ignition bias.

    direction is the angle the wind blows toward (radians, atan2
    convention: 0 = east, pi/2 = north). strength >= 0 scales the bias;
    zero disables it.
    """

    direction: float = 0.0
    strength: float = 0.0


@dataclass(frozen=True)
class CircularSeed:
    """Burning disk: all cells within radius (Euclidean, cell units) of center."""

    center: tuple[int, int]  # (ix, iy)
    radius: int


@dataclass(frozen=True)
class TShapeSeed:
    """Burning arms extending west, north and south from center."""

    center: tuple[int, int]
    arm: int


@dataclass(frozen=True)
class ArcSeed:
    """Circular seed with the upper (northern) half of the grid defueled.

    Models a fire bounded by a fuel break; the surviving front is an arc.
    """

    center: tuple[int, int]
    radius: int


SeedPattern = CircularSeed | TShapeSeed | ArcSeed


def new_grid(width: int, height: int, fuel_min: float, fuel_max: float,
             rng: np.random.Generator, cell_size: float = 10.0) -> FireGrid:
    """Create a grid with i.i.d. uniform fuel in [fuel_min, fuel_max], nothing burning."""
    if width <= 0 or height <= 0:
        raise ValueError("grid dimensions must be positive")
    if not 0 <= fuel_min <= fuel_max:
        raise ValueError("need 0 <= fuel_min <= fuel_max")
    fuel = rng.uniform(fuel_min, fuel_max, size=(height, width))
    if fuel_min == fuel_max:  # uniform(a, a) is a, but make the degenerate case exact
        fuel = np.full((height, width), float(fuel_min))
    return FireGrid(fuel=fuel, burning=np.zeros((height, width), dtype=bool),
                    cell_size=cell_size)


def _seed_cells(pattern: SeedPattern) -> list[tuple[int, int]]:
    cx, cy = pattern.center
    if isinstance(pattern, (CircularSeed, ArcSeed)):
        r = pattern.radius
        return [(cx + dx, cy + dy)
                for dy in range(-r, r + 1)
                for dx in range(-r, r + 1)
                if dx * dx + dy * dy <= r * r]
    if isinstance(pattern, TShapeSeed):
        cells = [(cx, cy)]
        for i in range(1, pattern.arm + 1):
            cells += [(cx - i, cy), (cx, cy + i), (cx, cy - i)]
        return cells
    raise TypeError(f"unknown seed pattern {pattern!r}")


def apply_seed(grid: FireGrid, pattern: SeedPattern) -> FireGrid:
    """Return a copy of grid with the pattern's cells set alight.

    Cells with zero fuel are never marked burning. For ArcSeed the fuel
    in the upper half of the rows is zeroed before igniting.
    """
    cells = _seed_cells(pattern)
    for ix, iy in cells:
        if not (0 <= ix < grid.width and 0 <= iy < grid.height):
            raise ValueError(f"seed cell ({ix}, {iy}) outside {grid.width}x{grid.height} grid")
    out = grid.copy()
    if isinstance(pattern, ArcSeed):
        out.fuel[out.height // 2:, :] = 0.0
    for ix, iy in cells:
        if out.fuel[iy, ix] > 0:
            out.burning[iy, ix] = True
    return out


def _offset_probabilities(params: PropagationParams, wind: Wind) -> list[tuple[int, int, float]]:
    """Pairwise ignition probability for each neighbor offset.

    Entry (dx, dy, p): a burning cell at s + (dx, dy) ignites s with
    probability p per step. The wind bias multiplies the inverse-square
    kernel by max(0, 1 + strength * cos(spread_bearing - direction)),
    where the spread bearing points from the burning cell toward s.
    """
    m = params.max_offset
    out = []
    for dy in range(-m, m + 1):
        for dx in range(-m, m + 1):
            if dx == 0 and dy == 0:
                continue
            d2 = dx * dx + dy * dy
            p = params.alpha / d2
            if wind.strength > 0:
                spread = math.atan2(-dy, -dx)  # from neighbor toward the candidate cell
                p *= max(0.0, 1.0 + wind.strength * math.cos(spread - wind.direction))
            out.append((dx, dy, min(p, 1.0)))
    return out


def ignition_probability_map(grid: FireGrid, params: PropagationParams,
                             wind: Wind) -> np.ndarray:
    """Probability that each cell catches fire on the next step.

    Zero for cells that are already burning or out of fuel. Otherwise each
    burning neighbor within the offset cutoff contributes an independent
    chance, combined as 1 - prod(1 - p_neighbor); one pass over the grid.
    """
    h, w = grid.fuel.shape
    m = params.max_offset
    padded = np.zeros((h + 2 * m, w + 2 * m), dtype=bool)
    padded[m:m + h, m:m + w] = grid.burning
    survive = np.ones((h, w))
    for dx, dy, p in _offset_probabilities(params, wind):
        if p == 0.0:
            continue
        neighbor = padded[m + dy:m + dy + h, m + dx:m + dx + w]
        survive *= np.where(neighbor, 1.0 - p, 1.0)
    prob = 1.0 - survive
    prob[grid.burning] = 0.0
    prob[grid.fuel <= 0] = 0.0
    return prob


def step_fire(grid: FireGrid, params: PropagationParams, wind: Wind,
              rng: np.random.Generator) -> FireGrid:
    """Advance the fire one step (synchronous update from the current state).

    Burning cells lose beta fuel (clamped at zero) and extinguish the
    moment fuel hits zero. Every non-burning fueled cell independently
    ignites with its ignition probability. Exactly one grid-shaped uniform
    draw is consumed from rng per call, so identical seeds reproduce
    identical runs.
    """
    prob = ignition_probability_map(grid, params, wind)
    draws = rng.random(size=grid.fuel.shape)
    new_fuel = np.where(grid.burning, np.maximum(0.0, grid.fuel - params.beta), grid.fuel)
    new_burning = np.where(grid.burning, new_fuel > 0.0, draws < prob)
    return FireGrid(fuel=new_fuel, burning=new_burning, cell_size=grid.cell_size)


def pre_grow(grid: FireGrid, seconds: float, params: PropagationParams,
             wind: Wind, rng: np.random.Generator) -> FireGrid:
    """Let the fire develop for the given world time before anything observes it.

    Applies floor(seconds / step_duration) fire steps.
    """
    if seconds < 0:
        raise ValueError("seconds must be non-negative")
    for _ in range(int(seconds // params.step_duration)):
        grid = step_fire(grid, params, wind, rng)
    return grid


def burning_channel_u8(grid: FireGrid) -> np.ndarray:
    """Burning flags as a 0/255 image."""
    return np.where(grid.burning, 255, 0).astype(np.uint8)
