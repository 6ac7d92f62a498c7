"""Tests for the cellular fire model.

Single-neighbor ignition probabilities are frozen from the inverse-square
kernel evaluated by hand; the map/scalar agreement and Monte Carlo checks
are independent of the implementation's internals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firescout.fire import (
    ArcSeed,
    CircularSeed,
    FireGrid,
    PropagationParams,
    TShapeSeed,
    Wind,
    apply_seed,
    _offset_probabilities,
    burning_channel_u8,
    ignition_probability_map,
    new_grid,
    pre_grow,
    step_fire,
)

CALM = Wind()


def ignition_probability(grid, params, wind, cell):
    """Scalar oracle for one cell of ignition_probability_map.

    Zero for cells that are already burning or out of fuel. Otherwise each
    burning neighbor within the offset cutoff contributes an independent
    chance, combined as 1 - prod(1 - p_neighbor).
    """
    ix, iy = cell
    if not (0 <= ix < grid.width and 0 <= iy < grid.height):
        raise ValueError(f"cell ({ix}, {iy}) outside {grid.width}x{grid.height} grid")
    if grid.burning[iy, ix] or grid.fuel[iy, ix] <= 0:
        return 0.0
    survive = 1.0
    for dx, dy, p in _offset_probabilities(params, wind):
        nx, ny = ix + dx, iy + dy
        if 0 <= nx < grid.width and 0 <= ny < grid.height and grid.burning[ny, nx]:
            survive *= 1.0 - p
    return 1.0 - survive


def fuel_channel_u8(grid):
    """Fuel scaled into 0-255 (relative to the grid's current maximum)."""
    peak = float(grid.fuel.max())
    if peak <= 0:
        return np.zeros(grid.fuel.shape, dtype=np.uint8)
    return np.rint(grid.fuel * (255.0 / peak)).astype(np.uint8)


def uniform_grid(size=7, fuel=15.0, cell_size=10.0):
    """All-fuel grid with nothing burning."""
    return FireGrid(
        fuel=np.full((size, size), fuel),
        burning=np.zeros((size, size), dtype=bool),
        cell_size=cell_size,
    )


class TestIgnitionProbability:
    # alpha / d^2 for every distinct squared distance in the 5x5 window
    @pytest.mark.parametrize("offset,expected", [
        ((1, 0), 0.09),
        ((0, 1), 0.09),
        ((-1, 0), 0.09),
        ((1, 1), 0.045),
        ((-1, -1), 0.045),
        ((2, 0), 0.0225),
        ((0, -2), 0.0225),
        ((2, 1), 0.018),
        ((-2, 1), 0.018),
        ((1, 2), 0.018),
        ((2, 2), 0.01125),
        ((-2, -2), 0.01125),
    ])
    def test_single_neighbor_inverse_square(self, offset, expected):
        g = uniform_grid()
        dx, dy = offset
        g.burning[3 + dy, 3 + dx] = True
        p = ignition_probability(g, PropagationParams(), CALM, (3, 3))
        # the survival round trip 1 - (1 - p) costs at most an ulp
        assert p == pytest.approx(expected, rel=1e-12, abs=0)

    def test_beyond_window_is_zero(self):
        g = uniform_grid(9)
        g.burning[4, 7] = True  # offset (3, 0), outside max_offset=2
        assert ignition_probability(g, PropagationParams(), CALM, (4, 4)) == 0.0

    def test_burning_cell_has_zero_probability(self):
        g = uniform_grid()
        g.burning[3, 3] = True
        g.burning[3, 4] = True
        assert ignition_probability(g, PropagationParams(), CALM, (3, 3)) == 0.0

    def test_fuelless_cell_has_zero_probability(self):
        g = uniform_grid()
        g.fuel[3, 3] = 0.0
        g.burning[3, 4] = True
        assert ignition_probability(g, PropagationParams(), CALM, (3, 3)) == 0.0

    def test_two_neighbors_combine_independently(self):
        g = uniform_grid()
        g.burning[3, 2] = True
        g.burning[3, 4] = True
        p = ignition_probability(g, PropagationParams(), CALM, (3, 3))
        assert p == 1.0 - (1.0 - 0.09) * (1.0 - 0.09)

    def test_probability_clamped_to_one(self):
        g = uniform_grid()
        g.burning[3, 4] = True
        params = PropagationParams(alpha=1.0)
        wind = Wind(direction=math.pi, strength=1.0)  # doubles the adjacent kernel
        assert ignition_probability(g, params, wind, (3, 3)) == 1.0

    def test_out_of_grid_cell_raises(self):
        g = uniform_grid()
        with pytest.raises(ValueError):
            ignition_probability(g, PropagationParams(), CALM, (7, 0))


class TestWindBias:
    """Wind blowing toward direction=pi (west) with a burning cell at the origin
    of the offsets; the downwind neighbor doubles, the upwind one drops to zero,
    the crosswind one is unchanged."""

    WIND = Wind(direction=math.pi, strength=1.0)

    def probe(self, offset):
        g = uniform_grid()
        dx, dy = offset  # candidate is at burning + (dx, dy)
        g.burning[3, 3] = True
        return ignition_probability(g, PropagationParams(), self.WIND, (3 + dx, 3 + dy))

    def test_downwind_doubled(self):
        assert self.probe((-1, 0)) == pytest.approx(0.18, rel=1e-12, abs=0)

    def test_upwind_zero(self):
        assert self.probe((1, 0)) == 0.0

    def test_crosswind_unchanged(self):
        assert self.probe((0, 1)) == pytest.approx(0.09, rel=1e-12, abs=0)

    def test_zero_strength_matches_calm(self):
        g = uniform_grid()
        g.burning[3, 4] = True
        calm = ignition_probability(g, PropagationParams(), CALM, (3, 3))
        still = ignition_probability(g, PropagationParams(), Wind(math.pi / 3, 0.0), (3, 3))
        assert calm == still
        assert calm == pytest.approx(0.09, rel=1e-12, abs=0)


class TestProbabilityMap:
    def test_matches_scalar_everywhere(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            g = new_grid(9, 7, 0.0, 20.0, rng)
            g.burning = rng.random((7, 9)) < 0.3
            wind = Wind(direction=rng.uniform(-math.pi, math.pi),
                        strength=rng.uniform(0.0, 1.5))
            pm = ignition_probability_map(g, PropagationParams(), wind)
            for iy in range(7):
                for ix in range(9):
                    assert pm[iy, ix] == ignition_probability(
                        g, PropagationParams(), wind, (ix, iy))

    def test_edges_do_not_wrap(self):
        g = uniform_grid(5)
        g.burning[0, 0] = True
        pm = ignition_probability_map(g, PropagationParams(), CALM)
        # the far corner and far edges see nothing
        assert pm[4, 4] == 0.0
        assert pm[0, 4] == 0.0
        assert pm[4, 0] == 0.0


class TestStepFire:
    def test_burn_rate_and_extinction(self):
        g = uniform_grid(5, fuel=2.0)
        g.burning[2, 2] = True
        g.fuel[2, 2] = 2.0
        rng = np.random.default_rng(0)
        g1 = step_fire(g, PropagationParams(), CALM, rng)
        assert g1.fuel[2, 2] == 1.0
        assert g1.burning[2, 2]
        g2 = step_fire(g1, PropagationParams(), CALM, rng)
        assert g2.fuel[2, 2] == 0.0
        assert not g2.burning[2, 2]

    def test_fuel_clamped_at_zero(self):
        g = uniform_grid(3, fuel=0.4)
        g.burning[1, 1] = True
        g1 = step_fire(g, PropagationParams(), CALM, np.random.default_rng(0))
        assert g1.fuel[1, 1] == 0.0
        assert not g1.burning[1, 1]

    def test_nonburning_fuel_unchanged(self):
        rng = np.random.default_rng(3)
        g = new_grid(6, 6, 15.0, 20.0, rng)
        g.burning[2, 2] = True
        g1 = step_fire(g, PropagationParams(), CALM, rng)
        keep = ~g.burning
        assert np.array_equal(g1.fuel[keep], g.fuel[keep])

    def test_update_is_synchronous(self):
        # A cell ignited this step must not contribute to other ignitions
        # this same step: with only one burning cell, any cell at Chebyshev
        # distance > 2 from it cannot ignite, whatever the draws do.
        g = uniform_grid(9)
        g.burning[4, 4] = True
        for seed in range(50):
            g1 = step_fire(g, PropagationParams(alpha=1.0), CALM,
                           np.random.default_rng(seed))
            far = np.ones((9, 9), dtype=bool)
            far[2:7, 2:7] = False
            assert not g1.burning[far].any()

    def test_consumes_one_grid_draw(self):
        g = uniform_grid(5)
        g.burning[2, 2] = True
        a = np.random.default_rng(77)
        b = np.random.default_rng(77)
        step_fire(g, PropagationParams(), CALM, a)
        b.random(size=(5, 5))
        assert a.random() == b.random()

    def test_deterministic_under_seed(self):
        base = uniform_grid(10)
        base.burning[5, 5] = True
        runs = []
        for _ in range(2):
            g = base.copy()
            rng = np.random.default_rng(42)
            for _ in range(10):
                g = step_fire(g, PropagationParams(), CALM, rng)
            runs.append(g)
        assert np.array_equal(runs[0].fuel, runs[1].fuel)
        assert np.array_equal(runs[0].burning, runs[1].burning)


class TestPreGrow:
    def test_thirty_seconds_is_twelve_steps(self):
        base = uniform_grid(10)
        base.burning[5, 5] = True
        grown = pre_grow(base.copy(), 30.0, PropagationParams(), CALM,
                         np.random.default_rng(9))
        manual = base.copy()
        rng = np.random.default_rng(9)
        for _ in range(12):
            manual = step_fire(manual, PropagationParams(), CALM, rng)
        assert np.array_equal(grown.fuel, manual.fuel)
        assert np.array_equal(grown.burning, manual.burning)

    def test_partial_step_floors(self):
        base = uniform_grid(6)
        base.burning[3, 3] = True
        a = pre_grow(base.copy(), 2.4, PropagationParams(), CALM,
                     np.random.default_rng(1))
        assert np.array_equal(a.burning, base.burning)  # 0 steps applied

    def test_negative_seconds_raises(self):
        with pytest.raises(ValueError):
            pre_grow(uniform_grid(3), -1.0, PropagationParams(), CALM,
                     np.random.default_rng(0))


class TestSeeds:
    def test_circular_seed_cell_count(self):
        g = apply_seed(uniform_grid(7), CircularSeed(center=(3, 3), radius=2))
        assert int(g.burning.sum()) == 13
        assert g.burning[3, 3]
        assert g.burning[1, 3] and g.burning[5, 3]
        assert not g.burning[1, 1]  # corner of the bounding box, d^2 = 8 > 4

    def test_t_shape_arms(self):
        g = apply_seed(uniform_grid(7), TShapeSeed(center=(3, 3), arm=2))
        assert int(g.burning.sum()) == 7
        for ix, iy in [(3, 3), (2, 3), (1, 3), (3, 4), (3, 5), (3, 2), (3, 1)]:
            assert g.burning[iy, ix]
        assert not g.burning[3, 4]  # no east arm

    def test_arc_seed_defuels_northern_half(self):
        g = apply_seed(uniform_grid(7), ArcSeed(center=(3, 3), radius=2))
        assert (g.fuel[3:, :] == 0.0).all()
        assert (g.fuel[:3, :] > 0.0).all()
        # only the southern part of the disk survives
        assert int(g.burning.sum()) == 4
        assert not g.burning[3:, :].any()

    def test_seed_does_not_mutate_input(self):
        base = uniform_grid(7)
        snapshot = base.copy()
        apply_seed(base, CircularSeed(center=(3, 3), radius=1))
        assert np.array_equal(base.burning, snapshot.burning)
        assert np.array_equal(base.fuel, snapshot.fuel)

    def test_seed_outside_grid_raises(self):
        with pytest.raises(ValueError):
            apply_seed(uniform_grid(5), CircularSeed(center=(4, 4), radius=2))

    def test_seed_skips_fuelless_cells(self):
        base = uniform_grid(7)
        base.fuel[3, 2] = 0.0
        g = apply_seed(base, CircularSeed(center=(3, 3), radius=1))
        assert not g.burning[3, 2]
        assert int(g.burning.sum()) == 4


class TestNewGrid:
    def test_fuel_range_and_no_fire(self):
        g = new_grid(20, 10, 15.0, 20.0, np.random.default_rng(5))
        assert g.fuel.shape == (10, 20)
        assert (g.fuel >= 15.0).all() and (g.fuel <= 20.0).all()
        assert not g.burning.any()
        assert g.extent == (200.0, 100.0)

    def test_degenerate_range_is_exact(self):
        g = new_grid(4, 4, 15.0, 15.0, np.random.default_rng(0))
        assert (g.fuel == 15.0).all()

    def test_bad_dimensions_raise(self):
        with pytest.raises(ValueError):
            new_grid(0, 5, 15.0, 20.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            new_grid(5, 5, -1.0, 20.0, np.random.default_rng(0))


class TestChannels:
    def test_burning_channel_binary(self):
        g = uniform_grid(4)
        g.burning[1, 2] = True
        img = burning_channel_u8(g)
        assert img.dtype == np.uint8
        assert img[1, 2] == 255
        assert img.sum() == 255

    def test_fuel_channel_scales_to_peak(self):
        g = uniform_grid(3, fuel=20.0)
        g.fuel[0, 0] = 10.0
        img = fuel_channel_u8(g)
        assert img[1, 1] == 255
        assert img[0, 0] == 128  # rint(10 * 255 / 20)

    def test_fuel_channel_all_zero(self):
        g = uniform_grid(3, fuel=0.0)
        assert fuel_channel_u8(g).sum() == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6))
def test_step_invariants(seed, steps):
    """Fuel never increases, burning cells always sit on fuel history,
    and nothing ignites outside the neighborhood of the current front."""
    rng = np.random.default_rng(seed)
    g = new_grid(8, 8, 0.0, 4.0, rng)
    g.burning[rng.integers(0, 8), rng.integers(0, 8)] = True
    g.burning &= g.fuel > 0
    wind = Wind(direction=float(rng.uniform(-math.pi, math.pi)),
                strength=float(rng.uniform(0.0, 1.0)))
    for _ in range(steps):
        nxt = step_fire(g, PropagationParams(), wind, rng)
        assert (nxt.fuel <= g.fuel).all()
        assert (nxt.fuel >= 0.0).all()
        # cells that were previously burnt out never reignite
        dead = (g.fuel <= 0) & ~g.burning
        assert not nxt.burning[dead].any()
        # new ignitions only where the probability was positive
        prob = ignition_probability_map(g, PropagationParams(), wind)
        fresh = nxt.burning & ~g.burning
        assert (prob[fresh] > 0).all()
        g = nxt
