"""Tests for polar observation sampling and the shared belief map.

The observation oracle re-samples every bin with scalar math, independent
of the vectorized implementation. The ego belief oracle is the
one-aircraft resampler that ego_belief_images replaced, which the batch
must match byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firescout.aircraft import AircraftState
from firescout.fire import FireGrid, new_grid
from firescout.sensing import (
    TIME_SINCE_MAX,
    VISIT_RADIUS,
    BeliefMap,
    build_range_bins,
    belief_channels_u8,
    ego_belief_image,
    ego_belief_images,
    render_observation,
    update_belief,
    _visited_mask,
)


class TestRangeBins:
    def test_endpoints_exact(self):
        b = build_range_bins(40, 500.0)
        assert b.cutpoints[0] == 0.0
        assert b.cutpoints[-1] == 500.0
        assert len(b.centers) == 40
        assert b.max_range == 500.0

    def test_widths_tile_the_range(self):
        for n in (2, 10, 40):
            b = build_range_bins(n, 500.0)
            widths = np.diff(b.cutpoints)
            assert float(np.sum(widths)) == 500.0
            assert (widths > 0).all()

    def test_last_width_ten_times_first(self):
        b = build_range_bins(40, 500.0)
        widths = np.diff(b.cutpoints)
        assert widths[-1] / widths[0] == pytest.approx(10.0, rel=1e-9)

    def test_two_bin_case_by_hand(self):
        # weights 1 and 10 split 500 m into 500/11 and 5000/11
        b = build_range_bins(2, 500.0)
        assert b.cutpoints[1] == pytest.approx(500.0 / 11.0, rel=1e-12)
        widths = np.diff(b.cutpoints)
        assert widths[1] / widths[0] == pytest.approx(10.0, rel=1e-12)

    def test_centers_are_midpoints(self):
        b = build_range_bins(10, 500.0)
        mid = 0.5 * (b.cutpoints[:-1] + b.cutpoints[1:])
        assert np.array_equal(b.centers, mid)

    def test_too_few_bins_raises(self):
        with pytest.raises(ValueError):
            build_range_bins(1, 500.0)


class TestRenderObservation:
    def oracle(self, grid, state, bins, n_angle):
        """Scalar re-derivation of the sampling rule."""
        sector = 2.0 * math.pi / n_angle
        out = np.zeros((len(bins.centers), n_angle), dtype=bool)
        for i, r in enumerate(bins.centers):
            for j in range(n_angle):
                bearing = state.psi + (j + 0.5) * sector
                px = state.x + r * math.cos(bearing)
                py = state.y + r * math.sin(bearing)
                ix = math.floor(px / grid.cell_size)
                iy = math.floor(py / grid.cell_size)
                if 0 <= ix < grid.width and 0 <= iy < grid.height:
                    out[i, j] = grid.burning[iy, ix]
        return out

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2024)
        bins = build_range_bins(12, 300.0)
        for _ in range(40):
            g = new_grid(30, 25, 15.0, 20.0, rng, cell_size=10.0)
            g.burning = rng.random((25, 30)) < 0.25
            state = AircraftState(
                x=float(rng.uniform(-50.0, 350.0)),
                y=float(rng.uniform(-50.0, 300.0)),
                psi=float(rng.uniform(-math.pi, math.pi)),
            )
            obs = render_observation(g, state, bins, n_angle_bins=8)
            assert np.array_equal(obs.values, self.oracle(g, state, bins, 8))

    def test_far_away_sees_nothing(self):
        g = new_grid(10, 10, 15.0, 20.0, np.random.default_rng(0))
        g.burning[:, :] = True
        obs = render_observation(g, AircraftState(1e6, 1e6, 0.0), build_range_bins(40, 500.0), 30)
        assert not obs.values.any()
        assert obs.values.shape == (40, 30)

    def test_all_burning_grid_marks_inside_samples(self):
        g = FireGrid(fuel=np.full((40, 40), 15.0),
                     burning=np.ones((40, 40), dtype=bool), cell_size=10.0)
        state = AircraftState(200.0, 200.0, 0.7)
        bins = build_range_bins(20, 500.0)
        obs = render_observation(g, state, bins, 16)
        # near samples are always inside the 400 m square, the longest
        # ranges always leave it
        assert obs.values[0, :].all()
        assert not obs.values[-1, :].any()
        assert obs.values.dtype == np.bool_

    def test_pure_function(self):
        g = new_grid(10, 10, 15.0, 20.0, np.random.default_rng(1))
        g.burning[4, 4] = True
        state = AircraftState(50.0, 50.0, 0.0)
        bins = build_range_bins(8, 200.0)
        a = render_observation(g, state, bins, 6)
        b = render_observation(g, state, bins, 6)
        assert np.array_equal(a.values, b.values)


def fresh_belief(h=20, w=20, cs=10.0):
    return BeliefMap.initial(np.zeros((h, w), dtype=bool), cell_size=cs)


def blank_grid(h=20, w=20, cs=10.0):
    return FireGrid(fuel=np.full((h, w), 15.0),
                    burning=np.zeros((h, w), dtype=bool), cell_size=cs)


class TestUpdateBelief:
    def test_visit_radius_boundary_inclusive(self):
        belief = fresh_belief()
        grid = blank_grid()
        # aircraft at the center of cell (10, 10); cell (0, 10) center is
        # exactly 100 m away, cell (0, 0) is sqrt(2) * 100 m away
        out, _ = update_belief(belief, grid, [AircraftState(105.0, 105.0)])
        assert out.time_since[10, 10] == 0
        assert out.time_since[10, 0] == 0
        assert out.time_since[0, 0] == TIME_SINCE_MAX
        assert VISIT_RADIUS == 100.0

    def test_visited_cells_take_truth(self):
        belief = fresh_belief()
        belief.fire[10, 12] = True     # stale claim, truth is clear
        grid = blank_grid()
        grid.burning[10, 8] = True     # real fire not yet believed
        out, discovered = update_belief(belief, grid, [AircraftState(105.0, 105.0)])
        assert out.fire[10, 8]
        assert not out.fire[10, 12]    # corrected on visit
        assert discovered == 1

    def test_unvisited_cells_keep_belief(self):
        belief = fresh_belief()
        belief.fire[0, 0] = True
        grid = blank_grid()
        grid.burning[0, 19] = True
        out, discovered = update_belief(belief, grid, [AircraftState(105.0, 105.0)])
        assert out.fire[0, 0]          # stale but unvisited, kept
        assert not out.fire[0, 19]     # real but unseen
        assert discovered == 0

    def test_discovery_counts_only_new_fire(self):
        belief = fresh_belief()
        belief.fire[10, 10] = True
        grid = blank_grid()
        grid.burning[10, 10] = True    # already believed
        grid.burning[10, 11] = True    # new
        grid.burning[11, 10] = True    # new
        _, discovered = update_belief(belief, grid, [AircraftState(105.0, 105.0)])
        assert discovered == 2

    def test_staleness_ages_and_saturates(self):
        belief = fresh_belief(20, 20)
        grid = blank_grid(20, 20)
        near = AircraftState(5.0, 5.0)
        out, _ = update_belief(belief, grid, [near])
        assert out.time_since[0, 0] == 0
        out2, _ = update_belief(out, grid, [AircraftState(1e6, 1e6)])
        assert out2.time_since[0, 0] == 1
        assert out2.time_since[19, 19] == TIME_SINCE_MAX  # stays at the cap

    def test_multiple_aircraft_union(self):
        belief = fresh_belief()
        grid = blank_grid()
        out, _ = update_belief(belief, grid,
                               [AircraftState(5.0, 5.0), AircraftState(195.0, 195.0)])
        assert out.time_since[0, 0] == 0
        assert out.time_since[19, 19] == 0
        assert out.time_since[10, 10] == TIME_SINCE_MAX

    def test_no_aircraft_only_ages(self):
        belief = fresh_belief(4, 4)
        grid = blank_grid(4, 4)
        grid.burning[2, 2] = True
        out, discovered = update_belief(belief, grid, [])
        assert discovered == 0
        assert not out.fire.any()
        assert (out.time_since == TIME_SINCE_MAX).all()

    def test_input_not_mutated(self):
        belief = fresh_belief()
        grid = blank_grid()
        grid.burning[10, 10] = True
        update_belief(belief, grid, [AircraftState(105.0, 105.0)])
        assert not belief.fire.any()
        assert (belief.time_since == TIME_SINCE_MAX).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            update_belief(fresh_belief(10, 10), blank_grid(9, 9), [])


def oracle_visited_mask(belief, aircraft):
    """Every aircraft against every cell center of the map."""
    cs = belief.cell_size
    cx = (np.arange(belief.width) + 0.5) * cs
    cy = (np.arange(belief.height) + 0.5) * cs
    visited = np.zeros((belief.height, belief.width), dtype=bool)
    for a in aircraft:
        d2 = (cx[None, :] - a.x) ** 2 + (cy[:, None] - a.y) ** 2
        visited |= d2 <= VISIT_RADIUS * VISIT_RADIUS
    return visited


@st.composite
def map_and_fleet(draw):
    """A map and 0-4 aircraft: inside, on its edges, on cell edges and
    centers, exactly one radius from a cell center, just off and far off."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    cs = draw(st.sampled_from([0.5, 7.3, 10.0, 50.0, 150.0, 300.0]))

    def coordinate(n):
        extent = n * cs
        return draw(st.one_of(
            st.floats(-3 * VISIT_RADIUS, extent + 3 * VISIT_RADIUS),
            st.sampled_from([0.0, extent, -VISIT_RADIUS, extent + VISIT_RADIUS,
                             -1e6, 1e6]),
            st.integers(-2, n + 2).map(lambda i: i * cs),
            st.integers(-2, n + 2).map(lambda i: (i + 0.5) * cs + VISIT_RADIUS),
            st.integers(-2, n + 2).map(lambda i: (i + 0.5) * cs - VISIT_RADIUS)))

    fleet = [AircraftState(coordinate(w), coordinate(h))
             for _ in range(draw(st.integers(0, 4)))]
    return fresh_belief(h, w, cs), fleet


class TestVisitedMask:
    @settings(max_examples=400, deadline=None)
    @given(case=map_and_fleet())
    def test_equals_full_grid_oracle(self, case):
        belief, fleet = case
        assert np.array_equal(_visited_mask(belief, fleet), oracle_visited_mask(belief, fleet))

    def test_disk_across_a_corner(self):
        belief = fresh_belief(20, 20)
        corner = [AircraftState(-50.0, 205.0)]    # off the map, beyond cell (19, 0)
        got = _visited_mask(belief, corner)
        assert got.any() and np.array_equal(got, oracle_visited_mask(belief, corner))


class TestEgoBeliefImage:
    def test_identity_when_heading_east_at_center(self):
        belief = fresh_belief(21, 21)
        belief.fire[4, 7] = True
        belief.time_since[4, 7] = 51
        r0 = c0 = 10
        state = AircraftState((c0 + 0.5) * 10.0, (r0 + 0.5) * 10.0, 0.0)
        img = ego_belief_image(belief, state)
        assert img.shape == (21, 21, 2)
        assert img.dtype == np.float32
        assert img[4, 7, 0] == 1.0
        assert img[4, 7, 1] == np.float32(51 / 255)
        assert img[:, :, 0].sum() == 1.0

    def test_rotation_heading_north(self):
        # heading runs along +columns, rows run to the pilot's left; with
        # psi = pi/2 the cell 3 north of the aircraft lands 3 columns
        # right of center and the cell 3 west lands 3 rows down
        belief = fresh_belief(21, 21)
        r0 = c0 = 10
        belief.fire[r0 + 3, c0] = True       # 3 cells north (ahead)
        belief.fire[r0, c0 - 3] = True       # 3 cells west (left wing)
        state = AircraftState((c0 + 0.5) * 10.0, (r0 + 0.5) * 10.0, math.pi / 2)
        img = ego_belief_image(belief, state)
        assert img[r0, c0 + 3, 0] == 1.0
        assert img[r0 + 3, c0, 0] == 1.0
        assert img[:, :, 0].sum() == 2.0

    def test_center_pixel_is_own_cell(self):
        belief = fresh_belief(15, 15)
        belief.fire[7, 7] = True
        belief.time_since[7, 7] = 0
        state = AircraftState(75.0, 75.0, 1.234)
        img = ego_belief_image(belief, state)
        assert img[7, 7, 0] == 1.0
        assert img[7, 7, 1] == 0.0

    def test_outside_pixels_read_stale_clear(self):
        belief = fresh_belief(11, 11)
        belief.fire[:, :] = True
        belief.time_since[:, :] = 0
        # aircraft just inside the south-west corner: the opposite image
        # quadrant falls off the map
        state = AircraftState(5.0, 5.0, 0.0)
        img = ego_belief_image(belief, state)
        assert img[0, 0, 0] == 0.0
        assert img[0, 0, 1] == 1.0
        # own cell is still real
        assert img[5, 5, 0] == 1.0
        assert img[5, 5, 1] == 0.0

    def test_channel_ranges(self):
        rng = np.random.default_rng(7)
        belief = fresh_belief(16, 16)
        belief.fire = rng.random((16, 16)) < 0.5
        belief.time_since = rng.integers(0, 256, (16, 16)).astype(np.int32)
        img = ego_belief_image(belief, AircraftState(80.0, 80.0, 0.4))
        assert (img >= 0.0).all() and (img <= 1.0).all()
        assert set(np.unique(img[:, :, 0])) <= {0.0, 1.0}


def oracle_ego_belief_image(belief, state):
    """One aircraft's ego image with its own index arithmetic and an inside mask."""
    h, w = belief.height, belief.width
    cs = belief.cell_size
    r0, c0 = h // 2, w // 2
    down = (np.arange(w) - c0) * cs
    cross = (np.arange(h) - r0) * cs
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


@st.composite
def belief_and_team(draw):
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    cs = draw(st.sampled_from([7.3, 10.0, 50.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    belief = BeliefMap(fire=rng.random((h, w)) < 0.3,
                       time_since=rng.integers(0, TIME_SINCE_MAX + 1, (h, w)).astype(np.int32),
                       cell_size=cs)
    # poses up to one map side off every edge, headings across +/-pi; cell
    # edges and centers and multiples of pi/4 put samples on cell borders
    def coord(side):
        return st.one_of(st.floats(-1.0, 2.0).map(lambda f: f * side * cs),
                         st.integers(-2 * side, 4 * side).map(lambda k: k * cs / 2))
    heading = st.one_of(st.floats(-math.pi, math.pi),
                        st.integers(-4, 4).map(lambda k: k * math.pi / 4))
    states = draw(st.lists(st.builds(AircraftState, coord(w), coord(h), heading),
                           min_size=1, max_size=4))
    return belief, states


class TestEgoBeliefImages:
    @settings(max_examples=300, deadline=None)
    @given(case=belief_and_team())
    def test_bytes_equal_scalar_oracle(self, case):
        belief, states = case
        images = ego_belief_images(belief, states)
        assert images.shape == (len(states), belief.height, belief.width, 2)
        assert images.dtype == np.float32
        for image, state in zip(images, states):
            assert image.tobytes() == oracle_ego_belief_image(belief, state).tobytes()
        assert ego_belief_image(belief, states[0]).tobytes() == images[0].tobytes()


class TestBeliefChannels:
    def test_u8_export(self):
        belief = fresh_belief(5, 5)
        belief.fire[2, 2] = True
        belief.time_since[1, 1] = 17
        fire, stale = belief_channels_u8(belief)
        assert fire.dtype == np.uint8 and stale.dtype == np.uint8
        assert fire[2, 2] == 255 and fire[0, 0] == 0
        assert stale[1, 1] == 17
        assert stale[0, 0] == 255
