"""Cell grid partitioning tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import AABB
from repro.pointcloud import CellGrid, PointCloudFrame, PAPER_CELL_SIZES


def unit_grid(cell=0.5, hi=(2.0, 2.0, 2.0)):
    return CellGrid(AABB(np.zeros(3), np.array(hi)), cell)


def test_paper_cell_sizes():
    assert PAPER_CELL_SIZES == (0.25, 0.50, 1.00)


def test_dims_round_up():
    g = CellGrid(AABB(np.zeros(3), np.array([1.0, 1.1, 0.2])), 0.5)
    assert g.dims == (2, 3, 1)
    assert g.num_cells == 6


def test_rejects_nonpositive_cell_size():
    with pytest.raises(ValueError):
        unit_grid(cell=0.0)


def test_cell_index_of_known_points():
    g = unit_grid()
    idx = g.cell_index_of(np.array([[0.1, 0.1, 0.1], [1.9, 1.9, 1.9]]))
    assert idx[0] == 0
    assert idx[1] == g.num_cells - 1


def test_points_outside_clamp_to_boundary():
    g = unit_grid()
    idx = g.cell_index_of(np.array([[-5.0, -5.0, -5.0], [50.0, 50.0, 50.0]]))
    assert idx[0] == 0
    assert idx[1] == g.num_cells - 1


def test_ijk_roundtrip():
    g = unit_grid()
    for cid in range(g.num_cells):
        ijk = g.ijk_of(cid)
        nx, ny, _ = g.dims
        back = ijk[0] + nx * (ijk[1] + ny * ijk[2])
        assert back == cid


def test_cell_bounds_partition_space():
    g = unit_grid()
    total = sum(g.cell_bounds(c).volume for c in range(g.num_cells))
    assert total == pytest.approx(8.0)  # 4x4x4 cells of 0.125


def test_cell_bounds_array_matches_scalar():
    g = unit_grid()
    ids = np.arange(g.num_cells)
    lows, highs = g.cell_bounds_array(ids)
    for i, cid in enumerate(ids):
        b = g.cell_bounds(int(cid))
        assert np.allclose(lows[i], b.lo)
        assert np.allclose(highs[i], b.hi)


def test_cell_centers():
    g = unit_grid()
    c = g.cell_centers(np.array([0]))
    assert np.allclose(c[0], [0.25, 0.25, 0.25])


def test_covering_with_margin():
    frame = PointCloudFrame(np.array([[0.0, 0, 0], [1.0, 1, 1]]))
    g = CellGrid.covering(frame, 0.5, margin=0.25)
    assert g.bounds.contains(np.array([-0.2, -0.2, -0.2]))


@given(st.integers(min_value=1, max_value=200))
def test_points_land_in_their_cell(n):
    g = unit_grid()
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.0, 2.0, size=(n, 3))
    ids = g.cell_index_of(pts)
    lows, highs = g.cell_bounds_array(ids)
    assert np.all(pts >= lows - 1e-9)
    assert np.all(pts <= highs + 1e-9)


def test_occupancy_counts_sum_to_points():
    g = unit_grid()
    rng = np.random.default_rng(0)
    frame = PointCloudFrame(rng.uniform(0, 2, size=(500, 3)), nominal_points=5000)
    occ = g.occupancy(frame)
    assert occ.counts.sum() == 500
    assert occ.total_points == pytest.approx(5000.0)
    assert occ.scale_factor == pytest.approx(10.0)


def test_occupancy_count_of_and_dict():
    g = unit_grid()
    frame = PointCloudFrame(
        np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [1.9, 1.9, 1.9]]),
        nominal_points=30,
    )
    occ = g.occupancy(frame)
    assert occ.count_of(0) == pytest.approx(20.0)
    assert occ.count_of(g.num_cells - 1) == pytest.approx(10.0)
    assert occ.count_of(5) == 0.0
    d = occ.as_dict()
    assert d[0] == pytest.approx(20.0)
    assert len(d) == 2


def test_occupancy_ids_sorted():
    g = unit_grid()
    rng = np.random.default_rng(2)
    frame = PointCloudFrame(rng.uniform(0, 2, size=(100, 3)))
    occ = g.occupancy(frame)
    assert np.all(np.diff(occ.cell_ids) > 0)


# -- occupancy memo and cached per-frame geometry ----------------------------


def _frame(seed=0, n=400):
    rng = np.random.default_rng(seed)
    return PointCloudFrame(rng.uniform(0.0, 2.0, size=(n, 3)), nominal_points=4 * n)


def test_occupancy_is_memoized_per_frame_and_lattice():
    frame = _frame()
    grid = unit_grid()
    occ = grid.occupancy(frame)
    assert grid.occupancy(frame) is occ
    # An equal grid built separately shares the occupancy.
    assert unit_grid().occupancy(frame) is occ
    # Another frame with the same points does not.
    assert grid.occupancy(_frame()) is not occ


def test_distinct_grids_never_alias():
    frame = _frame()
    base = unit_grid(0.5)
    finer = unit_grid(0.25)
    lo = np.zeros(3)
    shifted = CellGrid(AABB(np.nextafter(lo, -1.0), np.full(3, 2.0)), 0.5)
    taller = CellGrid(AABB(lo, np.array([2.0, 2.0, np.nextafter(2.0, 3.0)])), 0.5)
    occs = [g.occupancy(frame) for g in (base, finer, shifted, taller)]
    assert len({id(o) for o in occs}) == 4
    for grid, occ in zip((base, finer, shifted, taller), occs):
        assert occ.grid is grid
        idx = grid.cell_index_of(frame.points)
        ids, counts = np.unique(idx, return_counts=True)
        assert np.array_equal(occ.cell_ids, ids)
        assert np.array_equal(occ.counts, counts)


def test_memoized_occupancy_arrays_are_read_only():
    occ = unit_grid().occupancy(_frame())
    for array in (occ.cell_ids, occ.counts, occ.nominal, *occ.lows_highs,
                  occ.centers):
        assert not array.flags.writeable


def test_cached_frame_geometry_matches_the_grid():
    occ = unit_grid().occupancy(_frame(n=900))
    lows, highs = occ.grid.cell_bounds_array(occ.cell_ids)
    assert np.array_equal(occ.lows_highs[0], lows)
    assert np.array_equal(occ.lows_highs[1], highs)
    assert np.array_equal(occ.centers, occ.grid.cell_centers(occ.cell_ids))
    nominal = occ.nominal_counts().astype(np.float64)
    assert np.array_equal(occ.nominal, nominal)
    assert occ.frame_points == float(nominal.sum())
    assert occ.lows_highs is occ.lows_highs  # computed once
