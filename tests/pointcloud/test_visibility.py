"""ViVo visibility-optimization tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Frustum, Quaternion
from repro.pointcloud import (
    DEFAULT_COMPRESSION,
    CellGrid,
    PointCloudFrame,
    VisibilityConfig,
    compute_visibility,
)


def looking_at_origin(position):
    position = np.asarray(position, dtype=float)
    q = Quaternion.look_at(-position)
    return Frustum(position=position, orientation=q)


@pytest.fixture(scope="module")
def slab_occupancy():
    """Two parallel dense slabs at x=0.25 and x=1.25 (front and back)."""
    rng = np.random.default_rng(0)
    front = rng.uniform([0.0, 0.0, 0.0], [0.5, 1.0, 1.0], size=(400, 3))
    back = rng.uniform([1.0, 0.0, 0.0], [1.5, 1.0, 1.0], size=(400, 3))
    frame = PointCloudFrame(
        np.concatenate([front, back]), nominal_points=100_000
    )
    grid = CellGrid.covering(frame, 0.5, margin=0.01)
    return grid.occupancy(frame)


def test_vanilla_fetches_everything(slab_occupancy):
    viewer = looking_at_origin([4.0, 0.5, 0.5])
    vis = compute_visibility(slab_occupancy, viewer, VisibilityConfig.vanilla())
    assert vis.visible_fraction == pytest.approx(1.0)
    assert len(vis.cell_ids) == len(slab_occupancy)


def test_viewport_culls_behind_viewer(slab_occupancy):
    # Viewer between slabs looking away from the front slab (toward +x).
    pos = np.array([0.75, 0.5, 0.5])
    q = Quaternion.look_at(np.array([1.0, 0.0, 0.0]))
    viewer = Frustum(position=pos, orientation=q)
    vis = compute_visibility(
        slab_occupancy, viewer, VisibilityConfig(occlusion=False, distance=False)
    )
    # No cell entirely behind the viewer may survive (conservative culling
    # keeps cells straddling the near plane, so test the cell's far face).
    _, highs = slab_occupancy.grid.cell_bounds_array(vis.cell_ids)
    assert np.all(highs[:, 0] > 0.75)
    # And the set must actually shrink vs. fetching everything.
    assert len(vis.cell_ids) < len(slab_occupancy)


def test_occlusion_culls_back_slab(slab_occupancy):
    # Viewer in front (+x side): the far slab is hidden behind the near one.
    viewer = looking_at_origin([4.0, 0.5, 0.5])
    cfg = VisibilityConfig(distance=False)
    vis = compute_visibility(slab_occupancy, viewer, cfg)
    centers = slab_occupancy.grid.cell_centers(vis.cell_ids)
    # The visible set must include near-slab cells and exclude most of the
    # far slab.
    assert np.any(centers[:, 0] > 1.0)
    no_occ = compute_visibility(
        slab_occupancy, viewer, VisibilityConfig(occlusion=False, distance=False)
    )
    assert len(vis.cell_ids) < len(no_occ.cell_ids)


def test_occlusion_symmetric_from_other_side(slab_occupancy):
    front_viewer = looking_at_origin([4.0, 0.5, 0.5])
    back_viewer = looking_at_origin([-3.0, 0.5, 0.5])
    cfg = VisibilityConfig(distance=False)
    vis_f = compute_visibility(slab_occupancy, front_viewer, cfg)
    vis_b = compute_visibility(slab_occupancy, back_viewer, cfg)
    # The two opposite viewers must not see identical sets.
    assert vis_f.visible_set != vis_b.visible_set


def test_distance_reduces_fetch_fraction(slab_occupancy):
    cfg = VisibilityConfig(occlusion=False, distance_full_m=1.0)
    near = compute_visibility(
        slab_occupancy, looking_at_origin([2.0, 0.5, 0.5]), cfg
    )
    far = compute_visibility(
        slab_occupancy, looking_at_origin([8.0, 0.5, 0.5]), cfg
    )
    assert far.requested_points < near.requested_points
    assert np.all(far.fractions >= cfg.distance_min_fraction)
    assert np.all(far.fractions <= 1.0)


def test_distance_floor(slab_occupancy):
    cfg = VisibilityConfig(
        occlusion=False, distance_full_m=0.5, distance_min_fraction=0.3
    )
    vis = compute_visibility(
        slab_occupancy, looking_at_origin([15.0, 0.5, 0.5]), cfg
    )
    assert np.all(vis.fractions == pytest.approx(0.3))


def test_cell_bytes_positive_and_monotone(slab_occupancy):
    viewer = looking_at_origin([3.0, 0.5, 0.5])
    vivo = compute_visibility(slab_occupancy, viewer, VisibilityConfig())
    vanilla = compute_visibility(
        slab_occupancy, viewer, VisibilityConfig.vanilla()
    )

    def total_bytes(vis):
        bytes_of = lambda p: DEFAULT_COMPRESSION.cell_bytes(  # noqa: E731
            p, vis.frame_nominal_points
        )
        return sum(vis.cell_bytes(bytes_of).values())

    assert 0 < total_bytes(vivo) <= total_bytes(vanilla)


def test_visible_set_matches_ids(slab_occupancy):
    viewer = looking_at_origin([3.0, 0.5, 0.5])
    vis = compute_visibility(slab_occupancy, viewer, VisibilityConfig())
    assert vis.visible_set == frozenset(int(c) for c in vis.cell_ids)


def test_result_rejects_misaligned_arrays():
    from repro.pointcloud.visibility import VisibilityResult

    with pytest.raises(ValueError):
        VisibilityResult(
            cell_ids=np.array([1, 2]),
            fractions=np.array([1.0]),
            nominal_counts=np.array([1.0, 2.0]),
            frame_nominal_points=3.0,
        )


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=1.5, max_value=10.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_visibility_is_subset_of_occupancy(distance, lateral):
    rng = np.random.default_rng(5)
    frame = PointCloudFrame(rng.uniform(0, 1, size=(300, 3)), nominal_points=50_000)
    grid = CellGrid.covering(frame, 0.25, margin=0.01)
    occ = grid.occupancy(frame)
    viewer = looking_at_origin([distance, lateral, 0.5])
    vis = compute_visibility(occ, viewer, VisibilityConfig())
    assert vis.visible_set <= set(int(c) for c in occ.cell_ids)
    assert 0.0 <= vis.visible_fraction <= 1.0
