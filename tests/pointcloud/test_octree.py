"""Octree partitioner tests."""

import numpy as np
import pytest

from repro.geometry import AABB
from repro.pointcloud import (
    PointCloudFrame,
    VisibilityConfig,
    build_octree,
    compute_visibility,
    synthesize_video,
)


def uniform_frame(n=2000, nominal=0, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloudFrame(
        rng.uniform(0, 1, size=(n, 3)), nominal_points=nominal
    )


def test_validation():
    frame = uniform_frame(10)
    with pytest.raises(ValueError):
        build_octree(frame, max_points_per_leaf=0)
    with pytest.raises(ValueError):
        build_octree(frame, max_depth=-1)
    with pytest.raises(ValueError):
        build_octree(frame, max_depth=99)


def test_leaf_counts_sum_to_points():
    frame = uniform_frame(1500)
    tree = build_octree(frame, max_points_per_leaf=100)
    assert sum(l.count for l in tree.leaves) == 1500


def test_leaves_respect_point_threshold():
    frame = uniform_frame(2000)
    tree = build_octree(frame, max_points_per_leaf=150, max_depth=8)
    assert all(l.count <= 150 for l in tree.leaves)


def test_max_depth_caps_splitting():
    frame = uniform_frame(5000)
    tree = build_octree(frame, max_points_per_leaf=1, max_depth=2)
    assert all(tree.depth_of(l.leaf_id) <= 2 for l in tree.leaves)
    # With depth 2 there are at most 64 leaves.
    assert len(tree) <= 64


def test_zero_depth_single_leaf():
    frame = uniform_frame(100)
    tree = build_octree(frame, max_points_per_leaf=1, max_depth=0)
    assert len(tree) == 1
    assert tree.leaves[0].count == 100


def test_leaf_bounds_nest_in_root():
    frame = uniform_frame(1000)
    tree = build_octree(frame, max_points_per_leaf=64)
    for leaf in tree.leaves:
        assert np.all(leaf.bounds.lo >= tree.root.lo - 1e-9)
        assert np.all(leaf.bounds.hi <= tree.root.hi + 1e-9)


def test_leaves_are_disjoint():
    frame = uniform_frame(800)
    tree = build_octree(frame, max_points_per_leaf=64)
    for i, a in enumerate(tree.leaves):
        for b in tree.leaves[i + 1 :]:
            inter_lo = np.maximum(a.bounds.lo, b.bounds.lo)
            inter_hi = np.minimum(a.bounds.hi, b.bounds.hi)
            overlap = np.prod(np.maximum(inter_hi - inter_lo, 0.0))
            assert overlap == pytest.approx(0.0, abs=1e-12)


def test_leaf_ids_unique_and_stable():
    frame = uniform_frame(1000, seed=1)
    root = AABB(np.zeros(3), np.ones(3))
    t1 = build_octree(frame, root=root, max_points_per_leaf=100)
    ids = [l.leaf_id for l in t1.leaves]
    assert len(ids) == len(set(ids))
    # Same content, same root -> identical ids.
    t2 = build_octree(frame, root=root, max_points_per_leaf=100)
    assert [l.leaf_id for l in t2.leaves] == ids


def test_leaf_ids_spatially_stable_across_frames():
    """A region of space keeps its id even as content changes."""
    video = synthesize_video("high", num_frames=10, points_per_frame=4000)
    root = video.bounds
    trees = [
        build_octree(video[i], root=root, max_points_per_leaf=250)
        for i in (0, 9)
    ]
    ids = [set(int(c) for c in t.cell_ids) for t in trees]
    jaccard = len(ids[0] & ids[1]) / len(ids[0] | ids[1])
    assert jaccard > 0.4  # animated figure: most occupied regions persist


def test_occupancy_interface():
    frame = uniform_frame(1200, nominal=120_000)
    tree = build_octree(frame, max_points_per_leaf=100)
    occ = tree.occupancy()
    assert occ.total_points == pytest.approx(120_000.0)
    assert np.all(np.diff(occ.cell_ids) > 0)  # sorted
    d = occ.as_dict()
    assert sum(d.values()) == pytest.approx(120_000.0)
    lows, highs = occ.cell_bounds_array(occ.cell_ids[:3])
    assert lows.shape == (3, 3)
    centers = occ.cell_centers(occ.cell_ids[:3])
    assert np.all(centers > lows) and np.all(centers < highs)


def test_adaptive_leaves_balance_payload():
    """Octree leaves have much more even point counts than grid cells."""
    from repro.pointcloud import CellGrid

    video = synthesize_video("high", num_frames=3, points_per_frame=6000)
    frame = video[1]
    tree = build_octree(frame, root=video.bounds, max_points_per_leaf=300)
    grid = CellGrid.covering(video.bounds, 0.25, margin=0.02)
    grid_counts = grid.occupancy(frame).counts
    tree_counts = np.array([l.count for l in tree.leaves])

    def cv(x):  # coefficient of variation
        return np.std(x) / np.mean(x)

    assert cv(tree_counts) < cv(grid_counts)


def test_visibility_runs_on_octree_occupancy():
    video = synthesize_video("high", num_frames=3, points_per_frame=4000)
    tree = build_octree(video[1], root=video.bounds, max_points_per_leaf=300)
    occ = tree.occupancy()
    from repro.traces import generate_user_study

    study = generate_user_study(num_users=2, duration_s=1.0, seed=3)
    vis = compute_visibility(occ, study.traces[0].pose(15).frustum(),
                             VisibilityConfig())
    assert 0 < len(vis.cell_ids) <= len(occ)
    assert 0.0 < vis.visible_fraction <= 1.0
    assert vis.request_bytes() > 0


def test_octree_occupancy_offers_the_cached_frame_geometry():
    tree = build_octree(uniform_frame(nominal=8000), max_points_per_leaf=150)
    occ = tree.occupancy()
    lows, highs = occ.cell_bounds_array(occ.cell_ids)
    assert np.array_equal(occ.lows_highs[0], lows)
    assert np.array_equal(occ.lows_highs[1], highs)
    assert np.array_equal(occ.centers, occ.cell_centers(occ.cell_ids))
    assert np.array_equal(occ.nominal, occ.nominal_counts().astype(np.float64))
    assert occ.frame_points == float(occ.nominal.sum())
