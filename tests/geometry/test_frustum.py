"""Frustum construction and culling tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import AABB, Frustum, Quaternion, cull_aabbs, frustum_planes
from repro.geometry import frustum as frustum_module


def frustum_at_origin(**kwargs):
    return Frustum(
        position=np.zeros(3), orientation=Quaternion.identity(), **kwargs
    )


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        frustum_at_origin(h_fov=0.0)
    with pytest.raises(ValueError):
        frustum_at_origin(v_fov=4.0)
    with pytest.raises(ValueError):
        frustum_at_origin(near=2.0, far=1.0)


def test_point_straight_ahead_is_inside():
    f = frustum_at_origin()
    assert f.contains_point(np.array([5.0, 0, 0]))


def test_point_behind_is_outside():
    f = frustum_at_origin()
    assert not f.contains_point(np.array([-1.0, 0, 0]))


def test_point_beyond_far_is_outside():
    f = frustum_at_origin(far=10.0)
    assert not f.contains_point(np.array([11.0, 0, 0]))


def test_point_inside_near_plane_is_outside():
    f = frustum_at_origin(near=0.5)
    assert not f.contains_point(np.array([0.25, 0, 0]))


def test_horizontal_fov_edges():
    f = frustum_at_origin(h_fov=np.deg2rad(90.0))
    # 45 degrees off-axis: just inside; 50 degrees: outside.
    inside = np.array([1.0, np.tan(np.deg2rad(44.0)), 0.0])
    outside = np.array([1.0, np.tan(np.deg2rad(50.0)), 0.0])
    assert f.contains_point(inside)
    assert not f.contains_point(outside)


def test_vertical_fov_edges():
    f = frustum_at_origin(v_fov=np.deg2rad(60.0))
    assert f.contains_point(np.array([1.0, 0.0, np.tan(np.deg2rad(29.0))]))
    assert not f.contains_point(np.array([1.0, 0.0, np.tan(np.deg2rad(35.0))]))


def test_contains_points_matches_scalar():
    f = frustum_at_origin()
    pts = np.array(
        [[5.0, 0, 0], [-1.0, 0, 0], [1.0, 5.0, 0], [2.0, 0.5, 0.2]]
    )
    mask = f.contains_points(pts)
    for p, m in zip(pts, mask):
        assert f.contains_point(p) == bool(m)


def test_rotated_frustum_follows_orientation():
    q = Quaternion.from_euler(np.pi / 2, 0, 0)  # looking along +Y
    f = Frustum(position=np.zeros(3), orientation=q)
    assert f.contains_point(np.array([0.0, 5.0, 0]))
    assert not f.contains_point(np.array([5.0, 0.0, 0]))


def test_aabb_fully_inside():
    f = frustum_at_origin()
    box = AABB(np.array([2.0, -0.2, -0.2]), np.array([2.5, 0.2, 0.2]))
    assert f.intersects_aabb(box)


def test_aabb_fully_behind():
    f = frustum_at_origin()
    box = AABB(np.array([-3.0, -0.2, -0.2]), np.array([-2.0, 0.2, 0.2]))
    assert not f.intersects_aabb(box)


def test_aabb_straddling_near_plane():
    f = frustum_at_origin(near=1.0)
    box = AABB(np.array([0.5, -0.1, -0.1]), np.array([1.5, 0.1, 0.1]))
    assert f.intersects_aabb(box)


def test_vectorized_aabb_matches_scalar():
    f = frustum_at_origin()
    rng = np.random.default_rng(3)
    lows = rng.uniform(-5, 5, size=(50, 3))
    highs = lows + rng.uniform(0.1, 1.0, size=(50, 3))
    mask = f.intersects_aabbs(lows, highs)
    for lo, hi, m in zip(lows, highs, mask):
        assert f.intersects_aabb(AABB(lo, hi)) == bool(m)


def test_culling_never_drops_boxes_containing_inside_points():
    # Conservativeness: any box containing an inside point must be kept.
    f = frustum_at_origin()
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = np.array(
            [rng.uniform(0.1, 19), rng.uniform(-3, 3), rng.uniform(-3, 3)]
        )
        if not f.contains_point(p):
            continue
        lo = p - rng.uniform(0.05, 0.5, size=3)
        hi = p + rng.uniform(0.05, 0.5, size=3)
        assert f.intersects_aabb(AABB(lo, hi))


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_forward_property(yaw):
    # The near plane faces the viewing direction: its normal is the
    # orientation's local +X axis.
    q = Quaternion.from_euler(yaw, 0, 0)
    f = Frustum(position=np.zeros(3), orientation=q)
    assert np.allclose(f._normals[0], [np.cos(yaw), np.sin(yaw), 0.0], atol=1e-9)


# -- batched planes and cull: bitwise equivalence with the scalar references


def _random_poses(count, seed):
    rng = np.random.default_rng(seed)
    quats = rng.normal(size=(count, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    positions = rng.uniform(-10.0, 10.0, size=(count, 3))
    return positions, quats


def _assert_planes_match_reference(positions, quats, **params):
    normals, offsets = frustum_planes(positions, quats, **params)
    assert normals.shape == (len(positions), 6, 3)
    assert offsets.shape == (len(positions), 6)
    for i, (p, q) in enumerate(zip(positions, quats)):
        ref_n, ref_o = Frustum(p, Quaternion(*q), **params)._build_planes_reference()
        assert np.array_equal(normals[i], ref_n), i
        assert np.array_equal(offsets[i], ref_o), i


def test_frustum_planes_match_reference_on_random_poses():
    positions, quats = _random_poses(10_000, seed=0)
    _assert_planes_match_reference(positions, quats)


@pytest.mark.parametrize(
    "params",
    [
        {"h_fov": np.deg2rad(110.0), "v_fov": np.deg2rad(90.0)},
        {"h_fov": 0.3, "v_fov": 2.5, "near": 0.5, "far": 3.0},
        {"near": 1e-3, "far": 200.0},
    ],
)
def test_frustum_planes_match_reference_with_other_fov_near_far(params):
    positions, quats = _random_poses(500, seed=1)
    _assert_planes_match_reference(positions, quats, **params)


def test_frustum_planes_match_reference_on_study_poses():
    from repro.experiments.common import study_in_room

    study = study_in_room(num_users=6, duration_s=3.0, seed=5)
    poses = [t.pose(i) for t in study.traces for i in range(study.num_samples)]
    positions = np.array([p.position for p in poses])
    quats = np.array([
        (p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z)
        for p in poses
    ])
    _assert_planes_match_reference(positions, quats)


def test_single_pose_frustum_uses_the_batched_planes():
    positions, quats = _random_poses(50, seed=2)
    for p, q in zip(positions, quats):
        f = Frustum(p, Quaternion(*q))
        ref_n, ref_o = f._build_planes_reference()
        assert np.array_equal(f._normals, ref_n)
        assert np.array_equal(f._offsets, ref_o)


def test_frustum_many_equals_one_frustum_per_pose():
    from repro.traces import Pose

    positions, quats = _random_poses(40, seed=3)
    poses = [
        Pose(t=0.0, position=p, orientation=Quaternion(*q))
        for p, q in zip(positions, quats)
    ]
    params = {"h_fov": 1.2, "v_fov": 0.9, "near": 0.1, "far": 8.0}
    batch = Frustum.many(poses, **params)
    assert len(batch) == len(poses)
    for pose, f in zip(poses, batch):
        single = pose.frustum(**params)
        assert np.array_equal(f._normals, single._normals)
        assert np.array_equal(f._offsets, single._offsets)
        assert np.array_equal(f.position, single.position)
        assert f.orientation == single.orientation
        assert (f.h_fov, f.v_fov, f.near, f.far) == (
            single.h_fov, single.v_fov, single.near, single.far
        )
    assert Frustum.many([]) == []
    with pytest.raises(ValueError):
        Frustum.many(poses, near=2.0, far=1.0)


def _cells(cell_size):
    from repro.pointcloud import CellGrid, synthesize_video

    video = synthesize_video("high", num_frames=1, points_per_frame=4000, seed=9)
    grid = CellGrid.covering(video.bounds, cell_size, margin=0.05)
    occ = grid.occupancy(video[0])
    return grid.cell_bounds_array(occ.cell_ids), video.bounds.center


def _viewers(count, center, seed):
    positions, quats = _random_poses(count, seed)
    positions = center + 0.3 * positions  # around the content, mostly facing it
    return [Frustum(p, Quaternion(*q)) for p, q in zip(positions, quats)]


@pytest.mark.parametrize("cell_size", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("num_viewers", [0, 1, 64])
def test_cull_matches_per_viewer_intersects(cell_size, num_viewers):
    (lows, highs), center = _cells(cell_size)
    frustums = _viewers(num_viewers, center, seed=num_viewers)
    got = cull_aabbs(frustums, lows, highs)
    assert got.shape == (num_viewers, len(lows))
    for row, f in zip(got, frustums):
        assert np.array_equal(row, f.intersects_aabbs(lows, highs))
    if num_viewers > 1:
        assert got.any() and not got.all()  # the test exercises both sides


def test_cull_with_no_cells():
    frustums = _viewers(3, np.zeros(3), seed=4)
    empty = np.zeros((0, 3))
    assert cull_aabbs(frustums, empty, empty).shape == (3, 0)


def test_cull_across_viewer_chunk_boundaries(monkeypatch):
    (lows, highs), center = _cells(0.25)
    frustums = _viewers(11, center, seed=6)
    expected = np.array([f.intersects_aabbs(lows, highs) for f in frustums])
    # Three viewers per chunk: 11 viewers span four chunks, the last partial.
    monkeypatch.setattr(
        frustum_module, "_CULL_CHUNK_ELEMENTS", 3 * 6 * len(lows) * 3
    )
    assert np.array_equal(cull_aabbs(frustums, lows, highs), expected)


def test_cull_default_chunking_splits_a_venue_sized_batch():
    (lows, highs), center = _cells(0.25)
    per_chunk = frustum_module._CULL_CHUNK_ELEMENTS // (6 * len(lows) * 3)
    frustums = _viewers(per_chunk + 5, center, seed=7)
    expected = np.array([f.intersects_aabbs(lows, highs) for f in frustums])
    assert np.array_equal(cull_aabbs(frustums, lows, highs), expected)
