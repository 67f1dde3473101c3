"""Session arrays: oracle planes built once per session, culled as arrays.

With no predictor, ``_DemandBuilder`` interpolates every trace at every
frame's display time (``Trace.poses_at``) and builds all ``F * U`` frusta
in one ``frustum_planes`` call; each frame then slices its rows and culls
them with ``compute_visibility_planes``.  Everything here is checked
against the per-frame path it replaced — ``pose_at`` -> ``Frustum.many``
-> ``compute_visibility_batch`` — bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CapacityRateProvider, SessionConfig, compute_visibility_maps
from repro.core.session import _DemandBuilder
from repro.geometry import Frustum, Quaternion, cull_planes, frustum_planes
from repro.mac import AD_MODEL
from repro.mac.scheduler import UserDemand
from repro.pointcloud import (
    QUALITIES,
    CellGrid,
    VisibilityConfig,
    compute_visibility,
    compute_visibility_batch,
    synthesize_video,
)
from repro.prediction import LinearRegressionPredictor
from repro.traces import generate_user_study


@pytest.fixture(scope="module")
def video():
    return synthesize_video("high", num_frames=20, points_per_frame=3000, seed=7)


@pytest.fixture(scope="module")
def study():
    return generate_user_study(num_users=6, duration_s=2.0, seed=11)


def _builder(video, study, **kwargs):
    config = SessionConfig(
        video=video,
        study=study,
        rates=CapacityRateProvider(model=AD_MODEL, num_users=len(study)),
        **kwargs,
    )
    return _DemandBuilder(config, config.num_frames)


def _per_frame_frustums(builder, users, frame):
    """The replaced path: one ``pose_at`` per user, one ``Frustum.many``."""
    return Frustum.many(builder.pose_for(u, frame, 0.0) for u in users)


def test_session_planes_equal_per_frame_frustum_rows(video, study):
    builder = _builder(video, study)
    eyes, normals, offsets = builder.oracle_planes()
    num_frames, num_users = builder.num_frames, len(study)
    assert eyes.shape == (num_frames, num_users, 3)
    assert normals.shape == (num_frames, num_users, 6, 3)
    assert offsets.shape == (num_frames, num_users, 6)
    users = range(num_users)
    for f in range(num_frames):
        for u, frustum in zip(users, _per_frame_frustums(builder, users, f)):
            assert np.array_equal(eyes[f, u], frustum.position), (f, u)
            assert np.array_equal(normals[f, u], frustum._normals), (f, u)
            assert np.array_equal(offsets[f, u], frustum._offsets), (f, u)


def test_session_sized_plane_build_matches_the_scalar_reference():
    """``np.cross`` at the ``(F*U, 1, 3) x (3, 3)`` broadcast of a session
    build gives each row what one ``Quaternion.rotate`` per axis gives."""
    rng = np.random.default_rng(12)
    quats = rng.normal(size=(90, 6, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    positions = rng.uniform(-5.0, 5.0, size=(90, 6, 3))
    normals, offsets = frustum_planes(positions, quats)
    flat_n, flat_o = frustum_planes(positions.reshape(-1, 3), quats.reshape(-1, 4))
    assert np.array_equal(normals.reshape(-1, 6, 3), flat_n)
    assert np.array_equal(offsets.reshape(-1, 6), flat_o)
    for f in range(0, 90, 7):
        for u in range(6):
            reference = Frustum(positions[f, u], Quaternion(*quats[f, u]))
            ref_n, ref_o = reference._build_planes_reference()
            assert np.array_equal(normals[f, u], ref_n)
            assert np.array_equal(offsets[f, u], ref_o)


@pytest.mark.parametrize("cell_size", [0.1, 0.25])
def test_cull_planes_equals_intersects_aabbs_row_by_row(video, study, cell_size):
    grid = CellGrid.covering(video.bounds, cell_size, margin=0.05)
    lows, highs = grid.occupancy(video[0]).lows_highs
    builder = _builder(video, study)
    _, normals, offsets = builder.oracle_planes()
    users = range(len(study))
    frustums = [
        frustum
        for f in range(builder.num_frames)
        for frustum in _per_frame_frustums(builder, users, f)
    ]
    # Session-shaped random viewers around the content, so that some cells
    # fall outside some frusta.
    rng = np.random.default_rng(int(cell_size * 100))
    quats = rng.normal(size=(30, 6, 4))
    quats /= np.linalg.norm(quats, axis=-1, keepdims=True)
    positions = video.bounds.center + rng.uniform(-3.0, 3.0, size=(30, 6, 3))
    random_n, random_o = frustum_planes(positions, quats)
    frustums += [
        Frustum(p, Quaternion(*q))
        for p, q in zip(positions.reshape(-1, 3), quats.reshape(-1, 4))
    ]
    n = np.concatenate([normals.reshape(-1, 6, 3), random_n.reshape(-1, 6, 3)])
    o = np.concatenate([offsets.reshape(-1, 6), random_o.reshape(-1, 6)])
    got = cull_planes(n, o, lows, highs)
    assert got.shape == (len(frustums), len(lows))
    assert got.any() and not got.all()
    for row, frustum in zip(got, frustums):
        assert np.array_equal(row, frustum.intersects_aabbs(lows, highs))
    assert cull_planes(n[:0], o[:0], lows, highs).shape == (0, len(lows))


def _old_demands(builder, users, frame, qualities, rates):
    """The replaced ``demands``: per-frame frusta, then the per-cell
    pricing, its values as the Python floats the session now holds."""
    config = builder.config
    results = compute_visibility_batch(
        builder.occupancy(frame),
        _per_frame_frustums(builder, users, frame),
        config.visibility,
    )
    source_points = config.video.quality.points_per_frame
    demands = []
    for u, vis, quality, rate in zip(users, results, qualities, rates):
        level = QUALITIES[quality]
        scale = level.points_per_frame / source_points
        cell_bytes = vis.cell_bytes(
            lambda p: float(
                config.compression.cell_bytes(p * scale, level.points_per_frame)
            )
        )
        demands.append(UserDemand(u, cell_bytes, rate))
    return demands


def test_demands_equal_the_per_frame_frustum_path(video, study):
    builder = _builder(video, study)
    rng = np.random.default_rng(3)
    for _ in range(40):
        frame = int(rng.integers(builder.num_frames))
        size = int(rng.integers(1, len(study) + 1))
        users = rng.choice(len(study), size=size, replace=False).tolist()
        qualities = rng.choice(["low", "medium", "high"], size=size).tolist()
        rates = rng.uniform(50.0, 500.0, size=size).tolist()
        got = builder.demands(users, frame, qualities, 0.0, rates)
        expected = _old_demands(builder, users, frame, qualities, rates)
        assert [d.user_id for d in got] == users
        for g, e in zip(got, expected):
            assert list(g.cell_bytes.items()) == list(e.cell_bytes.items())
            assert [type(v) for v in g.cell_bytes.values()] == [
                type(v) for v in e.cell_bytes.values()
            ]
            assert g.unicast_rate_mbps == e.unicast_rate_mbps
            assert g.total_bytes == e.total_bytes


def test_visible_fraction_equals_one_pose_frustum(video, study):
    builder = _builder(video, study)
    for frame in (0, 7, builder.num_frames - 1):
        for u in range(len(study)):
            pose = builder.pose_for(u, frame, 0.0)
            expected = compute_visibility(
                builder.occupancy(frame), pose.frustum(), builder.config.visibility
            )
            assert builder.visible_fraction(u, frame, 0.0) == expected.visible_fraction


def test_a_predictor_keeps_the_per_frame_pose_path(video, study):
    builder = _builder(video, study, predictor=LinearRegressionPredictor())
    frame, now_s = 30, 0.5
    users = [0, 2, 5]
    demands = builder.demands(users, frame, ["high"] * 3, now_s, [100.0] * 3)
    expected = compute_visibility_batch(
        builder.occupancy(frame),
        Frustum.many(builder.pose_for(u, frame, now_s) for u in users),
        builder.config.visibility,
    )
    for demand, vis in zip(demands, expected):
        assert list(demand.cell_bytes) == vis.cell_ids.tolist()
    builder.visible_fraction(1, frame, now_s)
    assert builder._oracle is None


def test_visibility_maps_equal_the_per_frame_sample_path(video, study):
    grid = CellGrid.covering(video.bounds, 0.5, margin=0.05)
    config = VisibilityConfig()
    users = [4, 1, 3]
    maps = compute_visibility_maps(
        study, video, grid, users=users, config=config, num_frames=25
    )
    traces = [study.user(u) for u in users]
    for f in range(25):
        results = compute_visibility_batch(
            grid.occupancy(video[f % len(video)]),
            Frustum.many(trace.pose(f) for trace in traces),
            config,
        )
        for ui, vis in enumerate(results):
            assert maps.maps[ui][f] == vis.visible_set
