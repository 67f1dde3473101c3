"""Golden equivalence: batched visibility vs. the scalar reference path.

``compute_visibility_batch`` hoists the per-frame work (cell bounds,
centers, nominal counts) and evaluates all frustums in one pass; its
occlusion cull, ``_occlusion_mask``, replaces the per-cell ray loop kept
as ``_occlusion_mask_reference``.  Both must agree *bitwise*: the blocked
mass is a sum of integer-valued float64 nominal counts, which is exact
under any summation order, so the cull decisions — and therefore the
visible sets, fractions, and counts — are identical, not merely close.
"""

import numpy as np
import pytest

from repro.pointcloud import (
    CellGrid,
    VisibilityConfig,
    compute_visibility,
    compute_visibility_batch,
    synthesize_video,
)
from repro.pointcloud.visibility import (
    _occlusion_mask,
    _occlusion_mask_reference,
)
from repro.traces import generate_user_study


def _fixture(num_users=6, num_frames=3):
    video = synthesize_video("medium", num_frames=num_frames,
                             points_per_frame=4000, seed=5)
    grid = CellGrid.covering(video.bounds, 0.5, margin=0.05)
    study = generate_user_study(num_users=num_users, duration_s=2.0, seed=5)
    occupancies = [grid.occupancy(video[f]) for f in range(num_frames)]
    return video, grid, study, occupancies


def test_batch_matches_single_frustum_path_bitwise():
    _, _, study, occupancies = _fixture()
    config = VisibilityConfig()
    for occ in occupancies:
        frustums = [t.pose_at(0.5).frustum() for t in study.traces]
        batch = compute_visibility_batch(occ, frustums, config)
        assert len(batch) == len(frustums)
        for frustum, result in zip(frustums, batch):
            single = compute_visibility(occ, frustum, config)
            assert np.array_equal(single.cell_ids, result.cell_ids)
            assert np.array_equal(single.fractions, result.fractions)
            assert np.array_equal(
                single.nominal_counts, result.nominal_counts
            )
            assert single.frame_nominal_points == result.frame_nominal_points
            assert single.visible_set == result.visible_set


def test_batch_consistent_across_config_variants():
    _, _, study, occupancies = _fixture(num_users=4, num_frames=2)
    variants = [
        VisibilityConfig(),
        VisibilityConfig.vanilla(),
        VisibilityConfig(occlusion=False),
        VisibilityConfig(distance=False),
    ]
    for config in variants:
        frustums = [t.pose_at(1.0).frustum() for t in study.traces]
        batch = compute_visibility_batch(occupancies[0], frustums, config)
        for frustum, result in zip(frustums, batch):
            single = compute_visibility(occupancies[0], frustum, config)
            assert np.array_equal(single.cell_ids, result.cell_ids)
            assert np.array_equal(single.fractions, result.fractions)


def test_occlusion_mask_bitwise_matches_reference():
    _, grid, study, occupancies = _fixture(num_users=5, num_frames=2)
    config = VisibilityConfig()
    for occ in occupancies:
        cell_ids = occ.cell_ids
        nominal = occ.nominal_counts().astype(np.float64)
        lows, highs = grid.cell_bounds_array(cell_ids)
        centers = grid.cell_centers(cell_ids)
        for trace in study.traces:
            frustum = trace.pose_at(0.25).frustum()
            fast = _occlusion_mask(
                centers, lows, highs, nominal, frustum, config,
                grid.cell_size,
            )
            slow = _occlusion_mask_reference(
                grid, cell_ids, nominal, frustum, config
            )
            assert np.array_equal(fast, slow)


def test_batch_with_empty_frustum_list():
    _, _, _, occupancies = _fixture(num_users=2, num_frames=1)
    assert compute_visibility_batch(
        occupancies[0], [], VisibilityConfig()
    ) == []


def _scalar_reference_visibility(grid, occ, frustum, config):
    """One viewer through every scalar reference: per-frustum plane build,
    per-frustum AABB cull, per-ray occlusion, then the distance rule."""
    cell_ids = occ.cell_ids
    nominal = occ.nominal_counts().astype(np.float64)
    lows, highs = grid.cell_bounds_array(cell_ids)
    mask = frustum.intersects_aabbs(lows, highs)
    cell_ids, nominal = cell_ids[mask], nominal[mask]
    keep = _occlusion_mask_reference(grid, cell_ids, nominal, frustum, config)
    cell_ids, nominal = cell_ids[keep], nominal[keep]
    dist = np.linalg.norm(grid.cell_centers(cell_ids) - frustum.position, axis=1)
    fractions = np.where(
        dist <= config.distance_full_m,
        1.0,
        np.maximum(
            config.distance_min_fraction,
            (config.distance_full_m / np.maximum(dist, 1e-9)) ** 2,
        ),
    )
    return cell_ids, fractions, nominal


@pytest.mark.parametrize("cell_size", [0.25, 0.5, 1.0])
def test_frame_batched_path_matches_the_scalar_references(cell_size):
    from repro.geometry import Frustum

    video = synthesize_video("medium", num_frames=2, points_per_frame=4000,
                             seed=8)
    grid = CellGrid.covering(video.bounds, cell_size, margin=0.05)
    study = generate_user_study(num_users=12, duration_s=1.0, seed=8)
    config = VisibilityConfig()
    for f in range(2):
        occ = grid.occupancy(video[f])
        poses = [t.pose(10 * f + 3) for t in study.traces]
        batch = compute_visibility_batch(occ, Frustum.many(poses), config)
        for pose, result in zip(poses, batch):
            frustum = pose.frustum()
            normals, offsets = frustum._build_planes_reference()
            object.__setattr__(frustum, "_normals", normals)
            object.__setattr__(frustum, "_offsets", offsets)
            ids, fractions, nominal = _scalar_reference_visibility(
                grid, occ, frustum, config
            )
            order = np.argsort(ids)
            assert np.array_equal(result.cell_ids, ids[order])
            assert np.array_equal(result.fractions, fractions[order])
            assert np.array_equal(result.nominal_counts, nominal[order])
            assert result.frame_nominal_points == float(
                occ.nominal_counts().astype(np.float64).sum()
            )
