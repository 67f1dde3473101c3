"""Golden equivalence: frame-batched visibility vs. the scalar reference path.

``compute_visibility_batch`` hoists the per-frame work (cell bounds,
centers, nominal counts) and evaluates all frustums in one pass; its
occlusion cull, ``_occlusion_mask``, runs one slab test for every viewer
of the frame and replaces the per-cell ray loop kept as
``_occlusion_mask_reference``.  Both must agree *bitwise*.  Nominal counts
are ``counts * scale_factor`` and in general not integer-valued, so a
blocker-mass sum is exact only when it is evaluated in the same order: the
kernel sums each viewer's mass over that viewer's compacted in-view cells,
and the fixtures here have ``scale_factor != 1`` so a reordered sum could
show.  Cull decisions — and therefore the visible sets, fractions, and
counts — are identical, not merely close.
"""

import numpy as np
import pytest

from repro.geometry import Frustum, Quaternion, cull_aabbs
from repro.pointcloud import (
    CellGrid,
    VisibilityConfig,
    compute_visibility,
    compute_visibility_batch,
    synthesize_video,
)
from repro.pointcloud import visibility
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
    _assert_non_integer_nominal(occupancies[0])
    return video, grid, study, occupancies


def _assert_non_integer_nominal(*occupancies):
    """The bitwise tests need masses whose sums depend on their order."""
    nominal = np.concatenate([occ.nominal for occ in occupancies])
    assert all(occ.scale_factor != 1.0 for occ in occupancies)
    assert np.any(nominal != np.round(nominal))


def _per_viewer_reference(occ, frustum, config):
    """One viewer alone: per-frustum cull, then :func:`_occlusion_mask_reference`
    on its compacted in-view cells, then the distance rule on its own cells."""
    grid = occ.grid
    cell_ids, nominal = occ.cell_ids, occ.nominal
    if config.viewport:
        mask = frustum.intersects_aabbs(*grid.cell_bounds_array(cell_ids))
        cell_ids, nominal = cell_ids[mask], nominal[mask]
    if config.occlusion:
        keep = _occlusion_mask_reference(grid, cell_ids, nominal, frustum,
                                         config)
        cell_ids, nominal = cell_ids[keep], nominal[keep]
    fractions = np.ones(len(cell_ids))
    if config.distance and len(cell_ids):
        dist = np.linalg.norm(grid.cell_centers(cell_ids) - frustum.position,
                              axis=1)
        fractions = np.where(
            dist <= config.distance_full_m,
            1.0,
            np.maximum(
                config.distance_min_fraction,
                (config.distance_full_m / np.maximum(dist, 1e-9)) ** 2,
            ),
        )
    return cell_ids, fractions, nominal


def _assert_matches_per_viewer_reference(occ, frustums, config):
    batch = compute_visibility_batch(occ, frustums, config)
    assert len(batch) == len(frustums)
    for frustum, result in zip(frustums, batch):
        ids, fractions, nominal = _per_viewer_reference(occ, frustum, config)
        assert np.array_equal(result.cell_ids, ids)
        assert np.array_equal(result.fractions, fractions)
        assert np.array_equal(result.nominal_counts, nominal)
        assert result.frame_nominal_points == occ.frame_points
    return batch


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
        lows, highs = occ.lows_highs
        frustums = [t.pose_at(0.25).frustum() for t in study.traces]
        eyes = np.array([f.position for f in frustums])
        for in_view in (
            np.ones((len(frustums), len(occ.cell_ids)), dtype=bool),
            cull_aabbs(frustums, lows, highs),
        ):
            fast = _occlusion_mask(occ, eyes, in_view, config)
            assert fast.shape == in_view.shape
            assert not np.any(fast & ~in_view)
            for v, frustum in enumerate(frustums):
                slow = _occlusion_mask_reference(
                    grid, occ.cell_ids[in_view[v]], occ.nominal[in_view[v]],
                    frustum, config,
                )
                assert np.array_equal(fast[v][in_view[v]], slow)


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


@pytest.mark.parametrize("opacity", [0.02, 0.08])
@pytest.mark.parametrize("cell_size", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_frame_kernel_matches_the_per_viewer_reference(seed, cell_size,
                                                       opacity):
    # 3,900 sampled points give a scale factor with no short binary
    # expansion, so nominal counts are non-integer at every cell size.
    video = synthesize_video("medium", num_frames=2, points_per_frame=3900,
                             seed=seed)
    grid = CellGrid.covering(video.bounds, cell_size, margin=0.05)
    study = generate_user_study(num_users=10, duration_s=1.0, seed=seed)
    config = VisibilityConfig(occlusion_opacity_fraction=opacity)
    occupancies = [grid.occupancy(video[f]) for f in range(2)]
    _assert_non_integer_nominal(*occupancies)
    for f, occ in enumerate(occupancies):
        frustums = Frustum.many([t.pose(7 * f + 2) for t in study.traces])
        _assert_matches_per_viewer_reference(occ, frustums, config)


def _ring_viewers(bounds, count, rng):
    """Viewers around the content at random ranges and heights, looking
    near its center."""
    center = 0.5 * (bounds.lo + bounds.hi)
    frustums = []
    for _ in range(count):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(1.0, 3.0)
        eye = np.array([center[0] + radius * np.cos(angle),
                        center[1] + radius * np.sin(angle),
                        rng.uniform(0.8, 1.9)])
        target = center + rng.normal(0.0, 0.2, size=3)
        frustums.append(Frustum(eye, Quaternion.look_at(target - eye)))
    return frustums


@pytest.mark.parametrize("seed", range(4))
def test_frame_kernel_matches_the_reference_for_many_viewers(seed):
    """Hundreds of viewers per frame put some blocker masses within
    rounding of the threshold: a mass summed in another order than the
    viewer's compacted one flips about one viewer in a hundred here."""
    rng = np.random.default_rng(seed)
    video = synthesize_video("medium", num_frames=2, points_per_frame=3900,
                             seed=seed)
    for cell_size in (0.25, 0.5):
        grid = CellGrid.covering(video.bounds, cell_size, margin=0.05)
        for opacity in (0.02, 0.08):
            config = VisibilityConfig(occlusion_opacity_fraction=opacity)
            for f in range(2):
                _assert_matches_per_viewer_reference(
                    grid.occupancy(video[f]),
                    _ring_viewers(video.bounds, 100, rng), config,
                )


def test_frame_kernel_occludes_cells_in_the_fixtures():
    """The equivalence above is not vacuous: the fixtures do cull cells."""
    video = synthesize_video("medium", num_frames=1, points_per_frame=4000,
                             seed=3)
    grid = CellGrid.covering(video.bounds, 0.25, margin=0.05)
    occ = grid.occupancy(video[0])
    study = generate_user_study(num_users=10, duration_s=1.0, seed=3)
    frustums = Frustum.many([t.pose(2) for t in study.traces])
    culled = compute_visibility_batch(
        occ, frustums, VisibilityConfig(occlusion_opacity_fraction=0.02)
    )
    unculled = compute_visibility_batch(
        occ, frustums, VisibilityConfig(occlusion=False)
    )
    assert sum(len(r.cell_ids) for r in culled) < sum(
        len(r.cell_ids) for r in unculled
    )


@pytest.mark.parametrize("opacity", [0.02, 0.08])
def test_frame_kernel_without_viewport_matches_the_per_viewer_reference(
    opacity,
):
    _, _, study, occupancies = _fixture(num_users=8, num_frames=2)
    config = VisibilityConfig(viewport=False,
                              occlusion_opacity_fraction=opacity)
    for occ in occupancies:
        frustums = [t.pose_at(0.75).frustum() for t in study.traces]
        _assert_matches_per_viewer_reference(occ, frustums, config)


def test_viewers_with_no_one_and_every_cell_in_view():
    video, grid, study, occupancies = _fixture(num_users=3, num_frames=1)
    occ = occupancies[0]
    lo, hi = video.bounds.lo, video.bounds.hi
    narrow = np.deg2rad(10.0)
    frustums = [
        # Far off and looking away from the content: nothing in view.
        Frustum(hi + 50.0, Quaternion.identity()),
        # Inside one cell with a short, narrow view: that cell alone.
        Frustum(occ.centers[0] - [0.2 * grid.cell_size, 0.0, 0.0],
                Quaternion.identity(), h_fov=narrow, v_fov=narrow,
                near=0.05, far=0.6 * grid.cell_size),
        # Well behind the content, looking at it: every cell.
        Frustum([lo[0] - 8.0, 0.5 * (lo[1] + hi[1]), 0.5 * (lo[2] + hi[2])],
                Quaternion.identity()),
    ] + [t.pose_at(1.0).frustum() for t in study.traces]
    in_view = cull_aabbs(frustums, *occ.lows_highs).sum(axis=1)
    assert list(in_view[:3]) == [0, 1, len(occ.cell_ids)]
    batch = _assert_matches_per_viewer_reference(
        occ, frustums, VisibilityConfig()
    )
    assert len(batch[0].cell_ids) == 0
    assert list(batch[1].cell_ids) == [occ.cell_ids[0]]


def test_frame_kernel_with_no_viewers():
    _, _, _, occupancies = _fixture(num_users=1, num_frames=1)
    occ = occupancies[0]
    keep = _occlusion_mask(
        occ, np.empty((0, 3)), np.ones((0, len(occ.cell_ids)), dtype=bool),
        VisibilityConfig(),
    )
    assert keep.shape == (0, len(occ.cell_ids))


@pytest.mark.parametrize("pairs_per_chunk", [1, 4])
def test_slab_chunks_straddling_viewers_match(monkeypatch, pairs_per_chunk):
    _, _, study, occupancies = _fixture(num_users=8, num_frames=1)
    occ = occupancies[0]
    frustums = [t.pose_at(0.5).frustum() for t in study.traces]
    config = VisibilityConfig(occlusion_opacity_fraction=0.02)
    whole = compute_visibility_batch(occ, frustums, config)
    # The budget is per chunk of (pair, cell, axis) elements.
    monkeypatch.setattr(visibility, "_SLAB_CHUNK_ELEMENTS",
                        pairs_per_chunk * 3 * len(occ.cell_ids))
    chunked = _assert_matches_per_viewer_reference(occ, frustums, config)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a.cell_ids, b.cell_ids)
        assert np.array_equal(a.fractions, b.fractions)
