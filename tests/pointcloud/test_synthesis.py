"""Synthetic humanoid video generator tests."""

import numpy as np
import pytest

from repro.pointcloud import QUALITIES, synthesize_frame, synthesize_video


def test_frame_determinism():
    a = synthesize_frame(5, points=500, seed=3)
    b = synthesize_frame(5, points=500, seed=3)
    assert np.allclose(a.points, b.points)


def test_frames_differ_over_time():
    a = synthesize_frame(0, points=500, seed=3)
    b = synthesize_frame(15, points=500, seed=3)
    assert not np.allclose(a.points, b.points)


def test_point_budget_exact():
    f = synthesize_frame(0, points=777)
    assert len(f) == 777


def test_nominal_points_label():
    f = synthesize_frame(0, points=100, nominal_points=550_000)
    assert f.nominal_points == 550_000


def test_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        synthesize_frame(0, points=0)


def test_figure_envelope_is_humanoid():
    f = synthesize_frame(0, points=4000)
    size = f.bounds.size
    # Standing figure: ~1.8 m tall, spans multiple 25-50 cm cells laterally.
    assert 1.5 < size[2] <= 1.85
    assert size[0] > 0.6  # prop extends forward
    assert size[1] > 0.7  # arm span
    assert f.points[:, 2].min() >= 0.0  # above the floor


def test_video_quality_sets_nominal_density():
    v = synthesize_video("low", num_frames=3, points_per_frame=500)
    assert v.quality.name == "low"
    assert all(f.nominal_points == 330_000 for f in v.frames)
    assert v.quality.bitrate_mbps == pytest.approx(235.0)


def test_video_all_frames_generated():
    v = synthesize_video("high", num_frames=7, points_per_frame=300)
    assert len(v) == 7
    assert v.fps == pytest.approx(30.0)


def test_video_name_includes_quality():
    v = synthesize_video("medium", num_frames=2, points_per_frame=300)
    assert "medium" in v.name


def test_animation_changes_cell_occupancy():
    # The gait animation must actually move geometry between cells.
    from repro.pointcloud import CellGrid

    v = synthesize_video("high", num_frames=30, points_per_frame=2000)
    grid = CellGrid.covering(v.bounds, 0.25, margin=0.02)
    occ0 = set(grid.occupancy(v[0]).cell_ids.tolist())
    occ29 = set(grid.occupancy(v[29]).cell_ids.tolist())
    assert occ0 != occ29


@pytest.mark.parametrize("fps", [0.0, -30.0, float("nan"), float("inf")])
def test_frame_rejects_bad_fps(fps):
    with pytest.raises(ValueError, match="fps"):
        synthesize_frame(0, points=100, fps=fps)


@pytest.mark.parametrize("fps", [0.0, float("nan")])
def test_video_rejects_bad_fps(fps):
    with pytest.raises(ValueError, match="fps"):
        synthesize_video("low", num_frames=2, points_per_frame=100, fps=fps)


def test_video_rejects_unknown_quality_listing_the_known_ones():
    with pytest.raises(ValueError, match="ultra") as err:
        synthesize_video("ultra", num_frames=2, points_per_frame=100)
    for name in QUALITIES:
        assert repr(name) in str(err.value)
