"""Video container and quality-level tests."""

import numpy as np
import pytest

from repro.pointcloud import (
    QUALITIES,
    QUALITY_ORDER,
    PointCloudFrame,
    PointCloudVideo,
)


def make_video(frames=5, fps=30.0):
    rng = np.random.default_rng(1)
    return PointCloudVideo(
        name="t",
        frames=[
            PointCloudFrame(rng.uniform(0, 1, size=(10, 3))) for _ in range(frames)
        ],
        fps=fps,
    )


def test_quality_levels_match_paper():
    assert QUALITIES["low"].points_per_frame == 330_000
    assert QUALITIES["low"].bitrate_mbps == pytest.approx(235.0)
    assert QUALITIES["high"].points_per_frame == 550_000
    assert QUALITIES["high"].bitrate_mbps == pytest.approx(364.0)
    assert QUALITY_ORDER == ("low", "medium", "high")


def test_quality_bytes_per_frame():
    q = QUALITIES["high"]
    # 364 Mbps at 30 FPS ~ 1.52 MB/frame.
    assert q.bytes_per_frame == pytest.approx(364e6 / 8 / 30)
    assert 2.0 < q.bytes_per_point < 3.5


def test_medium_interpolates_between_endpoints():
    q = QUALITIES["medium"]
    assert 235.0 < q.bitrate_mbps < 364.0
    assert 330_000 < q.points_per_frame < 550_000


def test_video_validation():
    with pytest.raises(ValueError):
        PointCloudVideo(name="x", frames=[], fps=30.0)
    with pytest.raises(ValueError):
        make_video(fps=0.0)


def test_len_getitem_iter():
    v = make_video(frames=4)
    assert len(v) == 4
    assert v[0] is v.frames[0]
    assert sum(1 for _ in v) == 4


def test_duration():
    v = make_video(frames=60, fps=30.0)
    assert v.duration == pytest.approx(2.0)


def test_bounds_cover_all_frames():
    v = make_video(frames=3)
    b = v.bounds
    for f in v:
        assert b.contains_points(f.points).all()


def test_at_quality_relabels_density():
    v = make_video()
    high = PointCloudVideo(
        name="t-high", frames=v.frames, fps=v.fps, quality=QUALITIES["high"]
    )
    low = high.at_quality("low")
    assert low.quality.name == "low"
    assert all(f.nominal_points == 330_000 for f in low.frames)
    # Geometry unchanged.
    assert np.allclose(low[0].points, high[0].points)
