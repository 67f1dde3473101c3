"""One resident copy of the room video.

``room_video`` synthesizes its frames at ``CONTENT_CENTER`` through
``synthesize_video(center=...)`` instead of translating the memoized
``default_video``, so a room session never holds the untranslated copy.
Each frame must still be bitwise the translated frame: same points bytes,
same ``nominal_points``, same bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import (
    CONTENT_CENTER,
    clear_fixture_caches,
    default_video,
    room_video,
)
from repro.pointcloud import (
    QUALITIES,
    PointCloudVideo,
    synthesize_frame,
    synthesize_video,
)


def _assert_box_bitwise(box, reference):
    assert box.lo.tobytes() == reference.lo.tobytes()
    assert box.hi.tobytes() == reference.hi.tobytes()


def _assert_video_bitwise(video, reference):
    assert video.name == reference.name
    assert video.fps == reference.fps
    assert video.quality == reference.quality
    assert len(video) == len(reference)
    for frame, ref in zip(video, reference):
        assert frame.points.dtype == ref.points.dtype == np.float64
        assert frame.points.tobytes() == ref.points.tobytes()
        assert frame.nominal_points == ref.nominal_points
        _assert_box_bitwise(frame.bounds, ref.bounds)
    _assert_box_bitwise(video.bounds, reference.bounds)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_fixture_caches()
    yield
    clear_fixture_caches()


@pytest.mark.parametrize(
    "quality, num_frames, points_per_frame",
    [("low", 3, 500), ("medium", 5, 1201), ("high", 4, 6000)],
)
def test_room_video_is_the_translated_default_video(
    quality, num_frames, points_per_frame
):
    video = room_video(quality, num_frames, points_per_frame)
    reference = default_video(quality, num_frames, points_per_frame).translated(
        CONTENT_CENTER
    )
    _assert_video_bitwise(video, reference)


def test_room_video_builds_no_default_video():
    room_video("high", 4, 800)
    assert common._default_video.cache_info().currsize == 0
    assert common._room_video.cache_info().currsize == 1


def test_center_is_the_translated_video():
    kwargs = dict(num_frames=3, points_per_frame=700, seed=5)
    reference = synthesize_video("low", **kwargs).translated([-1.5, 2.25, 0.5])
    for center in ([-1.5, 2.25, 0.5], (-1.5, 2.25, 0.5), np.array([-1.5, 2.25, 0.5])):
        _assert_video_bitwise(
            synthesize_video("low", center=center, **kwargs), reference
        )


def test_no_center_is_unchanged():
    level = QUALITIES["medium"]
    reference = PointCloudVideo(
        name="synthetic-soldier-medium",
        frames=[
            synthesize_frame(
                i, points=700, nominal_points=level.points_per_frame, seed=5
            )
            for i in range(3)
        ],
        quality=level,
    )
    kwargs = dict(num_frames=3, points_per_frame=700, seed=5)
    _assert_video_bitwise(synthesize_video("medium", **kwargs), reference)
    _assert_video_bitwise(
        synthesize_video("medium", center=None, **kwargs), reference
    )


@pytest.mark.parametrize(
    "center",
    [
        [np.nan, 0.0, 0.0],
        [0.0, np.inf, 0.0],
        [0.0, 0.0, -np.inf],
        [1.0, 2.0],
        [1.0, 2.0, 3.0, 4.0],
        [[1.0, 2.0, 3.0]],
        5.0,
        "abc",
        ["a", "b", "c"],
        [1.0, None, 2.0],
        object(),
    ],
)
def test_bad_center_is_rejected(center):
    with pytest.raises(ValueError, match="center must be three finite numbers"):
        synthesize_video("low", num_frames=1, points_per_frame=10, center=center)
