"""``PointCloudVideo.bounds`` is bitwise the ``AABB.union`` chain.

The bounds fold ``np.minimum`` / ``np.maximum`` over the frames' corners
in frame order, the same pairwise calls the chain of ``AABB.union``
makes, without building the intermediate boxes.  Bitwise here includes
the sign of a zero bound: ``np.minimum(0.0, -0.0)`` keeps one of the two
by argument order, so a reordered or reduced fold could differ.
"""

import numpy as np
import pytest

from repro.pointcloud import PointCloudFrame, PointCloudVideo


def _union_chain(video):
    box = video.frames[0].bounds
    for frame in video.frames[1:]:
        box = box.union(frame.bounds)
    return box


def _assert_bitwise(box, reference):
    assert box.lo.dtype == reference.lo.dtype == np.float64
    assert box.lo.tobytes() == reference.lo.tobytes()
    assert box.hi.tobytes() == reference.hi.tobytes()


def _video(frames):
    return PointCloudVideo(
        name="t", frames=[PointCloudFrame(np.asarray(f)) for f in frames]
    )


@pytest.mark.parametrize("num_frames", [1, 2, 5, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounds_equal_the_union_chain(num_frames, seed):
    rng = np.random.default_rng(seed)
    video = _video(
        rng.normal(size=(int(rng.integers(1, 30)), 3)) * rng.uniform(0.1, 5)
        + rng.normal(size=3)
        for _ in range(num_frames)
    )
    _assert_bitwise(video.bounds, _union_chain(video))


def test_mixed_signed_zero_bounds_equal_the_union_chain():
    # Frames whose low and high corners are 0.0 in some frames and -0.0
    # in others, in both orders along the video.
    frames = [
        [[0.0, -0.0, 1.0], [1.0, 1.0, 2.0]],
        [[-0.0, 0.0, 0.5], [2.0, 3.0, 4.0]],
        [[-1.0, -2.0, -3.0], [0.0, -0.0, -0.0]],
        [[-1.0, -2.0, -3.0], [-0.0, 0.0, -0.0]],
        [[0.0, -0.0, 0.0], [0.0, -0.0, 0.0]],
    ]
    orders = [[0, 1, 4], [1, 0, 4], [2, 3], [3, 2], [4, 2, 0], [4, 3, 1]]
    for order in orders:
        video = _video(frames[i] for i in order)
        _assert_bitwise(video.bounds, _union_chain(video))
    # The cases do reach the trap: the order of two frames flips the sign
    # of a zero bound.
    forward = _video([frames[0], frames[1]]).bounds.lo
    backward = _video([frames[1], frames[0]]).bounds.lo
    assert np.array_equal(forward, backward)
    assert forward.tobytes() != backward.tobytes()
