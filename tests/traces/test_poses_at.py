"""``Trace.poses_at``: many interpolated poses, bitwise equal to ``pose_at``.

``pose_at`` is the scalar reference: per time it clamps at the ends, falls
back to the earlier sample across a zero-length span, interpolates the
position linearly and slerps the orientation through
:meth:`Quaternion.slerp` (short-arc flip, linear branch for nearly
identical quaternions, ``alpha`` clipped to ``[0, 1]``, normalization by
squared Python floats).  The batched rows must equal it bit for bit,
because the session culls from them and the goldens pin what it culls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Quaternion
from repro.traces import Device, Trace, generate_user_study


def _assert_rows_match_pose_at(trace: Trace, ts) -> None:
    ts = np.asarray(ts, dtype=np.float64)
    positions, orientations = trace.poses_at(ts)
    assert positions.shape == (len(ts), 3)
    assert orientations.shape == (len(ts), 4)
    for i, t in enumerate(ts.tolist()):
        pose = trace.pose_at(t)
        q = pose.orientation
        assert np.array_equal(positions[i], pose.position), (i, t)
        assert np.array_equal(orientations[i], [q.w, q.x, q.y, q.z]), (i, t)


def _trace(times, positions, orientations) -> Trace:
    return Trace(
        user_id=0,
        device=Device.HEADSET,
        times=np.asarray(times, dtype=np.float64),
        positions=np.asarray(positions, dtype=np.float64),
        orientations=np.asarray(orientations, dtype=np.float64),
    )


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_study_traces_at_session_frame_times(seed):
    study = generate_user_study(num_users=4, duration_s=3.0, seed=seed)
    for trace in study.traces:
        # The session's display times, running past the trace's end, and
        # frame clocks that fall between samples.
        for fps in (30.0, 24.0, 60.0):
            _assert_rows_match_pose_at(trace, np.arange(120) / fps)


def test_times_before_the_first_and_after_the_last_sample():
    trace = generate_user_study(num_users=1, duration_s=2.0, seed=5).traces[0]
    first, last = trace.times[0], trace.times[-1]
    ts = [first - 10.0, first - 1e-9, first, last, last + 1e-9, last + 10.0]
    _assert_rows_match_pose_at(trace, ts)
    positions, orientations = trace.poses_at(ts)
    assert np.array_equal(positions[:3], np.repeat(trace.positions[:1], 3, axis=0))
    assert np.array_equal(positions[3:], np.repeat(trace.positions[-1:], 3, axis=0))


def test_exact_sample_times_and_random_times():
    trace = generate_user_study(num_users=1, duration_s=2.0, seed=7).traces[0]
    _assert_rows_match_pose_at(trace, trace.times)
    rng = np.random.default_rng(7)
    _assert_rows_match_pose_at(trace, rng.uniform(-0.5, 2.5, size=500))


def test_a_zero_span_pair_falls_back_to_the_earlier_sample():
    q = Quaternion.from_euler(0.3, -0.2, 0.1).as_array()
    r = Quaternion.from_euler(-1.0, 0.4, 0.0).as_array()
    trace = _trace(
        [0.0, 1.0, 1.0 + 1e-13, 2.0],
        [[0, 0, 0], [1, 0, 0], [5, 5, 5], [2, 0, 0]],
        [q, q, r, r],
    )
    ts = [0.5, 1.0 + 5e-14, 1.0 + 1e-13, 1.5]
    _assert_rows_match_pose_at(trace, ts)
    positions, orientations = trace.poses_at(ts)
    assert np.array_equal(positions[1:3], [[1, 0, 0], [1, 0, 0]])
    assert np.array_equal(orientations[1:3], trace.orientations[[1, 1]])


def test_antipodal_quaternions_take_the_short_arc():
    q = Quaternion.from_euler(0.7, 0.2, -0.3).as_array()
    nearly = Quaternion.from_euler(0.75, 0.2, -0.3).as_array()
    trace = _trace(
        [0.0, 1.0, 2.0, 3.0],
        np.zeros((4, 3)),
        # -q is the same rotation (d = -1, linear branch after the flip);
        # -nearly is a small rotation away on the long arc (slerp branch).
        [q, -q, q, -nearly],
    )
    assert np.dot(trace.orientations[0], trace.orientations[1]) < 0.0
    assert np.dot(trace.orientations[2], trace.orientations[3]) < 0.0
    _assert_rows_match_pose_at(trace, np.linspace(-0.5, 3.5, 97))


def test_near_identical_quaternions_take_the_linear_branch():
    q = Quaternion.from_euler(-0.4, 0.1, 0.9).as_array()
    tiny = q + np.array([1e-13, -1e-13, 2e-13, 0.0])
    small = q + np.array([1e-9, 0.0, -1e-9, 1e-9])
    # A 1e-7 rad turn: theta is just resolvable, so slerp divides by a
    # tiny sine instead.
    close = Quaternion.from_euler(-0.4 + 1e-7, 0.1, 0.9).as_array()
    trace = _trace(
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        np.arange(18, dtype=np.float64).reshape(6, 3),
        [q, q, tiny, small, q, close],
    )
    _assert_rows_match_pose_at(trace, np.linspace(-0.25, 5.25, 111))


def test_a_single_sample_trace_is_constant():
    q = Quaternion.from_euler(0.2, 0.0, 0.0).as_array()
    trace = _trace([1.0], [[1.0, 2.0, 3.0]], [q])
    _assert_rows_match_pose_at(trace, [-1.0, 1.0, 3.0])


def test_no_times_gives_empty_arrays():
    trace = generate_user_study(num_users=1, duration_s=1.0, seed=1).traces[0]
    positions, orientations = trace.poses_at(np.zeros(0))
    assert positions.shape == (0, 3)
    assert orientations.shape == (0, 4)
