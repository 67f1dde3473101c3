"""Scaling-sweep runner tests (small scale; full scale in benchmarks/)."""

from repro.experiments import SCALING_SYSTEMS, scaling
from repro.runner import get_experiment, run_experiment


def test_scaling_small():
    result = run_experiment("scaling", {"user_counts": (1, 3, 6), "num_frames": 6})
    fps = scaling.fps_by_system(result)
    assert set(fps) == set(SCALING_SYSTEMS)
    for system in SCALING_SYSTEMS:
        assert set(fps[system]) == {1, 3, 6}
        for value in fps[system].values():
            assert 0 < value <= 30.0
    # One user always plays at full rate on every system.
    for system in SCALING_SYSTEMS:
        assert fps[system][1] == 30.0
    # ac degrades fastest.
    assert fps["802.11ac vanilla"][6] < fps["802.11ad vanilla"][6]
    # Multicast dominates at 6 users.
    assert fps["802.11ad ViVo+multicast"][6] >= fps["802.11ad ViVo"][6] - 0.5
    assert "max@30" in get_experiment("scaling").format_result(result)


def test_max_users_threshold():
    result = run_experiment("scaling", {"user_counts": (1, 2), "num_frames": 3})
    for system in SCALING_SYSTEMS:
        assert scaling.max_users(result, system) in (0, 1, 2)
