"""Benchmark: the headline scaling sweep (how many users at 30 FPS?).

Summarizes the whole paper: vanilla 802.11ac supports one user at high
quality, 802.11ad three, ViVo five, and viewport-similarity multicast
pushes past the paper's measured frontier — "the bandwidth reduction can
either lead to more concurrent users or improve the QoE".
"""

import pytest

from repro.experiments import scaling
from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_scaling(benchmark, print_result):
    merged = benchmark.pedantic(
        run_experiment, args=("scaling", {"num_frames": 24}), rounds=1, iterations=1
    )
    print_result(
        "Scaling: max users at ~30 FPS, 550K quality",
        get_experiment("scaling").format_result(merged),
    )

    def max_users(system):
        return scaling.max_users(merged, system)

    # The paper's ladder, rung by rung.
    assert max_users("802.11ac vanilla") == 1
    assert max_users("802.11ad vanilla") == 3
    assert 4 <= max_users("802.11ad ViVo") <= 6  # paper: +1-2 users
    assert max_users("802.11ad ViVo+multicast") >= max_users("802.11ad ViVo") + 1

    # Monotone orderings everywhere: better systems never do worse.
    fps = scaling.fps_by_system(merged)
    counts = sorted(fps["802.11ad vanilla"])
    for n in counts:
        assert fps["802.11ac ViVo"][n] >= fps["802.11ac vanilla"][n]
        assert fps["802.11ad ViVo"][n] >= fps["802.11ad vanilla"][n]
        assert fps["802.11ad ViVo+multicast"][n] >= fps["802.11ad ViVo"][n] - 0.5
