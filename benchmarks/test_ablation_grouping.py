"""Benchmark Abl-C: multicast grouping policies (paper §4.2).

Sustained frame rate over the beam-level channel for unicast vs. the
greedy viewport-similarity grouper vs. the exhaustive-optimal partition.
The paper's promise: multicast turns the bandwidth headroom from viewport
overlap into more concurrent users at 30 FPS.
"""

import pytest

from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_ablation_grouping(benchmark, print_result, ablation_workload):
    name = "ablation_grouping"
    merged = benchmark.pedantic(
        run_experiment,
        args=(name, ablation_workload("grouping")),
        rounds=1,
        iterations=1,
    )
    text = get_experiment(name).format_result(merged)
    print_result("Abl-C: multicast grouping", text)

    fps = {}
    for row in merged["rows"]:
        for entry in row["fps"]:
            fps.setdefault(entry["policy"], {})[row["num_users"]] = entry["mean_fps"]
    for n in (2, 4, 6):
        # Grouping never hurts...
        assert fps["greedy"][n] >= fps["unicast"][n] - 1e-9
        # ...and the greedy heuristic is near-optimal at this scale.
        assert fps["greedy"][n] >= fps["exhaustive"][n] - 1.5

    # The paper's scaling claim: at 6 users, unicast is far below 30 FPS
    # while similarity-grouped multicast restores (near-)full rate.
    assert fps["unicast"][6] < 25.0
    assert fps["greedy"][6] > fps["unicast"][6] + 5.0
