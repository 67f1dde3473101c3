"""Benchmark Abl-F: multi-AP coordination with spatial reuse (paper §5).

Two viewing clusters, two wall APs.  The coordinated deployment
(interference-aware: concurrent spatial reuse where SINR allows, AP-TDMA
otherwise) must beat a single AP serving the whole room.
"""

import pytest

from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_ablation_multiap(benchmark, print_result, ablation_workload):
    name = "ablation_multiap"
    merged = benchmark.pedantic(
        run_experiment,
        args=(name, ablation_workload("multiap")),
        rounds=1,
        iterations=1,
    )
    text = get_experiment(name).format_result(merged)
    print_result("Abl-F: multi-AP coordination", text)

    speedup = {}
    for r in merged["rows"]:
        # Coordination never loses to the single AP.
        assert r["multi_ms"] <= r["single_ms"] * 1.05
        speedup[r["num_users"]] = r["single_ms"] / r["multi_ms"]
    # And delivers a real speedup once the room is loaded.
    assert speedup[6] > 1.15
    assert speedup[8] > 1.15
