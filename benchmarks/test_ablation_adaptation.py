"""Benchmark Abl-D: rate-adaptation policies (paper §4.3).

Full-session QoE for fixed-high / throughput-EWMA / buffer-based /
cross-layer adaptation on a constrained, blockage-prone 802.11ad link.
"""

import pytest

from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_ablation_adaptation(benchmark, print_result, ablation_workload):
    name = "ablation_adaptation"
    merged = benchmark.pedantic(
        run_experiment,
        args=(name, ablation_workload("adaptation")),
        rounds=1,
        iterations=1,
    )
    print_result("Abl-D: rate adaptation", get_experiment(name).format_result(merged))

    rows = {r["policy"]: r["summary"] for r in merged["rows"]}
    # Fixed-high overloads the link and pays in stalls.
    assert rows["fixed-high"]["stall_time_s"] > 2.0
    # Every adaptive policy essentially eliminates stalls and beats
    # no-adaptation on QoE.
    for name in ("throughput", "buffer", "mpc", "cross-layer"):
        assert rows[name]["stall_time_s"] < rows["fixed-high"]["stall_time_s"] / 4
        assert rows[name]["qoe_score"] > rows["fixed-high"]["qoe_score"]
        assert rows[name]["mean_fps"] > rows["fixed-high"]["mean_fps"]
    # The cross-layer policy is the most stable: no stalls and the fewest
    # quality switches (it sees the rate cliff coming instead of reacting).
    assert rows["cross-layer"]["stall_time_s"] == pytest.approx(0.0, abs=0.2)
    assert rows["cross-layer"]["quality_switches"] <= min(
        rows[n]["quality_switches"]
        for n in ("throughput", "buffer", "mpc")
    )
