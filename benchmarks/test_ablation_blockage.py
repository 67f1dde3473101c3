"""Benchmark Abl-B: proactive vs. reactive blockage mitigation (paper §4.1).

The proactive stack (viewport-prediction-driven beam switching plus
prefetch ahead of predicted blockers) must eliminate the reactive stack's
dead airtime and improve end-to-end QoE.
"""

import pytest

from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_ablation_blockage(benchmark, print_result, ablation_workload):
    name = "ablation_blockage"
    merged = benchmark.pedantic(
        run_experiment,
        args=(name, ablation_workload("blockage")),
        rounds=1,
        iterations=1,
    )
    text = get_experiment(name).format_result(merged)
    print_result("Abl-B: blockage mitigation", text)

    rows = {r["policy"]: r["summary"] for r in merged["rows"]}
    reactive = rows["reactive"]
    proactive = rows["proactive"]

    # The headline: predicted switches remove the detection+re-search
    # outage entirely.
    assert reactive["outage_s"] > 0.1
    assert proactive["outage_s"] == pytest.approx(0.0, abs=1e-9)

    # And the end-to-end session is no worse — typically better.
    assert proactive["qoe_score"] >= reactive["qoe_score"] - 1e-6
    assert proactive["stall_time_s"] <= reactive["stall_time_s"] + 1e-6
    assert proactive["mean_rate_fraction"] >= reactive["mean_rate_fraction"]
