"""Benchmark Abl-A: viewport predictors (paper §4.1).

Compares last-value, linear-regression, MLP and the joint multi-user
predictor on held-out synthetic traces; reports pose error and the
streaming-relevant visibility-map IoU.
"""

import pytest

from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_ablation_prediction(benchmark, print_result, ablation_workload):
    name = "ablation_prediction"
    merged = benchmark.pedantic(
        run_experiment,
        args=(name, ablation_workload("prediction")),
        rounds=1,
        iterations=1,
    )
    text = get_experiment(name).format_result(merged)
    print_result("Abl-A: viewport prediction", text)

    rows = {
        r["predictor"]: (r["pos_err_m"], r["ori_err_deg"], r["vis_iou"])
        for r in merged["rows"]
    }
    # The paper's premise: individual 6DoF viewports are predictable "with
    # high accuracy in real-time" — all predictors land centimeter-scale
    # position error and near-perfect visibility-map overlap at 0.5 s.
    for pos_err, ori_err, iou in rows.values():
        assert pos_err < 0.25
        assert ori_err < 15.0
        assert iou > 0.9

    # The learned predictor matches or beats windowed linear regression
    # (the paper's "linear regression or multilayer perceptron" pairing).
    assert rows["mlp"][0] <= rows["linear-regression"][0] * 1.05
    assert rows["mlp"][1] <= rows["linear-regression"][1] * 1.05

    # The classical baselines stay within a small factor of each other —
    # on orbiting viewers, holding the pose is already strong at 0.5 s.
    assert rows["linear-regression"][0] <= rows["last-value"][0] * 1.5

    # The joint model trades a little raw pose accuracy for the group
    # coherence the blockage forecaster needs; the cost stays bounded.
    assert rows["joint-multiuser"][0] <= rows["last-value"][0] * 3.0
    assert rows["joint-multiuser"][2] > 0.9
