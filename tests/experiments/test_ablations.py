"""Ablation-experiment tests (small scale)."""

from repro.experiments.ablations import ABLATION_EXPERIMENTS
from repro.runner import experiment_names, get_experiment, run_experiment


def _run(name, overrides):
    merged = run_experiment(name, overrides)
    return merged, get_experiment(name).format_result(merged)


def test_six_agenda_studies_are_registered():
    assert set(ABLATION_EXPERIMENTS) <= set(experiment_names())
    assert len(ABLATION_EXPERIMENTS) == 6
    for name in ABLATION_EXPERIMENTS:
        assert get_experiment(name).title


def test_prediction_ablation_rows():
    merged, text = _run(
        "ablation_prediction", {"num_users": 6, "duration_s": 5.0}
    )
    rows = {r["predictor"]: r for r in merged["rows"]}
    assert set(rows) == {
        "last-value",
        "linear-regression",
        "mlp",
        "joint-multiuser",
    }
    for r in rows.values():
        assert 0 <= r["pos_err_m"] < 1.0
        assert 0 <= r["ori_err_deg"] < 90.0
        assert 0 <= r["vis_iou"] <= 1.0
    assert "Predictor" in text


def test_blockage_ablation_proactive_helps():
    merged, text = _run(
        "ablation_blockage", {"num_users": 6, "duration_s": 5.0}
    )
    rows = {r["policy"]: r["summary"] for r in merged["rows"]}
    assert set(rows) == {"reactive", "proactive"}
    reactive = rows["reactive"]
    proactive = rows["proactive"]
    # Proactive mitigation must not hurt and should reduce stalls / raise QoE.
    assert proactive["qoe_score"] >= reactive["qoe_score"] - 1e-6
    assert "Policy" in text


def test_grouping_ablation_multicast_helps():
    merged, text = _run(
        "ablation_grouping", {"user_counts": (2, 4), "num_frames": 9}
    )
    fps = {
        (e["policy"], row["num_users"]): e["mean_fps"]
        for row in merged["rows"]
        for e in row["fps"]
    }
    for n in (2, 4):
        assert fps["greedy", n] >= fps["unicast", n] - 1e-9
        assert fps["exhaustive", n] >= fps["greedy", n] - 0.5
    assert "Users" in text


def test_adaptation_ablation_policies():
    merged, text = _run(
        "ablation_adaptation", {"num_users": 6, "duration_s": 5.0}
    )
    rows = {r["policy"]: r["summary"] for r in merged["rows"]}
    assert set(rows) == {
        "fixed-high",
        "throughput",
        "buffer",
        "mpc",
        "cross-layer",
    }
    # Every policy produces a valid summary.
    for summary in rows.values():
        assert summary["mean_fps"] >= 0
        assert summary["stall_time_s"] >= 0
    # Adaptive policies should stall less than fixed-high on a constrained
    # link (or at worst match it).
    fixed_stall = rows["fixed-high"]["stall_time_s"]
    xl_stall = rows["cross-layer"]["stall_time_s"]
    assert xl_stall <= fixed_stall + 0.5
    assert "qoe" in text


def test_cellsize_ablation_tradeoff():
    merged, text = _run(
        "ablation_cellsize", {"num_users": 6, "duration_s": 3.0}
    )
    rows = {r["cell_size"]: r for r in merged["rows"]}
    sizes = sorted(rows)
    assert sizes == [0.25, 0.5, 1.0]
    ious = [rows[s]["pair_iou"] for s in sizes]
    # Finer cells -> lower IoU (the paper's segmentation-granularity effect).
    assert ious[0] <= ious[-1] + 0.02
    for r in rows.values():
        assert 0 <= r["pair_iou"] <= 1
        assert 0 < r["visible_fraction"] <= 1.0
        assert r["mb_per_frame"] > 0
    assert "Cell(cm)" in text


def test_multiap_ablation_coordination_helps():
    merged, text = _run(
        "ablation_multiap", {"user_counts": (2, 6), "num_instants": 5}
    )
    rows = {r["num_users"]: r for r in merged["rows"]}
    for r in rows.values():
        assert r["single_ms"] > 0 and r["multi_ms"] > 0
        assert r["multi_ms"] <= r["single_ms"] * 1.05
    assert rows[6]["single_ms"] / rows[6]["multi_ms"] > 1.05
    assert "Speedup" in text
