"""Importance scoring: polarity, normalization, ranking, interactions.

All tests run on synthetic metrics (no sessions), so the arithmetic can
be asserted exactly.
"""

from __future__ import annotations

import pytest

from repro.ablation.engine import (
    REPORT_SCHEMA,
    build_report,
    compute_importance,
    compute_interactions,
    configure,
    rank_components,
)


def _metrics(qoe, fps, stall, late):
    return {
        "qoe_score": qoe,
        "mean_fps": fps,
        "stall_time_s": stall,
        "late_fraction": late,
    }


def test_degradation_respects_metric_polarity(make_fake_result):
    config = configure(components=("fec", "grouping"))
    _, metrics = make_fake_result(
        config,
        metrics={
            "baseline": _metrics(200.0, 30.0, 0.0, 0.0),
            # fec off: qoe down 50 (degradation +50), stall up 2 (+2)
            "no-fec": _metrics(150.0, 30.0, 2.0, 0.0),
            # grouping off: qoe down 100 (+100), stall up 4 (+4)
            "no-grouping": _metrics(100.0, 30.0, 4.0, 0.0),
        },
    )
    importance = compute_importance(config, metrics)
    fec = importance["fec"]
    assert fec["deltas"]["qoe_score"] == -50.0
    assert fec["degradation"]["qoe_score"] == 50.0  # higher-is-better flips sign
    assert fec["deltas"]["stall_time_s"] == 2.0
    assert fec["degradation"]["stall_time_s"] == 2.0  # lower-is-better keeps sign
    # normalized by the largest per-metric degradation (grouping's)
    assert fec["normalized"]["qoe_score"] == pytest.approx(0.5)
    assert fec["normalized"]["stall_time_s"] == pytest.approx(0.5)
    grouping = importance["grouping"]
    assert grouping["normalized"]["qoe_score"] == pytest.approx(1.0)
    # untouched metrics normalize to exactly zero, never NaN
    assert fec["normalized"]["mean_fps"] == 0.0
    assert fec["normalized"]["late_fraction"] == 0.0
    # score = mean normalized degradation over the scored metrics
    assert fec["score"] == pytest.approx((0.5 + 0.0 + 0.5 + 0.0) / 4)
    assert grouping["score"] == pytest.approx((1.0 + 0.0 + 1.0 + 0.0) / 4)


def test_helpful_ablation_scores_negative(make_fake_result):
    config = configure(components=("fec", "prediction"))
    _, metrics = make_fake_result(
        config,
        metrics={
            "baseline": _metrics(200.0, 30.0, 1.0, 0.0),
            "no-fec": _metrics(100.0, 30.0, 3.0, 0.0),
            # removing prediction *improves* qoe here: negative importance
            "no-prediction": _metrics(250.0, 30.0, 1.0, 0.0),
        },
    )
    importance = compute_importance(config, metrics)
    assert importance["prediction"]["score"] < 0 < importance["fec"]["score"]


def test_ranking_orders_by_score_then_name(make_fake_result):
    config = configure(components=("adaptation", "fec", "grouping"))
    _, metrics = make_fake_result(
        config,
        metrics={
            "baseline": _metrics(200.0, 30.0, 0.0, 0.0),
            "no-adaptation": _metrics(100.0, 30.0, 0.0, 0.0),
            "no-fec": _metrics(100.0, 30.0, 0.0, 0.0),  # tie with adaptation
            "no-grouping": _metrics(50.0, 30.0, 0.0, 0.0),
        },
    )
    ranking = rank_components(config, metrics)
    assert [name for name, _ in ranking] == ["grouping", "adaptation", "fec"]
    assert ranking[1][1] == ranking[2][1]  # tie broken by name


def test_all_zero_matrix_scores_zero_without_dividing(make_fake_result):
    config = configure(components=("fec", "grouping"))
    flat = _metrics(200.0, 30.0, 0.0, 0.0)
    _, metrics = make_fake_result(
        config,
        metrics={"baseline": flat, "no-fec": dict(flat), "no-grouping": dict(flat)},
    )
    for imp in compute_importance(config, metrics).values():
        assert imp["score"] == 0.0
        assert all(v == 0.0 for v in imp["normalized"].values())


def test_pairwise_interaction_is_excess_over_sum(make_fake_result):
    config = configure(components=("fec", "grouping"), pairwise=True)
    _, metrics = make_fake_result(
        config,
        metrics={
            "baseline": _metrics(200.0, 30.0, 0.0, 0.0),
            "no-fec": _metrics(150.0, 30.0, 0.0, 0.0),
            "no-grouping": _metrics(100.0, 30.0, 0.0, 0.0),
            # losing both costs 180 > 50 + 100: complementary (+30 excess)
            "no-fec+no-grouping": _metrics(20.0, 30.0, 0.0, 0.0),
        },
    )
    interactions = compute_interactions(config, metrics)
    entry = interactions["no-fec+no-grouping"]
    assert entry["components"] == ["fec", "grouping"]
    assert entry["interaction"]["qoe_score"] == pytest.approx(30.0)
    # normalized by the single-component scale (grouping's 100)
    assert entry["normalized"]["qoe_score"] == pytest.approx(0.3)


def test_interactions_empty_without_pairwise(make_fake_result):
    config = configure(components=("fec", "grouping"))
    _, metrics = make_fake_result(config)
    assert compute_interactions(config, metrics) == {}


def test_report_shape_and_determinism_fields(make_fake_result):
    config = configure(components=("fec", "grouping"), pairwise=True)
    runs, metrics = make_fake_result(config)
    report = build_report(config, runs, metrics)
    assert report["schema"] == REPORT_SCHEMA
    assert report["scenario"] == "session"
    assert report["experiment"] == "ablation_session"
    assert report["components"] == ["fec", "grouping"]
    assert [r["label"] for r in report["runs"]] == [
        "baseline",
        "no-fec",
        "no-grouping",
        "no-fec+no-grouping",
    ]
    assert [r["rank"] for r in report["ranking"]] == [1, 2]
    assert set(report["importance"]) == {"fec", "grouping"}
    assert set(report["interactions"]) == {"no-fec+no-grouping"}
    # nothing nondeterministic leaks into the report
    assert "elapsed" not in str(sorted(report))
    assert "cached" not in report
