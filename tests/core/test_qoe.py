"""QoE accounting tests."""

import pytest

from repro.core import QoEReport, QoEWeights, UserSessionStats


def stats(uid=0, **kwargs):
    s = UserSessionStats(user_id=uid)
    for k, v in kwargs.items():
        setattr(s, k, v)
    return s


def test_weights_validation():
    with pytest.raises(ValueError):
        QoEWeights(stall_penalty_mbps=-1.0)


def test_empty_stats_defaults():
    s = stats()
    assert s.mean_bitrate_mbps == 0.0
    assert s.mean_fps == 0.0


def test_mean_bitrate_and_fps():
    s = stats(bitrate_samples_mbps=[200.0, 400.0], fps_samples=[30.0, 20.0])
    assert s.mean_bitrate_mbps == pytest.approx(300.0)
    assert s.mean_fps == pytest.approx(25.0)


def test_score_penalizes_stalls_and_switches():
    w = QoEWeights(stall_penalty_mbps=100.0, switch_penalty_mbps=10.0)
    clean = stats(bitrate_samples_mbps=[300.0])
    stally = stats(bitrate_samples_mbps=[300.0], stall_time_s=2.0)
    switchy = stats(bitrate_samples_mbps=[300.0], quality_switches=5)
    assert clean.score(w, 10.0) == pytest.approx(300.0)
    assert stally.score(w, 10.0) == pytest.approx(300.0 - 100.0 * 0.2)
    assert switchy.score(w, 10.0) == pytest.approx(300.0 - 10.0 * 0.5)


def test_score_rejects_bad_length():
    with pytest.raises(ValueError):
        stats().score(QoEWeights(), 0.0)


def test_report_validation():
    with pytest.raises(ValueError):
        QoEReport(users=[], session_length_s=10.0)


def test_report_aggregates():
    users = [
        stats(0, fps_samples=[30.0], bitrate_samples_mbps=[364.0],
              stall_time_s=1.0, quality_switches=2),
        stats(1, fps_samples=[20.0], bitrate_samples_mbps=[235.0]),
    ]
    report = QoEReport(users=users, session_length_s=10.0)
    assert report.mean_fps == pytest.approx(25.0)
    assert report.min_fps == pytest.approx(20.0)
    assert report.mean_bitrate_mbps == pytest.approx((364.0 + 235.0) / 2)
    assert report.total_stall_time_s == pytest.approx(1.0)
    assert report.total_quality_switches == 2


def test_report_summary_keys():
    report = QoEReport(users=[stats()], session_length_s=5.0)
    summary = report.summary()
    for key in (
        "users",
        "mean_fps",
        "min_fps",
        "mean_bitrate_mbps",
        "stall_time_s",
        "quality_switches",
        "qoe_score",
    ):
        assert key in summary


def test_better_session_scores_higher():
    w = QoEWeights()
    good = QoEReport(
        users=[stats(0, bitrate_samples_mbps=[364.0])], session_length_s=10.0,
        weights=w,
    )
    bad = QoEReport(
        users=[stats(0, bitrate_samples_mbps=[235.0], stall_time_s=3.0)],
        session_length_s=10.0,
        weights=w,
    )
    assert good.mean_score() > bad.mean_score()
