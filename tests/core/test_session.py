"""Streaming session simulator tests."""

import numpy as np
import pytest

from repro.core import (
    CapacityRateProvider,
    FixedQualityPolicy,
    SessionConfig,
    StreamingSession,
    ThroughputPolicy,
    measure_max_fps,
)
from repro.mac import AC_MODEL, AD_MODEL
from repro.pointcloud import VisibilityConfig


def config_for(video, study, model=AD_MODEL, **kwargs):
    defaults = dict(
        video=video,
        study=study,
        rates=CapacityRateProvider(model=model, num_users=len(study)),
        visibility=VisibilityConfig.vanilla(),
        grouping="none",
        adaptation=FixedQualityPolicy("high"),
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def test_config_validation(small_video, small_study):
    with pytest.raises(ValueError):
        config_for(small_video, small_study, grouping="magic")
    with pytest.raises(ValueError):
        config_for(small_video, small_study, target_fps=0.0)
    with pytest.raises(ValueError):
        config_for(small_video, small_study, startup_frames=0)


def test_session_length_defaults_to_study(small_video, small_study):
    cfg = config_for(small_video, small_study)
    assert cfg.session_length_s == pytest.approx(4.0)
    assert cfg.num_frames == 120


def test_measure_max_fps_unconstrained(small_video, small_study):
    """Few users on 802.11ad: full 30 FPS (Table 1's top rows)."""
    study2 = small_study
    cfg = config_for(small_video, study2)
    # 6 users vanilla high on ad: paper says 13.2 FPS — constrained.
    fps = measure_max_fps(cfg, num_frames=15, stride=3)
    assert np.all(fps > 5.0)
    assert np.all(fps <= 30.0)


def test_measure_max_fps_matches_capacity_model(small_video, small_study):
    """Vanilla FPS must track the analytic capacity model closely."""
    cfg = config_for(small_video, small_study)
    measured = float(np.mean(measure_max_fps(cfg, num_frames=15, stride=3)))
    analytic = AD_MODEL.max_fps(len(small_study), 364.0)
    assert measured == pytest.approx(analytic, rel=0.08)


def test_vivo_beats_vanilla(small_video, small_study):
    vanilla = config_for(small_video, small_study)
    vivo = config_for(
        small_video, small_study, visibility=VisibilityConfig()
    )
    f_vanilla = float(np.mean(measure_max_fps(vanilla, num_frames=15, stride=3)))
    f_vivo = float(np.mean(measure_max_fps(vivo, num_frames=15, stride=3)))
    assert f_vivo > f_vanilla


def test_ac_slower_than_ad(small_video, small_study):
    ad = config_for(small_video, small_study, model=AD_MODEL)
    ac = config_for(small_video, small_study, model=AC_MODEL)
    f_ad = float(np.mean(measure_max_fps(ad, num_frames=9, stride=3)))
    f_ac = float(np.mean(measure_max_fps(ac, num_frames=9, stride=3)))
    assert f_ac < f_ad


def test_session_runs_and_reports(small_video, small_study):
    cfg = config_for(small_video, small_study, visibility=VisibilityConfig())
    report = StreamingSession(cfg).run()
    assert len(report.users) == len(small_study)
    summary = report.summary()
    assert summary["mean_fps"] > 0
    for user in report.users:
        assert user.frames_played > 0


def test_unconstrained_session_has_no_stalls(small_video):
    """2 users on 802.11ad with ViVo must stream stall-free."""
    from repro.traces import generate_user_study

    study = generate_user_study(num_users=2, duration_s=4.0, seed=11)
    cfg = config_for(small_video, study, visibility=VisibilityConfig())
    report = StreamingSession(cfg).run()
    assert report.total_stall_time_s == 0.0
    assert report.mean_fps > 25.0


def test_constrained_session_stalls_or_drops_fps(small_video):
    """8 vanilla users over 802.11ac cannot keep up."""
    from repro.traces import generate_user_study

    study = generate_user_study(num_users=8, duration_s=4.0, seed=11)
    cfg = config_for(small_video, study, model=AC_MODEL)
    report = StreamingSession(cfg).run()
    assert report.total_stall_time_s > 0.5 or report.mean_fps < 15.0


def test_adaptive_session_switches_quality(small_video):
    from repro.traces import generate_user_study

    study = generate_user_study(num_users=6, duration_s=4.0, seed=11)
    cfg = config_for(
        small_video,
        study,
        adaptation=ThroughputPolicy(),
        visibility=VisibilityConfig(),
    )
    report = StreamingSession(cfg).run()
    # The policy starts conservative and ramps up -> at least one switch.
    assert report.total_quality_switches >= 1
    # Adaptation should avoid heavy stalling.
    fixed = config_for(small_video, study, visibility=VisibilityConfig())
    fixed_report = StreamingSession(fixed).run()
    assert report.total_stall_time_s <= fixed_report.total_stall_time_s + 0.5


def test_multicast_grouping_in_session(small_video, small_study):
    cfg_uni = config_for(
        small_video, small_study, visibility=VisibilityConfig()
    )
    cfg_multi = config_for(
        small_video,
        small_study,
        visibility=VisibilityConfig(),
        grouping="greedy",
        rates=CapacityRateProvider(model=AD_MODEL, num_users=len(small_study)),
    )
    f_uni = float(np.mean(measure_max_fps(cfg_uni, num_frames=12, stride=3)))
    f_multi = float(np.mean(measure_max_fps(cfg_multi, num_frames=12, stride=3)))
    assert f_multi >= f_uni - 1e-9


def test_deterministic_sessions(small_video, small_study):
    cfg1 = config_for(small_video, small_study, visibility=VisibilityConfig())
    cfg2 = config_for(small_video, small_study, visibility=VisibilityConfig())
    r1 = StreamingSession(cfg1).run().summary()
    r2 = StreamingSession(cfg2).run().summary()
    assert r1 == r2


def test_beam_switch_overhead_lowers_fps(small_video, small_study):
    base = config_for(small_video, small_study)
    slow = config_for(small_video, small_study, beam_switch_overhead_s=0.003)
    f_base = float(np.mean(measure_max_fps(base, num_frames=9, stride=3)))
    f_slow = float(np.mean(measure_max_fps(slow, num_frames=9, stride=3)))
    assert f_slow < f_base


def test_octree_partitioner_session(small_video, small_study):
    """The session runs unchanged on adaptive octree leaves."""
    cfg = config_for(
        small_video,
        small_study,
        visibility=VisibilityConfig(),
        partitioner="octree",
    )
    report = StreamingSession(cfg).run()
    assert report.mean_fps > 10.0
    assert all(u.frames_played > 0 for u in report.users)


def test_octree_and_grid_similar_fps(small_video, small_study):
    """Partitioner choice must not change the big FPS picture."""
    grid_cfg = config_for(small_video, small_study, visibility=VisibilityConfig())
    oct_cfg = config_for(
        small_video, small_study, visibility=VisibilityConfig(),
        partitioner="octree",
    )
    f_grid = float(np.mean(measure_max_fps(grid_cfg, num_frames=9, stride=3)))
    f_oct = float(np.mean(measure_max_fps(oct_cfg, num_frames=9, stride=3)))
    assert abs(f_grid - f_oct) < 8.0


def test_unknown_partitioner_rejected(small_video, small_study):
    with pytest.raises(ValueError):
        config_for(small_video, small_study, partitioner="voxhash")


def test_server_skips_outage_users(small_video):
    """A user in permanent outage must not block the others' streams."""
    from repro.traces import generate_user_study

    study = generate_user_study(num_users=3, duration_s=3.0, seed=11)

    class OutageRates:
        def unicast_rate_mbps(self, user_index, sample_index):
            return 0.0 if user_index == 1 else 1200.0

        def multicast_rate_mbps(self, members, sample_index):
            return 0.0 if 1 in members else 1200.0

        def rss_dbm(self, user_index, sample_index):
            return None

    cfg = config_for(
        small_video, study, visibility=VisibilityConfig(), rates=OutageRates()
    )
    report = StreamingSession(cfg).run()
    # Healthy users stream; the dead-link user plays nothing.
    assert report.users[0].frames_played > 30
    assert report.users[2].frames_played > 30
    assert report.users[1].frames_played == 0
    assert report.users[1].stall_time_s == 0.0  # never started playing


def test_session_time_always_advances_on_empty_demands(small_video):
    """Zero-byte frames must not freeze the event loop (regression)."""
    from repro.traces import generate_user_study

    study = generate_user_study(num_users=2, duration_s=2.0, seed=11)

    class EmptyDemandPredictor:
        def predict(self, history, horizon_s):
            # Always look straight up: nothing visible, empty demands.
            from repro.geometry import Quaternion
            from repro.traces import Pose

            last = history.pose(len(history) - 1)
            return Pose(
                t=last.t + horizon_s,
                position=last.position,
                orientation=Quaternion.from_euler(0.0, -1.5, 0.0),
            )

    cfg = config_for(
        small_video,
        study,
        visibility=VisibilityConfig(),
        predictor=EmptyDemandPredictor(),
    )
    report = StreamingSession(cfg).run()  # must terminate
    assert report.session_length_s == pytest.approx(2.0)


def test_ideal_transport_reproduces_default_exactly(small_video, small_study):
    """TransportConfig(mode="ideal") must be bit-for-bit the old fluid path."""
    from repro.net import TransportConfig

    base = config_for(small_video, small_study)
    explicit = config_for(
        small_video, small_study, transport=TransportConfig.ideal()
    )
    fps_a = measure_max_fps(base, num_frames=12, stride=3)
    fps_b = measure_max_fps(explicit, num_frames=12, stride=3)
    assert np.array_equal(fps_a, fps_b)

    report_a = StreamingSession(base).run()
    report_b = StreamingSession(explicit).run()
    assert report_a.summary() == report_b.summary()


def test_clean_packet_transport_close_to_ideal(small_video):
    """Lossless packet-level delivery only pays the header/feedback tax.

    Uses an unconstrained load (2 users): once the fluid airtime exceeds
    the frame interval, the packet model's hard deadline legitimately
    fails frames the fluid model merely slows down, so the comparison is
    only apples-to-apples when frames fit their deadline.
    """
    from repro.net import TransportConfig
    from repro.traces import generate_user_study

    study = generate_user_study(num_users=2, duration_s=4.0, seed=11)
    ideal = config_for(small_video, study)
    packet = config_for(
        small_video, study, transport=TransportConfig.hybrid(base_per=0.0)
    )
    fps_ideal = float(np.mean(measure_max_fps(ideal, num_frames=12, stride=3)))
    fps_packet = float(np.mean(measure_max_fps(packet, num_frames=12, stride=3)))
    assert fps_packet <= fps_ideal + 1e-9
    assert fps_packet > 0.85 * fps_ideal


def test_lossy_transport_degrades_session(small_video, small_study):
    """Heavy packet loss must cost throughput in a full session run."""
    from repro.net import TransportConfig

    clean = config_for(
        small_video, small_study, transport=TransportConfig.hybrid(base_per=0.0)
    )
    lossy = config_for(
        small_video, small_study, transport=TransportConfig.hybrid(base_per=0.3)
    )
    report_clean = StreamingSession(clean).run()
    report_lossy = StreamingSession(lossy).run()
    assert report_lossy.mean_fps < report_clean.mean_fps
    assert (
        report_lossy.total_stall_time_s >= report_clean.total_stall_time_s
    )


def test_lossy_transport_session_is_deterministic(small_video, small_study):
    from repro.net import TransportConfig

    cfg = dict(transport=TransportConfig.hybrid(base_per=0.1))
    a = StreamingSession(config_for(small_video, small_study, **cfg)).run()
    b = StreamingSession(config_for(small_video, small_study, **cfg)).run()
    assert a.summary() == b.summary()


# -- frame-batched demands and the cross-session occupancy memo -------------


def _per_user_demand(builder, user, frame, quality, now_s, rate):
    """One user's demand through the single-viewer visibility path."""
    from repro.pointcloud import QUALITIES, compute_visibility

    config = builder.config
    vis = compute_visibility(
        builder.occupancy(frame),
        builder.pose_for(user, frame, now_s).frustum(),
        config.visibility,
    )
    level = QUALITIES[quality]
    scale = level.points_per_frame / config.video.quality.points_per_frame
    return {
        int(c): config.compression.cell_bytes(f * n * scale, level.points_per_frame)
        for c, f, n in zip(vis.cell_ids, vis.fractions, vis.nominal_counts)
    }


@pytest.mark.parametrize("partitioner", ["grid", "octree"])
def test_batched_demands_match_per_user_visibility(
    small_video, small_study, partitioner
):
    cfg = config_for(
        small_video, small_study, visibility=VisibilityConfig(),
        partitioner=partitioner,
    )
    builder = StreamingSession(cfg).builder
    users = [4, 0, 2, 5]
    qualities = ["high", "low", "medium", "high"]
    rates = [300.0, 400.0, 500.0, 600.0]
    for frame in (0, 7, 29, 45):
        demands = builder.demands(users, frame, qualities, 0.1, rates)
        assert [d.user_id for d in demands] == users
        for d, u, q, r in zip(demands, users, qualities, rates):
            assert d.unicast_rate_mbps == r
            assert d.cell_bytes == _per_user_demand(builder, u, frame, q, 0.1, r)
    assert builder.demands([], 0, [], 0.0, []) == []


def test_sessions_over_one_video_share_frame_occupancy(small_video, small_study):
    a = StreamingSession(config_for(small_video, small_study)).builder
    b = StreamingSession(config_for(small_video, small_study)).builder
    for frame in (0, 13):
        assert a.occupancy(frame) is b.occupancy(frame)
    finer = StreamingSession(
        config_for(small_video, small_study, cell_size=0.25)
    ).builder
    assert finer.occupancy(0) is not a.occupancy(0)
    assert finer.occupancy(0).grid.cell_size == 0.25


def test_octree_occupancy_stays_per_session(small_video, small_study):
    from repro.pointcloud import OctreeOccupancy

    a = StreamingSession(
        config_for(small_video, small_study, partitioner="octree")
    ).builder
    b = StreamingSession(
        config_for(small_video, small_study, partitioner="octree")
    ).builder
    occ_a, occ_b = a.occupancy(3), b.occupancy(3)
    assert isinstance(occ_a, OctreeOccupancy)
    assert occ_a is not occ_b
    assert np.array_equal(occ_a.cell_ids, occ_b.cell_ids)
    assert all(
        not isinstance(o, OctreeOccupancy)
        for o in small_video[3]._occupancies.values()
    )


def test_cold_and_warm_sessions_report_identically(small_study):
    from repro.pointcloud import synthesize_video

    video = synthesize_video("high", num_frames=20, points_per_frame=2000, seed=23)
    assert not video[0]._occupancies  # a fresh video: the memo starts cold

    def run():
        cfg = config_for(
            video, small_study, visibility=VisibilityConfig(),
            grouping="greedy", adaptation=ThroughputPolicy(), duration_s=2.0,
        )
        report = StreamingSession(cfg).run()
        return report.summary(), [
            (u.frames_played, u.stall_time_s, u.quality_switches)
            for u in report.users
        ]

    cold = run()
    assert video[0]._occupancies  # filled by the first session
    assert run() == cold


def test_lossy_greedy_session_is_unchanged_and_reads_its_length_once(
    monkeypatch,
):
    """Pinned from the per-viewer implementation this batched path replaced.

    The session reads ``num_frames``/``session_length_s`` once at start-up
    instead of on every process step; the outcome must not move.
    """
    from repro.core import CrossLayerPolicy
    from repro.net import TransportConfig
    from repro.pointcloud import synthesize_video
    from repro.traces import generate_user_study

    reads = {"num_frames": 0, "session_length_s": 0}
    for name in reads:
        original = getattr(SessionConfig, name)

        def counted(self, _name=name, _original=original):
            reads[_name] += 1
            return _original.fget(self)

        monkeypatch.setattr(SessionConfig, name, property(counted))

    video = synthesize_video("high", num_frames=30, points_per_frame=3000, seed=11)
    study = generate_user_study(num_users=5, duration_s=3.0, seed=11)
    cfg = config_for(
        video, study, model=AC_MODEL, visibility=VisibilityConfig(),
        grouping="greedy", adaptation=CrossLayerPolicy(),
        transport=TransportConfig(mode="hybrid", seed=3).with_base_per(0.1),
    )
    report = StreamingSession(cfg).run()
    assert reads == {"num_frames": 1, "session_length_s": 2}
    assert report.summary() == {
        "users": 5.0, "mean_fps": 19.0, "min_fps": 19.0,
        "mean_bitrate_mbps": 235.0, "stall_time_s": 5.1,
        "quality_switches": 0.0, "qoe_score": 65.00000000000003,
    }
    assert [
        (u.frames_played, u.frames_on_time, u.stall_count, u.stall_time_s,
         u.quality_switches, tuple(u.fps_samples))
        for u in report.users
    ] == [
        (56, 26, 31, 1.0333333333333332, 0, (20, 18)),
        (56, 26, 31, 1.0333333333333332, 0, (20, 18)),
        (56, 26, 30, 1.0333333333333332, 0, (20, 18)),
        (56, 25, 30, 0.9999999999999999, 0, (20, 18)),
        (56, 25, 30, 0.9999999999999999, 0, (20, 18)),
    ]
