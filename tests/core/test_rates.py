"""Rate provider tests."""

import numpy as np
import pytest

from repro.core import CapacityRateProvider, ChannelRateProvider
from repro.mac import AD_MODEL, RecoveryPolicy, apply_recovery
from repro.mmwave import compute_blockage_timeline


def test_capacity_validation():
    with pytest.raises(ValueError):
        CapacityRateProvider(model=AD_MODEL, num_users=0)
    with pytest.raises(ValueError):
        CapacityRateProvider(model=AD_MODEL, num_users=2, multicast_rate_fraction=0.0)


def test_capacity_unicast_rate_is_aggregate():
    p = CapacityRateProvider(model=AD_MODEL, num_users=3)
    # When the AP serves one user it achieves the 3-user aggregate.
    expected = AD_MODEL.aggregate_mbps(3) * 0.95
    assert p.unicast_rate_mbps(0, 0) == pytest.approx(expected)
    # All users and times identical without a timeline.
    assert p.unicast_rate_mbps(2, 99) == pytest.approx(expected)


def test_capacity_rate_serialization_consistency():
    """Serializing N transfers at the aggregate rate reproduces Table 1's
    per-user rates."""
    n = 5
    p = CapacityRateProvider(model=AD_MODEL, num_users=n, goodput_efficiency=1.0)
    agg = p.unicast_rate_mbps(0, 0)
    per_user_implied = agg / n
    assert per_user_implied == pytest.approx(AD_MODEL.per_user_mbps(n), rel=1e-9)


def test_capacity_multicast_fraction():
    p = CapacityRateProvider(
        model=AD_MODEL, num_users=2, multicast_rate_fraction=0.8
    )
    assert p.multicast_rate_mbps((0, 1), 0) == pytest.approx(
        p.unicast_rate_mbps(0, 0) * 0.8
    )
    with pytest.raises(ValueError):
        p.multicast_rate_mbps((), 0)


def test_capacity_timeline_multiplier(room_study):
    timeline = compute_blockage_timeline(room_study, np.array([4.0, 0.3, 2.0]))
    recovered = apply_recovery(timeline, RecoveryPolicy.reactive(), seed=0)
    p = CapacityRateProvider(
        model=AD_MODEL, num_users=len(room_study), timeline=recovered
    )
    base = AD_MODEL.aggregate_mbps(len(room_study)) * 0.95
    for u in range(len(room_study)):
        for s in (0, 50, room_study.num_samples - 1):
            rate = p.unicast_rate_mbps(u, s)
            assert rate == pytest.approx(
                base * recovered.multiplier[u, s], rel=1e-9
            )


def test_capacity_multicast_takes_worst_member(room_study):
    timeline = compute_blockage_timeline(room_study, np.array([4.0, 0.3, 2.0]))
    recovered = apply_recovery(timeline, RecoveryPolicy.reactive(), seed=0)
    p = CapacityRateProvider(
        model=AD_MODEL, num_users=len(room_study), timeline=recovered
    )
    s = 50
    members = (0, 1, 2)
    worst = min(recovered.multiplier[u, s] for u in members)
    base = AD_MODEL.aggregate_mbps(len(room_study)) * 0.95
    assert p.multicast_rate_mbps(members, s) == pytest.approx(base * worst)


def test_capacity_no_rss_hint():
    p = CapacityRateProvider(model=AD_MODEL, num_users=2)
    assert p.rss_dbm(0, 0) is None


def test_capacity_timeline_sample_clamped(room_study):
    timeline = compute_blockage_timeline(room_study, np.array([4.0, 0.3, 2.0]))
    recovered = apply_recovery(timeline, RecoveryPolicy.reactive(), seed=0)
    p = CapacityRateProvider(
        model=AD_MODEL, num_users=len(room_study), timeline=recovered
    )
    assert p.unicast_rate_mbps(0, 10**9) > 0  # clamps, no IndexError


@pytest.fixture(scope="module")
def channel_rates(room_study):
    import numpy as np

    from repro.mmwave import AccessPoint, Channel, Codebook, Room

    ap = AccessPoint(position=np.array([4.0, 0.3, 2.0]), boresight_az=np.pi / 2)
    channel = Channel(ap=ap, room=Room(8.0, 10.0, 3.0))
    codebook = Codebook(ap.array, num_az=16, elevations=(0.0,))
    return ChannelRateProvider(
        channel=channel, codebook=codebook, study=room_study
    )


def test_channel_unicast_rates_positive(channel_rates, room_study):
    # Heavy multi-body blockage can legitimately put a user in outage
    # (rate 0), but most users at most instants must have a live link.
    rates = [
        channel_rates.unicast_rate_mbps(u, s)
        for u in range(len(room_study))
        for s in (10, 30, 60)
    ]
    assert all(0.0 <= r <= 4620.0 * 0.275 * 0.95 + 1e-6 for r in rates)
    live = sum(1 for r in rates if r > 0)
    assert live >= 0.7 * len(rates)


def test_channel_rss_hint_available(channel_rates):
    rss = channel_rates.rss_dbm(0, 30)
    assert rss is not None
    assert -80.0 < rss < -30.0


def test_channel_multicast_at_most_best_unicast(channel_rates):
    members = (0, 1)
    multicast = channel_rates.multicast_rate_mbps(members, 30)
    best_unicast = max(
        channel_rates.unicast_rate_mbps(u, 30) for u in members
    )
    assert multicast <= best_unicast + 1e-6


def test_channel_multicast_single_member_is_unicast(channel_rates):
    assert channel_rates.multicast_rate_mbps((1,), 30) == pytest.approx(
        channel_rates.unicast_rate_mbps(1, 30)
    )


def test_channel_custom_beams_never_hurt(room_study):
    """The multicast rate is at least the best common codebook beam's rate."""
    from repro.mmwave import (
        AccessPoint,
        Channel,
        Codebook,
        Room,
        app_rate_mbps,
        bodies_from_positions,
    )

    ap = AccessPoint(position=np.array([4.0, 0.3, 2.0]), boresight_az=np.pi / 2)
    channel = Channel(ap=ap, room=Room(8.0, 10.0, 3.0))
    codebook = Codebook(ap.array, num_az=16, elevations=(0.0,))
    rates = ChannelRateProvider(channel=channel, codebook=codebook, study=room_study)
    members = (0, 2)
    for s in (0, 40, 80):
        everyone = room_study.positions_at(s)
        per_user = np.stack(
            [
                channel.rss_matrix_dbm(
                    codebook.weight_matrix,
                    everyone[u],
                    bodies_from_positions(everyone, exclude=u),
                )
                for u in members
            ]
        )
        default = float(per_user.min(axis=0).max())
        floor = app_rate_mbps(default) * rates.goodput_efficiency
        assert rates.multicast_rate_mbps(members, s) >= floor - 1e-9


def test_channel_caching_is_consistent(channel_rates):
    a = channel_rates.unicast_rate_mbps(0, 30)
    b = channel_rates.unicast_rate_mbps(0, 30)
    assert a == b
    m1 = channel_rates.multicast_rate_mbps((0, 1), 30)
    m2 = channel_rates.multicast_rate_mbps((1, 0), 30)
    assert m1 == m2  # member order must not matter
