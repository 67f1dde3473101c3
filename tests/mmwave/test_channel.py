"""Channel / link-budget tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.mmwave import (
    AccessPoint,
    Channel,
    HumanBody,
    LinkBudget,
    Room,
    fspl_db,
)


def test_fspl_60ghz_at_1m():
    assert fspl_db(1.0) == pytest.approx(68.1, abs=0.2)


def test_fspl_inverse_square():
    assert fspl_db(10.0) - fspl_db(1.0) == pytest.approx(20.0, abs=1e-9)


def test_fspl_clamps_tiny_distance():
    assert fspl_db(0.0) == fspl_db(0.01)


def test_ap_validation():
    with pytest.raises(ValueError):
        AccessPoint(position=np.zeros(2))


def test_ap_steering_angles(ap):
    # Boresight faces +Y; a user straight ahead has zero relative azimuth.
    az, el = ap.steering_to(np.array([4.0, 6.0, 2.0]))
    assert az == pytest.approx(0.0, abs=1e-9)
    assert el == pytest.approx(0.0, abs=1e-9)
    az, el = ap.steering_to(np.array([2.0, 0.3, 2.0]))
    assert az == pytest.approx(np.pi / 2, abs=1e-9)


def test_ap_azimuth_wraps(ap):
    az, _ = ap.direction_to_array_frame(np.array([0.0, -1.0, 0.0]))
    assert -np.pi <= az < np.pi


def test_boresight_user_gets_top_mcs(channel):
    user = np.array([4.0, 3.0, 1.5])
    az, el = channel.ap.steering_to(user)
    w = channel.ap.array.weights_toward(az, el)
    rss = channel.rss_dbm(w, user)
    assert rss > -53.0
    assert channel.mcs(w, user).index == 12
    assert channel.app_rate_mbps(w, user) == pytest.approx(1270.0, rel=0.01)


def test_rss_decreases_with_distance(channel):
    w = channel.ap.array.weights_toward(0.0, 0.0)
    near = channel.rss_dbm(w, np.array([4.0, 2.0, 2.0]))
    far = channel.rss_dbm(w, np.array([4.0, 9.0, 2.0]))
    assert far < near


def test_misaligned_beam_loses_rss(channel):
    user = np.array([4.0, 4.0, 1.5])
    az, el = channel.ap.steering_to(user)
    aligned = channel.rss_dbm(channel.ap.array.weights_toward(az, el), user)
    misaligned = channel.rss_dbm(
        channel.ap.array.weights_toward(az + 0.6, el), user
    )
    assert misaligned < aligned - 6.0


def test_blockage_reduces_rss(channel):
    user = np.array([4.0, 6.0, 1.5])
    az, el = channel.ap.steering_to(user)
    w = channel.ap.array.weights_toward(az, el)
    clear = channel.rss_dbm(w, user)
    body = HumanBody(np.array([4.0, 3.0]))
    blocked = channel.rss_dbm(w, user, bodies=(body,))
    assert blocked < clear - 5.0


def test_implementation_loss_shifts_rss(ap):
    clean = Channel(ap=ap, room=Room())
    lossy = Channel(
        ap=ap, room=Room(), budget=LinkBudget(implementation_loss_db=10.0)
    )
    user = np.array([4.0, 5.0, 1.5])
    w = ap.array.weights_toward(*ap.steering_to(user))
    assert clean.rss_dbm(w, user) - lossy.rss_dbm(w, user) == pytest.approx(
        10.0, abs=0.01
    )


def test_rss_matrix_matches_scalar(channel, small_codebook):
    user = np.array([2.5, 6.0, 1.4])
    W = np.stack([b.weights for b in small_codebook])
    fast = channel.rss_matrix_dbm(W, user)
    slow = np.array([channel.rss_dbm(b.weights, user) for b in small_codebook])
    assert np.allclose(fast, slow, atol=1e-9)


def test_rss_matrix_with_bodies(channel, small_codebook):
    user = np.array([4.0, 7.0, 1.4])
    body = HumanBody(np.array([4.0, 4.0]))
    W = np.stack([b.weights for b in small_codebook])
    fast = channel.rss_matrix_dbm(W, user, bodies=(body,))
    slow = np.array(
        [channel.rss_dbm(b.weights, user, bodies=(body,)) for b in small_codebook]
    )
    assert np.allclose(fast, slow, atol=1e-9)


def test_rss_matrix_rejects_1d(channel):
    with pytest.raises(ValueError):
        channel.rss_matrix_dbm(np.ones(32, dtype=complex), np.array([4.0, 5, 1.5]))


def test_outage_predicate(ap):
    budget = LinkBudget(implementation_loss_db=60.0)
    ch = Channel(ap=ap, room=Room(), budget=budget)
    user = np.array([4.0, 9.0, 1.5])
    w = ap.array.weights_toward(0.0, 0.0)
    assert ch.rss_dbm(w, user) < budget.outage_rss_dbm
    assert ch.phy_rate_mbps(w, user) == 0.0
    assert ch.mcs(w, user) is None


def test_best_path_is_los_in_clear_room(channel):
    user = np.array([4.0, 5.0, 1.5])
    w = channel.ap.array.weights_toward(*channel.ap.steering_to(user))
    budget = channel.budget
    powers = []
    for path in channel.paths_to(user):
        az, el = channel.ap.direction_to_array_frame(path.departure)
        p = (
            budget.tx_power_dbm
            + channel.ap.array.gain_dbi(w, az, el)
            + budget.rx_gain_dbi
            - fspl_db(path.length_m)
            - path.extra_loss_db
            - budget.implementation_loss_db
        )
        powers.append((p, path.kind))
    rss, kind = max(powers)
    assert kind == "los"
    assert rss <= channel.rss_dbm(w, user)  # total includes reflections


def test_multipath_adds_power(channel):
    user = np.array([4.0, 5.0, 1.5])
    w = channel.ap.array.weights_toward(*channel.ap.steering_to(user))
    total = channel.rss_dbm(w, user)
    # Reflections attenuated to nothing leave the LoS path alone.
    los_channel = Channel(
        ap=channel.ap,
        room=channel.room,
        budget=replace(channel.budget, reflection_loss_db=300.0),
    )
    los_only = los_channel.rss_dbm(w, user)
    assert total >= los_only
    assert total < los_only + 3.01  # reflections are weaker than the LoS
