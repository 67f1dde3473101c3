"""Multi-lobe beam synthesis tests — the paper's §4.2 core mechanism."""

import numpy as np
import pytest

from repro.mmwave import (
    best_common_beam,
    best_unicast_beam,
    combine_weights,
    multicast_common_rss_dbm,
)


def test_combine_weights_paper_formula_two_users():
    """For two users the coefficients must be (d2, d1)/(d1+d2), renormalized."""
    w1 = np.array([1.0 + 0j, 0.0])
    w2 = np.array([0.0, 1.0 + 0j])
    rss1, rss2 = -60.0, -50.0  # user 1 is 10 dB weaker
    combined = combine_weights([w1, w2], [rss1, rss2])
    d1, d2 = 10 ** (rss1 / 10), 10 ** (rss2 / 10)
    expected = d2 * w1 + d1 * w2
    expected = expected / np.linalg.norm(expected)
    assert np.allclose(combined, expected)
    # The weaker user's beam gets the larger coefficient.
    assert abs(combined[0]) > abs(combined[1])


def test_combine_weights_unit_power():
    rng = np.random.default_rng(0)
    ws = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(3)]
    combined = combine_weights(ws, [-60.0, -55.0, -50.0])
    assert np.vdot(combined, combined).real == pytest.approx(1.0)


def test_combine_weights_single_user_passthrough():
    w = np.array([1.0, 1j]) / np.sqrt(2)
    out = combine_weights([w], [-50.0])
    assert np.allclose(out, w)


def test_combine_weights_validation():
    w = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        combine_weights([], [])
    with pytest.raises(ValueError):
        combine_weights([w], [-50.0, -60.0])
    with pytest.raises(ValueError):
        combine_weights([w, w], [-50.0, float("inf")])
    with pytest.raises(ValueError):
        combine_weights([w, -w], [-50.0, -50.0])  # degenerate opposition


def test_combine_weights_three_user_generalization():
    """k=2 formula must be recovered when the third user duplicates one."""
    w1 = np.array([1.0 + 0j, 0.0, 0.0])
    w2 = np.array([0.0, 1.0 + 0j, 0.0])
    combined2 = combine_weights([w1, w2], [-60.0, -50.0])
    w3 = np.array([0.0, 0.0, 1.0 + 0j])
    combined3 = combine_weights([w1, w2, w3], [-60.0, -50.0, -55.0])
    assert np.vdot(combined3, combined3).real == pytest.approx(1.0)
    # Weakest user (1) should hold the largest share.
    assert abs(combined3[0]) >= abs(combined3[1])
    assert np.allclose(np.abs(combined2[:2]) > 0, [True, True])


def test_best_unicast_beam_points_at_user(channel, ideal_small_codebook):
    user = np.array([4.0, 5.0, 1.5])
    beam, rss = best_unicast_beam(channel, ideal_small_codebook, user)
    az, _ = channel.ap.steering_to(user)
    assert abs(beam.steer_az - az) < np.deg2rad(10)
    assert rss > -60


def test_best_common_beam_beats_no_beam(channel, ideal_small_codebook):
    u1 = np.array([2.0, 5.0, 1.5])
    u2 = np.array([6.0, 5.0, 1.5])
    beam, common = best_common_beam(channel, ideal_small_codebook, [u1, u2])
    per_user = [
        channel.rss_dbm(beam.weights, u1),
        channel.rss_dbm(beam.weights, u2),
    ]
    assert common == pytest.approx(min(per_user))


def test_best_common_beam_single_user_equals_unicast(channel, ideal_small_codebook):
    u = np.array([3.0, 6.0, 1.5])
    cb_beam, cb_rss = best_common_beam(channel, ideal_small_codebook, [u])
    uni_beam, uni_rss = best_unicast_beam(channel, ideal_small_codebook, u)
    assert cb_rss == pytest.approx(uni_rss)
    assert cb_beam.beam_id == uni_beam.beam_id


def test_best_common_beam_rejects_empty(channel, ideal_small_codebook):
    with pytest.raises(ValueError):
        best_common_beam(channel, ideal_small_codebook, [])


def test_design_uses_default_for_single_user(channel, ideal_small_codebook):
    """One member: both candidates are that member's best unicast beam."""
    u = np.array([4.0, 5.0, 1.5])
    default, custom = multicast_common_rss_dbm(channel, ideal_small_codebook, [u])
    _, unicast = best_unicast_beam(channel, ideal_small_codebook, u)
    assert default == unicast
    assert custom == pytest.approx(default)


def test_design_multilobe_wins_for_separated_users(channel, ideal_small_codebook):
    """The paper's headline: separated users need the multi-lobe beam."""
    u1 = np.array([1.2, 4.0, 1.5])
    u2 = np.array([6.8, 4.5, 1.5])
    default, custom = multicast_common_rss_dbm(
        channel, ideal_small_codebook, [u1, u2]
    )
    _, default_common = best_common_beam(channel, ideal_small_codebook, [u1, u2])
    assert default == default_common
    assert custom > default


def test_design_keeps_default_when_coverage_is_high(channel, ideal_small_codebook):
    """Co-located users: the multi-lobe beam cannot beat the default one."""
    u1 = np.array([4.0, 5.0, 1.5])
    u2 = np.array([4.2, 5.1, 1.5])
    default, custom = multicast_common_rss_dbm(
        channel, ideal_small_codebook, [u1, u2]
    )
    assert custom <= default + 1e-9
    assert max(default, custom) == pytest.approx(default)


def test_design_common_rss_is_group_min(channel, ideal_small_codebook):
    u1 = np.array([2.0, 5.0, 1.5])
    u2 = np.array([6.0, 6.0, 1.5])
    default, custom = multicast_common_rss_dbm(
        channel, ideal_small_codebook, [u1, u2]
    )
    beam, _ = best_common_beam(channel, ideal_small_codebook, [u1, u2])
    assert default == pytest.approx(
        min(channel.rss_dbm(beam.weights, u) for u in (u1, u2))
    )
    best = [best_unicast_beam(channel, ideal_small_codebook, u) for u in (u1, u2)]
    combined = combine_weights([b.weights for b, _ in best], [r for _, r in best])
    assert custom == pytest.approx(
        min(channel.rss_dbm(combined, u) for u in (u1, u2))
    )
