"""Synthetic user-study tests."""

import numpy as np
import pytest

from repro.traces import Device, UserStudy, generate_user_study


def test_default_study_composition():
    study = generate_user_study(num_users=8, duration_s=1.0)
    assert len(study) == 8
    assert len(study.by_device(Device.HEADSET)) == 4
    assert len(study.by_device(Device.PHONE)) == 4


def test_32_user_default_split():
    study = generate_user_study(num_users=32, duration_s=0.5)
    assert len(study.by_device(Device.HEADSET)) == 16
    assert len(study.by_device(Device.PHONE)) == 16


def test_rejects_zero_users():
    with pytest.raises(ValueError):
        generate_user_study(num_users=0)


def test_all_traces_aligned():
    study = generate_user_study(num_users=4, duration_s=2.0)
    assert study.num_samples == 60
    assert study.rate_hz == pytest.approx(30.0)
    for tr in study.traces:
        assert len(tr) == 60


def test_study_rejects_mismatched_traces():
    study = generate_user_study(num_users=2, duration_s=1.0)
    short = study.traces[0].window(10, 5)
    with pytest.raises(ValueError):
        UserStudy(traces=[study.traces[1], short])


def test_user_lookup():
    study = generate_user_study(num_users=4, duration_s=1.0)
    assert study.user(2).user_id == 2
    with pytest.raises(KeyError):
        study.user(99)


def test_positions_at():
    study = generate_user_study(num_users=5, duration_s=1.0)
    pos = study.positions_at(10)
    assert pos.shape == (5, 3)
    assert np.allclose(pos[3], study.traces[3].positions[10])


def test_determinism():
    a = generate_user_study(num_users=4, duration_s=1.0, seed=3)
    b = generate_user_study(num_users=4, duration_s=1.0, seed=3)
    for ta, tb in zip(a.traces, b.traces):
        assert np.allclose(ta.positions, tb.positions)


def test_seed_changes_traces():
    a = generate_user_study(num_users=4, duration_s=1.0, seed=3)
    b = generate_user_study(num_users=4, duration_s=1.0, seed=4)
    assert not np.allclose(a.traces[0].positions, b.traces[0].positions)


def test_anchor_mixture_creates_both_regimes():
    """Most users start near the front; at least one starts on a side."""
    study = generate_user_study(num_users=16, duration_s=1.0, seed=7)
    azimuths = []
    for tr in study.traces:
        p = tr.positions[0]
        azimuths.append(abs(np.arctan2(p[1], p[0])))
    azimuths = np.array(azimuths)
    assert np.sum(azimuths < 0.8) >= 6  # front cluster
    assert np.sum(azimuths > 1.2) >= 2  # side/back starters


def test_content_center_propagates():
    center = np.array([4.0, 5.0, 0.0])
    study = generate_user_study(
        num_users=4, duration_s=1.0, content_center=center
    )
    mean_pos = np.mean([t.positions.mean(axis=0) for t in study.traces], axis=0)
    assert np.linalg.norm(mean_pos[:2] - center[:2]) < 2.0


@pytest.mark.parametrize(
    "duration_s,rate_hz,name",
    [
        (1.0, 0.0, "rate_hz"),
        (float("nan"), 30.0, "duration_s"),
        (float("inf"), 30.0, "duration_s"),
        (0.0, 30.0, "duration_s"),
        (1.0, float("nan"), "rate_hz"),
    ],
)
def test_study_names_bad_sampling_argument(duration_s, rate_hz, name):
    with pytest.raises(ValueError, match=name):
        generate_user_study(num_users=2, duration_s=duration_s, rate_hz=rate_hz)
