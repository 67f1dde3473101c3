"""Recovery-policy / link-rate-timeline tests."""

import numpy as np
import pytest

from repro.mac import RecoveryPolicy, apply_recovery
from repro.mmwave import BlockageTimeline
from repro.obs import trace


def timeline_with_event(start=10, end=40, n=90, users=1):
    blocked = np.zeros((users, n), dtype=bool)
    blocked[:, start:end] = True
    return BlockageTimeline(blocked=blocked, rate_hz=30.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(proactive=True, reflection_rate_fraction=1.5)
    with pytest.raises(ValueError):
        RecoveryPolicy(proactive=True, prediction_recall=-0.1)


def test_no_blockage_full_rate():
    tl = BlockageTimeline(blocked=np.zeros((2, 50), dtype=bool), rate_hz=30.0)
    out = apply_recovery(tl, RecoveryPolicy.reactive())
    assert np.all(out.multiplier == 1.0)
    assert out.outage_fraction(0) == 0.0


def test_reactive_has_outage_then_reflection():
    tl = timeline_with_event()
    out = apply_recovery(tl, RecoveryPolicy.reactive(), seed=1)
    row = out.multiplier[0]
    # Outage at the onset.
    assert row[10] == 0.0
    # Reflection rate later in the event.
    assert row[35] == pytest.approx(0.55)
    # Full rate outside.
    assert row[5] == 1.0
    assert row[50] == 1.0
    assert out.outage_fraction(0) > 0.0


def test_reactive_outage_duration_matches_recovery_latency():
    tl = timeline_with_event(start=10, end=70, n=100)
    out = apply_recovery(tl, RecoveryPolicy.reactive(), seed=2)
    outage_samples = int(np.sum(out.multiplier[0] == 0.0))
    # Detection (80 ms) + sector re-search (5-20 ms) at 30 Hz: 3-4 samples.
    assert 3 <= outage_samples <= 4


def test_zero_detection_delay_outage_is_search_only():
    tl = timeline_with_event(start=10, end=70, n=100)
    policy = RecoveryPolicy(proactive=False, detection_delay_s=0.0)
    out = apply_recovery(tl, policy, seed=2)
    outage_samples = int(np.sum(out.multiplier[0] == 0.0))
    # 5-20 ms alone at 30 Hz is at most one sample.
    assert outage_samples == 1


def test_proactive_with_perfect_recall_never_outages():
    tl = timeline_with_event()
    policy = RecoveryPolicy(proactive=True, prediction_recall=1.0)
    out = apply_recovery(tl, policy, seed=0)
    assert out.outage_fraction(0) == 0.0
    assert out.multiplier[0, 10] == pytest.approx(policy.reflection_rate_fraction)


def test_proactive_with_zero_recall_degrades_to_reactive():
    tl = timeline_with_event()
    proactive_blind = RecoveryPolicy(proactive=True, prediction_recall=0.0)
    out = apply_recovery(tl, proactive_blind, seed=3)
    assert out.outage_fraction(0) > 0.0


def test_proactive_mean_rate_at_least_reactive():
    tl = timeline_with_event(start=5, end=80, n=120)
    reactive = apply_recovery(tl, RecoveryPolicy.reactive(), seed=4)
    proactive = apply_recovery(
        tl, RecoveryPolicy(proactive=True, prediction_recall=1.0), seed=4
    )
    assert proactive.mean_rate_fraction(0) >= reactive.mean_rate_fraction(0)


def test_determinism_via_seed():
    tl = timeline_with_event()
    a = apply_recovery(tl, RecoveryPolicy.proactive_default(), seed=9)
    b = apply_recovery(tl, RecoveryPolicy.proactive_default(), seed=9)
    assert np.allclose(a.multiplier, b.multiplier)


def test_multi_user_independent_events():
    blocked = np.zeros((2, 60), dtype=bool)
    blocked[0, 10:20] = True
    tl = BlockageTimeline(blocked=blocked, rate_hz=30.0)
    out = apply_recovery(tl, RecoveryPolicy.reactive(), seed=0)
    assert np.all(out.multiplier[1] == 1.0)
    assert np.any(out.multiplier[0] < 1.0)


def test_recorded_recovery_carries_the_blockage_onset_time():
    """``t`` is the onset ``start * dt``, not the clock at emission; user 0's
    later blockage is emitted first, so ``t`` is not ordered by ``seq``."""
    blocked = np.zeros((2, 60), dtype=bool)
    blocked[0, 40:50] = True
    blocked[1, 10:20] = True
    tl = BlockageTimeline(blocked=blocked, rate_hz=30.0)
    with trace.recording(events=["mac.beam_recovery"]) as rec:
        apply_recovery(tl, RecoveryPolicy.reactive(), seed=0)
    assert [(e.fields["user"], e.t) for e in rec.events] == [
        (0, 40 * (1.0 / 30.0)),
        (1, 10 * (1.0 / 30.0)),
    ]
    assert rec.events[0].seq < rec.events[1].seq
