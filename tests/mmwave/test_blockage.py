"""Human blockage model and timeline tests."""

import numpy as np
import pytest

from repro.mmwave import (
    BODY_HEIGHT_M,
    BODY_RADIUS_M,
    BeamSearchLatency,
    BlockageTimeline,
    HumanBody,
    bodies_from_positions,
    compute_blockage_timeline,
    link_blockers,
)


def test_human_body_defaults():
    b = HumanBody(np.array([1.0, 2.0]))
    assert b.radius == BODY_RADIUS_M
    assert b.height == BODY_HEIGHT_M
    assert np.allclose(b.center_xy, [1.0, 2.0])


def test_bodies_from_positions_excludes_receiver():
    positions = np.array([[0, 0, 1.6], [1, 1, 1.6], [2, 2, 1.6]], dtype=float)
    bodies = bodies_from_positions(positions, exclude=1)
    assert len(bodies) == 2
    centers = [tuple(b.center_xy) for b in bodies]
    assert (1.0, 1.0) not in centers


def test_bodies_from_positions_all():
    positions = np.zeros((3, 3))
    assert len(bodies_from_positions(positions)) == 3


def test_link_blockers_identifies_the_blocker():
    ap = np.array([0.0, 0.0, 2.0])
    rx = np.array([6.0, 0.0, 1.5])
    bodies = (
        HumanBody(np.array([3.0, 0.0])),  # on the LoS
        HumanBody(np.array([3.0, 3.0])),  # far off the LoS
    )
    assert link_blockers(ap, rx, bodies) == [0]


def test_link_blockers_none():
    ap = np.array([0.0, 0.0, 2.0])
    rx = np.array([6.0, 0.0, 1.5])
    assert link_blockers(ap, rx, ()) == []


def test_timeline_shapes_and_fraction(room_study):
    ap = np.array([4.0, 0.3, 2.0])
    tl = compute_blockage_timeline(room_study, ap)
    assert tl.blocked.shape == (len(room_study), room_study.num_samples)
    for u in range(tl.num_users):
        assert 0.0 <= tl.blockage_fraction(u) <= 1.0


def test_timeline_events_partition_blocked_samples():
    blocked = np.zeros((1, 10), dtype=bool)
    blocked[0, 2:5] = True
    blocked[0, 8:10] = True
    tl = BlockageTimeline(blocked=blocked, rate_hz=30.0)
    assert tl.events(0) == [(2, 5), (8, 10)]


def test_timeline_no_events():
    tl = BlockageTimeline(blocked=np.zeros((1, 5), dtype=bool), rate_hz=30.0)
    assert tl.events(0) == []
    assert tl.blockage_fraction(0) == 0.0


def test_timeline_event_until_end():
    blocked = np.zeros((1, 6), dtype=bool)
    blocked[0, 4:] = True
    tl = BlockageTimeline(blocked=blocked, rate_hz=30.0)
    assert tl.events(0) == [(4, 6)]


def test_blockage_requires_interposed_user():
    """A user standing beside (not between) must not block."""
    # Two users at fixed-ish positions: compute directly.
    ap = np.array([0.0, 0.0, 2.0])
    rx = np.array([4.0, 0.0, 1.5])
    beside = HumanBody(np.array([2.0, 1.5]))
    between = HumanBody(np.array([2.0, 0.0]))
    assert link_blockers(ap, rx, (beside,)) == []
    assert link_blockers(ap, rx, (between,)) == [0]


def test_beam_search_latency_range():
    lat = BeamSearchLatency()
    rng = np.random.default_rng(0)
    samples = [lat.sample(rng) for _ in range(200)]
    assert min(samples) >= 0.005
    assert max(samples) <= 0.020


def test_beam_search_latency_validation():
    lat = BeamSearchLatency(min_s=0.03, max_s=0.01)
    with pytest.raises(ValueError):
        lat.sample(np.random.default_rng(0))
