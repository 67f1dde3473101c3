"""Golden equivalence: the study-batched blockage timeline vs. the scalar loop.

``compute_blockage_timeline`` tests every (sample, receiver, body) link in
one ``(S, U, U)`` pass; ``_compute_blockage_timeline_reference`` keeps the
per-sample, per-receiver ``link_blockers`` loop.  The timelines must be
equal, including on the cylinder test's degenerate branches: a vertical
link (receiver directly under the AP), a horizontal link (AP at receiver
height, inside and above the body's z range) and a receiver standing
inside another user's body.
"""

import numpy as np
import pytest

from repro.mmwave import BODY_HEIGHT_M, compute_blockage_timeline
from repro.mmwave import blockage
from repro.mmwave.blockage import _compute_blockage_timeline_reference
from repro.traces import Device, Trace, UserStudy, generate_user_study

AP_POSITIONS = (
    np.array([4.0, 0.3, 2.0]),  # the experiments' ceiling AP
    np.array([0.0, 0.0, 2.5]),
    np.array([2.0, 3.0, 1.6]),  # below head height
)


def _study(positions):
    """A study whose users stand at ``positions[s, u]`` at sample ``s``."""
    positions = np.asarray(positions, dtype=np.float64)
    n_samples = positions.shape[0]
    times = np.arange(n_samples) / 30.0
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (n_samples, 1))
    return UserStudy([
        Trace(u, Device.HEADSET, times, positions[:, u], identity)
        for u in range(positions.shape[1])
    ])


def _blocked(study, ap):
    fast = compute_blockage_timeline(study, ap)
    slow = _compute_blockage_timeline_reference(study, ap)
    assert fast.blocked.dtype == slow.blocked.dtype == np.bool_
    assert np.array_equal(fast.blocked, slow.blocked)
    assert fast.rate_hz == slow.rate_hz
    return fast.blocked


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("ap_index", range(len(AP_POSITIONS)))
def test_batched_timeline_matches_the_reference(seed, ap_index):
    study = generate_user_study(num_users=6, duration_s=2.0, seed=seed)
    _blocked(study, AP_POSITIONS[ap_index])


def test_the_seeded_studies_do_block():
    """The equivalence above is not vacuous: links are blocked and clear."""
    blocked = np.concatenate([
        compute_blockage_timeline(
            generate_user_study(num_users=6, duration_s=2.0, seed=seed), ap
        ).blocked.ravel()
        for seed in range(8)
        for ap in AP_POSITIONS
    ])
    assert 0 < blocked.sum() < len(blocked)


def test_receiver_directly_under_the_ap():
    ap = np.array([2.0, 2.0, 2.5])
    blocked = _blocked(_study([
        # A neighbour's body encloses the vertical link, then steps aside.
        [[2.0, 2.0, 1.5], [2.1, 2.0, 1.6]],
        [[2.0, 2.0, 1.5], [2.5, 2.0, 1.6]],
    ]), ap)
    assert blocked[0].tolist() == [True, False]


@pytest.mark.parametrize("height, expected", [
    (1.5, True),  # inside the body's z range
    (BODY_HEIGHT_M + 0.25, False),  # above the body
])
def test_ap_at_receiver_height(height, expected):
    ap = np.array([0.0, 0.0, height])
    blocked = _blocked(_study([
        [[4.0, 0.0, height], [2.0, 0.0, 1.6]],
    ]), ap)
    assert blocked[0, 0] == expected


def test_receiver_inside_another_users_body():
    ap = np.array([0.0, 0.0, 2.0])
    blocked = _blocked(_study([
        [[3.0, 0.0, 1.5], [3.1, 0.0, 1.6], [0.0, 3.0, 1.6]],
    ]), ap)
    assert blocked[:, 0].tolist() == [True, True, False]


@pytest.mark.parametrize("samples_per_chunk", [1, 7])
def test_sample_chunks_match(monkeypatch, samples_per_chunk):
    study = generate_user_study(num_users=6, duration_s=2.0, seed=3)
    whole = compute_blockage_timeline(study, AP_POSITIONS[0]).blocked
    monkeypatch.setattr(blockage, "_BLOCKAGE_CHUNK_LINKS",
                        samples_per_chunk * len(study) ** 2)
    assert np.array_equal(_blocked(study, AP_POSITIONS[0]), whole)
