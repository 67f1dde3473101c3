"""Batched look-at orientations: bitwise the per-sample scalar reference."""

import numpy as np
import pytest

from repro.traces import Device, behavior, generate_trace, generate_user_study
from repro.traces.behavior import (
    _look_at_orientations,
    _look_at_orientations_reference,
    _ou_process,
)


def _kernel_inputs(seed, n=240):
    """Positions orbiting a gaze column, with OU gaze noise, as a trace has."""
    rng = np.random.default_rng(seed)
    center = rng.normal(scale=0.2, size=3)
    theta = rng.uniform(-np.pi, np.pi, size=n)
    radius = rng.uniform(0.6, 3.0, size=n)
    positions = np.stack(
        [
            center[0] + radius * np.cos(theta),
            center[1] + radius * np.sin(theta),
            rng.uniform(1.4, 1.8, size=n),
        ],
        axis=1,
    )
    gaze_z = 1.1 + rng.uniform(-0.35, 0.35, size=n)
    gaze_noise = _ou_process(rng, n, 1.0 / 30.0, 0.06, 0.4)
    return center, gaze_z, positions, gaze_noise


def _assert_kernel_matches(center, gaze_z, positions, gaze_noise, gaze_noise_rad):
    args = (center, gaze_z, positions, gaze_noise, gaze_noise_rad)
    fast = _look_at_orientations(*args)
    ref = _look_at_orientations_reference(*args)
    assert fast.shape == ref.shape == (len(positions), 4)
    assert fast.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("gaze_noise_rad", [0.05, 0.0])
def test_kernel_matches_reference(seed, gaze_noise_rad):
    _assert_kernel_matches(*_kernel_inputs(seed), gaze_noise_rad)


@pytest.mark.parametrize("gaze_noise_rad", [0.05, 0.0])
def test_zero_forward_vector_matches_reference(gaze_noise_rad):
    center, gaze_z, positions, gaze_noise = _kernel_inputs(3)
    # Samples standing on their gaze target: the forward vector is zero.
    positions[[0, 17, 101]] = np.stack(
        [np.full(3, center[0]), np.full(3, center[1]), gaze_z[[0, 17, 101]]], axis=1
    )
    _assert_kernel_matches(center, gaze_z, positions, gaze_noise, gaze_noise_rad)


def _through_reference(monkeypatch, build):
    """``build()`` with ``generate_trace`` routed through the scalar reference."""
    with monkeypatch.context() as m:
        m.setattr(behavior, "_look_at_orientations", _look_at_orientations_reference)
        return build()


def _trace_bytes(trace):
    return trace.positions.tobytes() + trace.orientations.tobytes()


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("device", [Device.HEADSET, Device.PHONE])
def test_traces_match_reference(seed, device, monkeypatch):
    def build():
        return generate_trace(seed % 5, device, duration_s=4.0, seed=seed)

    ref = _through_reference(monkeypatch, build)
    assert _trace_bytes(build()) == _trace_bytes(ref)


@pytest.mark.parametrize("num_users,duration_s", [(8, 10.0), (32, 3.0)])
def test_studies_match_reference(num_users, duration_s, monkeypatch):
    def build():
        study = generate_user_study(num_users, duration_s)
        return [_trace_bytes(t) for t in study.traces]

    assert build() == _through_reference(monkeypatch, build)
