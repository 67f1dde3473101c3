"""Behavioural 6DoF motion models for synthetic study participants.

The paper's viewport traces come from an IRB user study we cannot access, so
this module generates behaviourally plausible substitutes (see DESIGN.md §1).
The model encodes three well-documented regularities of volumetric-video
viewing that Fig. 2 depends on:

* **Shared attention**: viewers gravitate toward the interesting side of the
  content (a global, slowly-moving "attention azimuth"), which creates the
  large viewport overlaps the paper observes.  Each user also carries a
  personal azimuth anchor that decays toward the shared attention point at a
  per-user convergence rate — some pairs are aligned from the start, others
  start on opposite sides and converge (the two regimes of Fig. 2a).
* **Device affordances**: headset (HM) users translate much more freely than
  smartphone (PH) users, so HM viewports are more spread out and overlap
  less (Fig. 2b's PH-vs-HM ordering).
* **Smooth, noisy motion**: positions follow sinusoidal wander plus an
  Ornstein-Uhlenbeck jitter; gaze tracks a point on the figure with angular
  noise — no teleporting, bounded speeds.

Users orbit the content (the animated figure near the origin) at a preferred
viewing distance, looking at a gaze point on the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..geometry import Quaternion, vec
from .trace import Device, Trace

__all__ = ["BehaviorParams", "AttentionModel", "generate_trace", "device_profile"]

# Quaternion.normalized falls back to the identity below this norm.
_QUATERNION_EPS = 1e-12


@dataclass(frozen=True)
class AttentionModel:
    """The study-wide shared attention azimuth A(t).

    A slow sinusoid around the content's front: everyone's anchor decays
    toward this, producing inter-user similarity.
    """

    amplitude_rad: float = 0.35
    period_s: float = 40.0
    phase: float = 0.0

    def azimuth(self, t: np.ndarray | float) -> np.ndarray | float:
        return self.amplitude_rad * np.sin(
            2.0 * np.pi * np.asarray(t) / self.period_s + self.phase
        )


@dataclass(frozen=True)
class BehaviorParams:
    """Per-user motion parameters (see module docstring for the model)."""

    viewing_distance_m: float = 2.2  # preferred orbit radius
    distance_wander_m: float = 0.3  # radial breathing amplitude
    anchor_azimuth_rad: float = 0.0  # starting side of the content
    convergence_rate: float = 0.05  # 1/s decay of the anchor toward attention
    azimuth_wander_rad: float = 0.4  # personal orbit wander amplitude
    wander_period_s: float = 17.0
    ou_sigma_m: float = 0.05  # positional jitter scale
    ou_tau_s: float = 1.5  # jitter correlation time
    eye_height_m: float = 1.6
    gaze_noise_rad: float = 0.05  # angular noise on the view direction
    gaze_height_wander_m: float = 0.35  # gaze scans between head and torso


def device_profile(device: Device, rng: np.random.Generator) -> BehaviorParams:
    """Sample per-user parameters appropriate for a device class.

    Headset users roam: larger azimuth wander, faster convergence dynamics,
    bigger radial excursions.  Phone users mostly stand and pan.
    """
    if device is Device.HEADSET:
        return BehaviorParams(
            viewing_distance_m=float(rng.uniform(1.0, 2.4)),
            distance_wander_m=float(rng.uniform(0.3, 0.7)),
            azimuth_wander_rad=float(rng.uniform(0.5, 1.1)),
            wander_period_s=float(rng.uniform(12.0, 25.0)),
            ou_sigma_m=float(rng.uniform(0.06, 0.12)),
            eye_height_m=float(rng.uniform(1.5, 1.8)),
            gaze_noise_rad=float(rng.uniform(0.04, 0.08)),
        )
    return BehaviorParams(
        viewing_distance_m=float(rng.uniform(1.4, 2.2)),
        distance_wander_m=float(rng.uniform(0.05, 0.2)),
        azimuth_wander_rad=float(rng.uniform(0.1, 0.35)),
        wander_period_s=float(rng.uniform(15.0, 30.0)),
        ou_sigma_m=float(rng.uniform(0.02, 0.05)),
        eye_height_m=float(rng.uniform(1.4, 1.7)),
        gaze_noise_rad=float(rng.uniform(0.02, 0.05)),
    )


def _ou_process(
    rng: np.random.Generator, n: int, dt: float, sigma: float, tau: float
) -> np.ndarray:
    """Discrete Ornstein-Uhlenbeck noise, shape ``(n, 3)``, stationary scale sigma."""
    x = np.zeros((n, 3))
    if sigma <= 0:
        return x
    alpha = np.exp(-dt / tau)
    drive = sigma * np.sqrt(max(1e-12, 1.0 - alpha**2))
    # One bulk draw takes the same values, in the same order, as one
    # normal(size=3) per step; the recurrence itself stays sequential.
    steps = rng.normal(size=(max(n - 1, 0), 3))
    # The recurrence runs per column over Python floats: the same IEEE
    # multiply and add per element as the row-wise numpy form, without a
    # numpy call per step.
    a, d = float(alpha), float(drive)
    for c in range(3):
        xc = 0.0
        col = [xc]
        for s in steps[:, c].tolist():
            xc = a * xc + d * s
            col.append(xc)
        x[:, c] = col[:n]
    return x


def _check_sampling(duration_s: float, rate_hz: float) -> None:
    """Reject a trace length or sample rate that is not finite and positive."""
    for name, value in (("duration_s", duration_s), ("rate_hz", rate_hz)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _look_at_orientations_reference(
    center: np.ndarray,
    gaze_z: np.ndarray,
    positions: np.ndarray,
    gaze_noise: np.ndarray,
    gaze_noise_rad: float,
) -> np.ndarray:
    """Scalar reference of :func:`_look_at_orientations`: one look-at per sample."""
    n = len(positions)
    orientations = np.empty((n, 4))
    for i in range(n):
        target = np.array([center[0], center[1], gaze_z[i]])
        look = Quaternion.look_at(target - positions[i])
        if gaze_noise_rad > 0:
            noise = Quaternion.from_euler(
                float(gaze_noise[i, 0]), float(gaze_noise[i, 1]), 0.0
            )
            look = (look * noise).normalized()
        orientations[i] = look.as_array()
    return orientations


def _euler_quaternions(yaw: np.ndarray, pitch: np.ndarray) -> tuple[np.ndarray, ...]:
    """``Quaternion.from_euler(yaw, pitch, 0.0)`` per row, as ``(w, x, y, z)``.

    The roll terms stay in, in ``from_euler``'s order: dropping them would
    change the sign of zero components.
    """
    roll = 0.0
    cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
    cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
    cr, sr = np.cos(roll / 2), np.sin(roll / 2)
    return (
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    )


def _look_at_orientations(
    center: np.ndarray,
    gaze_z: np.ndarray,
    positions: np.ndarray,
    gaze_noise: np.ndarray,
    gaze_noise_rad: float,
) -> np.ndarray:
    """Noisy look-at orientations of one trace, shape ``(n, 4)``.

    Each sample looks from its position at ``(center.x, center.y, gaze_z)``
    and is then turned by the yaw and pitch of its gaze noise.  Bitwise
    :func:`_look_at_orientations_reference`: the forward vector is
    normalised twice with :func:`vec.normalize` as ``look_at`` and
    ``azimuth_elevation`` do, and the quaternion norm squares Python floats,
    because ``float ** 2`` (libm ``pow``) and numpy's ``x * x`` round
    differently on some inputs.
    """
    targets = np.empty_like(positions)
    targets[:, 0] = center[0]
    targets[:, 1] = center[1]
    targets[:, 2] = gaze_z
    forward = vec.normalize(vec.normalize(targets - positions))
    az = np.arctan2(forward[:, 1], forward[:, 0])
    el = np.arctan2(forward[:, 2], np.hypot(forward[:, 0], forward[:, 1]))
    w1, x1, y1, z1 = _euler_quaternions(az, -el)
    if not gaze_noise_rad > 0:
        return np.stack([w1, x1, y1, z1], axis=1)

    w2, x2, y2, z2 = _euler_quaternions(gaze_noise[:, 0], gaze_noise[:, 1])
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    squares = [
        a**2 + b**2 + c**2 + d**2
        for a, b, c, d in zip(w.tolist(), x.tolist(), y.tolist(), z.tolist())
    ]
    norm = np.sqrt(np.array(squares))
    degenerate = norm < _QUATERNION_EPS
    safe = np.where(degenerate, 1.0, norm)
    out = np.stack([w / safe, x / safe, y / safe, z / safe], axis=1)
    out[degenerate] = (1.0, 0.0, 0.0, 0.0)
    return out


def generate_trace(
    user_id: int,
    device: Device,
    duration_s: float,
    params: BehaviorParams | None = None,
    attention: AttentionModel | None = None,
    content_center: np.ndarray | None = None,
    rate_hz: float = 30.0,
    seed: int = 0,
) -> Trace:
    """Generate one user's 6DoF trace.

    Args:
        user_id: participant id, recorded on the trace.
        device: phone or headset; selects the default parameter profile.
        duration_s: trace length in seconds.
        params: explicit motion parameters (otherwise sampled per device).
        attention: shared attention model (defaults to the study default —
            pass the *same instance* to every user of a study).
        content_center: XY center of the content; defaults to the origin.
        rate_hz: sampling rate (the study logged 30 Hz).
        seed: RNG seed (combine with user_id for a study).
    """
    _check_sampling(duration_s, rate_hz)
    rng = np.random.default_rng(np.random.SeedSequence([seed, user_id]))
    params = params or device_profile(device, rng)
    attention = attention or AttentionModel()
    center = (
        np.zeros(3)
        if content_center is None
        else np.asarray(content_center, dtype=np.float64)
    )

    n = max(2, int(round(duration_s * rate_hz)))
    dt = 1.0 / rate_hz
    t = np.arange(n) * dt

    # Azimuth: shared attention + decaying personal anchor + personal wander.
    attn = np.asarray(attention.azimuth(t))
    anchor = params.anchor_azimuth_rad * np.exp(-params.convergence_rate * t)
    wander_phase = rng.uniform(0, 2 * np.pi)
    wander = params.azimuth_wander_rad * np.sin(
        2 * np.pi * t / params.wander_period_s + wander_phase
    )
    theta = attn + anchor + wander

    # Radius: preferred distance with slow breathing.
    r_phase = rng.uniform(0, 2 * np.pi)
    radius = params.viewing_distance_m + params.distance_wander_m * np.sin(
        2 * np.pi * t / (1.7 * params.wander_period_s) + r_phase
    )
    radius = np.maximum(0.6, radius)

    jitter = _ou_process(rng, n, dt, params.ou_sigma_m, params.ou_tau_s)
    positions = np.stack(
        [
            center[0] + radius * np.cos(theta) + jitter[:, 0],
            center[1] + radius * np.sin(theta) + jitter[:, 1],
            np.full(n, params.eye_height_m) + 0.3 * jitter[:, 2],
        ],
        axis=1,
    )

    # Gaze target scans vertically between the figure's head and torso.
    gaze_phase = rng.uniform(0, 2 * np.pi)
    gaze_z = 1.1 + params.gaze_height_wander_m * np.sin(
        2 * np.pi * t / (0.8 * params.wander_period_s) + gaze_phase
    )
    # Gaze jitter is temporally correlated (an OU process, ~0.4 s memory):
    # heads drift and re-fixate, they do not shake sample to sample.
    gaze_noise = _ou_process(rng, n, dt, params.gaze_noise_rad, 0.4)
    orientations = _look_at_orientations(
        center, gaze_z, positions, gaze_noise, params.gaze_noise_rad
    )

    return Trace(
        user_id=user_id,
        device=device,
        times=t,
        positions=positions,
        orientations=orientations,
        rate_hz=rate_hz,
    )


def with_anchor(
    params: BehaviorParams, anchor_azimuth_rad: float, convergence_rate: float
) -> BehaviorParams:
    """Copy ``params`` with a new attention anchor (used by the study builder)."""
    return replace(
        params,
        anchor_azimuth_rad=anchor_azimuth_rad,
        convergence_rate=convergence_rate,
    )
