"""6DoF viewport trace: a user's pose sequence sampled at a fixed rate.

Matches the paper's user-study format: "6DoF viewport trajectories were
collected for all users at 30 Hz during the viewing sessions."  Internally
the trace is stored as dense arrays (times, positions, quaternions) so
predictors and the simulator can slice windows without Python overhead.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..geometry import Quaternion
from .pose import Pose

__all__ = ["Device", "Trace"]


class Device(str, Enum):
    """Viewing device of a study participant.

    The paper's groups: PH = smartphone, HM = Magic Leap One headset.
    """

    PHONE = "PH"
    HEADSET = "HM"


class Trace:
    """A regularly-sampled 6DoF trajectory for one user.

    Attributes:
        times: ``(N,)`` seconds, uniformly spaced at ``rate_hz``.
        positions: ``(N, 3)`` meters.
        orientations: ``(N, 4)`` unit quaternions, scalar-first.
    """

    def __init__(
        self,
        user_id: int,
        device: Device,
        times: np.ndarray,
        positions: np.ndarray,
        orientations: np.ndarray,
        rate_hz: float = 30.0,
    ) -> None:
        times = np.asarray(times, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64)
        orientations = np.asarray(orientations, dtype=np.float64)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a non-empty 1D array")
        if positions.shape != (len(times), 3):
            raise ValueError("positions must be (N, 3) aligned with times")
        if orientations.shape != (len(times), 4):
            raise ValueError("orientations must be (N, 4) aligned with times")
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        # Normalize quaternions defensively; serialization may lose precision.
        norms = np.linalg.norm(orientations, axis=1, keepdims=True)
        if np.any(norms < 1e-9):
            raise ValueError("zero-norm quaternion in trace")
        self.user_id = int(user_id)
        self.device = Device(device)
        self.times = times
        self.positions = positions
        self.orientations = orientations / norms
        self.rate_hz = float(rate_hz)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def pose(self, index: int) -> Pose:
        """Pose at sample ``index`` (negative indices allowed)."""
        return Pose(
            t=float(self.times[index]),
            position=self.positions[index],
            orientation=Quaternion.from_array(self.orientations[index]),
        )

    def pose_at(self, t: float) -> Pose:
        """Pose at arbitrary time ``t`` by interpolation (clamped at ends)."""
        if t <= self.times[0]:
            return self.pose(0)
        if t >= self.times[-1]:
            return self.pose(len(self) - 1)
        hi = int(np.searchsorted(self.times, t))
        lo = hi - 1
        return self.pose(lo).interpolate(self.pose(hi), t)

    def poses_at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Poses at many times: ``(positions (F, 3), orientations (F, 4))``.

        Row ``i`` equals ``pose_at(ts[i])`` bit for bit, which stays the
        scalar reference: the same end clamps and zero-span fallback, and
        the :meth:`Quaternion.slerp` arithmetic row by row — the short-arc
        flip, the near-parallel linear branch, ``alpha`` clipped to
        ``[0, 1]``.  The final normalization squares Python floats, as
        :meth:`Quaternion.normalized` does.
        """
        ts = np.asarray(ts, dtype=np.float64).reshape(-1)
        times = self.times
        hi = np.clip(np.searchsorted(times, ts), 1, len(self) - 1)
        lo = hi - 1
        inner = (ts > times[0]) & (ts < times[-1])
        lo[ts <= times[0]] = 0
        lo[ts >= times[-1]] = len(self) - 1
        span = times[hi] - times[lo]
        inner &= ~(np.abs(span) < 1e-12)
        positions = self.positions[lo]
        orientations = self.orientations[lo]
        if not inner.any():
            return positions, orientations
        lo, hi, t = lo[inner], hi[inner], ts[inner]
        alpha = (t - times[lo]) / span[inner]
        p0 = self.positions[lo]
        positions[inner] = p0 + alpha[:, None] * (self.positions[hi] - p0)

        q0, q1 = self.orientations[lo], self.orientations[hi]
        alpha = np.clip(alpha, 0.0, 1.0)
        d = (q0[:, 0] * q1[:, 0] + q0[:, 1] * q1[:, 1]
             + q0[:, 2] * q1[:, 2] + q0[:, 3] * q1[:, 3])
        flip = d < 0.0
        q1 = np.where(flip[:, None], -q1, q1)
        theta = np.arccos(np.minimum(1.0, np.maximum(-1.0, np.abs(d))))
        linear = theta < 1e-9
        q = np.empty_like(q0)
        a = alpha[linear, None]
        q[linear] = q0[linear] + a * (q1[linear] - q0[linear])
        arc = ~linear
        theta, a = theta[arc], alpha[arc]
        s = np.sin(theta)
        wa = (np.sin((1 - a) * theta) / s)[:, None]
        wb = (np.sin(a * theta) / s)[:, None]
        q[arc] = wa * q0[arc] + wb * q1[arc]

        n = np.sqrt([w**2 + x**2 + y**2 + z**2 for w, x, y, z in q.tolist()])
        q /= np.where(n < 1e-12, 1.0, n)[:, None]
        q[n < 1e-12] = (1.0, 0.0, 0.0, 0.0)
        orientations[inner] = q
        return positions, orientations

    def index_at(self, t: float) -> int:
        """Nearest sample index for time ``t`` (clamped)."""
        idx = int(round((t - self.times[0]) * self.rate_hz))
        return max(0, min(idx, len(self) - 1))

    def window(self, end_index: int, length: int) -> "Trace":
        """The ``length`` samples ending at ``end_index`` (inclusive).

        Predictors use this as their history window; it clamps at the start
        of the trace rather than raising.
        """
        end = max(0, min(end_index, len(self) - 1))
        start = max(0, end - length + 1)
        return Trace(
            user_id=self.user_id,
            device=self.device,
            times=self.times[start : end + 1],
            positions=self.positions[start : end + 1],
            orientations=self.orientations[start : end + 1],
            rate_hz=self.rate_hz,
        )

    def velocities(self) -> np.ndarray:
        """Finite-difference translational velocity, shape ``(N, 3)`` m/s."""
        if len(self) == 1:
            return np.zeros((1, 3))
        v = np.gradient(self.positions, self.times, axis=0)
        return v

    def position_spread(self) -> float:
        """RMS distance from the mean position — how much the user roams."""
        centered = self.positions - self.positions.mean(axis=0)
        return float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))
