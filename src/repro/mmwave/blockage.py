"""Human blockage modeling and beam re-search latency.

In multi-user sessions the users themselves are the blockers: one viewer
walking between the AP and another viewer attenuates — sometimes outright
drops — the victim's mmWave link.  This module turns user positions into
body cylinders, computes per-link blockage timelines over a study, and
models the sector re-search delay the paper cites (5-20 ms) for reactive
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Segment, VerticalCylinder
from ..traces import UserStudy

__all__ = [
    "HumanBody",
    "bodies_from_positions",
    "link_blockers",
    "BlockageTimeline",
    "compute_blockage_timeline",
    "BeamSearchLatency",
]

# Standard human-blocker abstraction: torso-width cylinder, standing height.
BODY_RADIUS_M = 0.22
BODY_HEIGHT_M = 1.75

# Links (sample x receiver x body) per chunk of the batched timeline.
_BLOCKAGE_CHUNK_LINKS = 1 << 18


def HumanBody(center_xy: np.ndarray, radius: float = BODY_RADIUS_M,
              height: float = BODY_HEIGHT_M) -> VerticalCylinder:
    """A human blocker as a vertical cylinder at ``center_xy``."""
    return VerticalCylinder(
        center_xy=np.asarray(center_xy, dtype=np.float64),
        radius=radius,
        height=height,
    )


def bodies_from_positions(
    positions: np.ndarray,
    exclude: int | None = None,
    radius: float = BODY_RADIUS_M,
) -> tuple[VerticalCylinder, ...]:
    """Body cylinders for all users, optionally excluding the receiver.

    ``positions`` is ``(num_users, 3)`` head positions; the cylinder stands
    under each head.  The receiving user's own body is excluded because the
    device is held/worn in front of the body, not behind it.  ``radius``
    can be inflated by forecasting code to absorb position-prediction error.
    """
    positions = np.asarray(positions, dtype=np.float64)
    bodies = []
    for i, pos in enumerate(positions):
        if exclude is not None and i == exclude:
            continue
        bodies.append(HumanBody(pos[:2], radius=radius))
    return tuple(bodies)


def link_blockers(
    ap_position: np.ndarray,
    rx_position: np.ndarray,
    bodies: tuple[VerticalCylinder, ...],
) -> list[int]:
    """Indices of bodies intersecting the LoS segment AP -> RX."""
    seg = Segment(np.asarray(ap_position), np.asarray(rx_position))
    return [i for i, body in enumerate(bodies) if body.blocks(seg)]


@dataclass(frozen=True)
class BlockageTimeline:
    """Per-user, per-sample LoS blockage over a study session.

    ``blocked`` has shape ``(num_users, num_samples)`` and is True when at
    least one other user's body crosses the user's LoS to the AP.
    """

    blocked: np.ndarray
    rate_hz: float

    @property
    def num_users(self) -> int:
        return self.blocked.shape[0]

    @property
    def num_samples(self) -> int:
        return self.blocked.shape[1]

    def blockage_fraction(self, user: int) -> float:
        """Fraction of the session this user's LoS is blocked."""
        return float(np.mean(self.blocked[user]))

    def events(self, user: int) -> list[tuple[int, int]]:
        """Maximal blocked intervals ``[start, end)`` in sample indices."""
        row = self.blocked[user]
        events = []
        start = None
        for i, b in enumerate(row):
            if b and start is None:
                start = i
            elif not b and start is not None:
                events.append((start, i))
                start = None
        if start is not None:
            events.append((start, len(row)))
        return events


def compute_blockage_timeline(
    study: UserStudy, ap_position: np.ndarray
) -> BlockageTimeline:
    """LoS blockage of every user by every *other* user over the session.

    One segment-against-cylinder test for the whole study: each sample's
    link AP -> user ``u`` against the body under every user ``b``, as
    ``(S, U, U)`` arrays over samples, receivers and bodies (samples in
    chunks of about 2^18 links), with the diagonal (a receiver's own body)
    excluded.  The steps and comparisons are those of
    :meth:`~repro.geometry.VerticalCylinder.intersection_interval`; its
    2-vector dot products are stacked ``matmul`` calls, which equal
    ``np.dot`` bit for bit, so the timeline equals
    :func:`_compute_blockage_timeline_reference`'s.
    """
    ap = np.asarray(ap_position, dtype=np.float64)
    positions = np.stack([t.positions for t in study.traces], axis=1)  # (S, U, 3)
    n_samples, n_users = positions.shape[:2]
    blocked = np.zeros((n_users, n_samples), dtype=bool)
    others = ~np.eye(n_users, dtype=bool)
    chunk = max(1, _BLOCKAGE_CHUNK_LINKS // (n_users * n_users))
    for start in range(0, n_samples, chunk):
        hit = _links_blocked(ap, positions[start : start + chunk])
        blocked[:, start : start + chunk] = (hit & others).any(axis=2).T
    return BlockageTimeline(blocked=blocked, rate_hz=study.rate_hz)


def _dot2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot product of stacked 2-vectors, equal to ``np.dot``."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _links_blocked(ap: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``(S, U, B)``: does link AP -> user ``u`` cross the body of user ``b``?

    ``positions`` is ``(S, U, 3)`` head positions; every user's body
    stands under its head, the receiver's own included.
    """
    a2 = ap[:2] - positions[:, :, :2]  # (S, B, 2)
    d2 = positions[:, :, :2] - ap[:2]  # (S, U, 2)
    # Quadratic |a2 + t*d2|^2 = r^2.
    qa = _dot2(d2, d2)[:, :, None]  # (S, U, 1)
    qb = 2.0 * _dot2(a2[:, None, :, :], d2[:, :, None, :])  # (S, U, B)
    qc = (_dot2(a2, a2) - BODY_RADIUS_M**2)[:, None, :]  # (S, 1, B)
    # A vertical segment crosses the body only from inside the circle.
    vertical = qa < 1e-15
    disc = qb * qb - 4 * qa * qc
    hit = np.where(vertical, qc <= 0.0, disc >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)
        t0 = np.where(vertical, 0.0, (-qb - sq) / (2 * qa))
        t1 = np.where(vertical, 1.0, (-qb + sq) / (2 * qa))
        # Clip to the segment.
        t0, t1 = np.maximum(t0, 0.0), np.minimum(t1, 1.0)
        hit &= t0 < t1
        # Clip against the z extent: z(t) = az + t*(bz-az) within [0, height].
        az = ap[2]
        dz = (positions[:, :, 2] - az)[:, :, None]  # (S, U, 1)
        flat = np.abs(dz) < 1e-15
        tz0 = (0.0 - az) / dz
        tz1 = (BODY_HEIGHT_M - az) / dz
        tz0, tz1 = np.minimum(tz0, tz1), np.maximum(tz0, tz1)
        crosses_z = np.where(
            flat,
            0.0 <= az <= BODY_HEIGHT_M,
            np.maximum(t0, tz0) < np.minimum(t1, tz1),
        )
    return hit & crosses_z


def _compute_blockage_timeline_reference(
    study: UserStudy, ap_position: np.ndarray
) -> BlockageTimeline:
    """Scalar reference for :func:`compute_blockage_timeline`.

    One :func:`link_blockers` call per (sample, user), as the timeline was
    first computed.  Kept as the equivalence baseline for the batched test
    (``tests/mmwave/test_blockage_kernels.py``) and timed against it by
    ``repro bench --kernels``.
    """
    ap = np.asarray(ap_position, dtype=np.float64)
    n_users = len(study)
    n_samples = study.num_samples
    blocked = np.zeros((n_users, n_samples), dtype=bool)
    for s in range(n_samples):
        positions = study.positions_at(s)
        for u in range(n_users):
            bodies = bodies_from_positions(positions, exclude=u)
            blocked[u, s] = bool(link_blockers(ap, positions[u], bodies))
    return BlockageTimeline(blocked=blocked, rate_hz=study.rate_hz)


@dataclass(frozen=True)
class BeamSearchLatency:
    """Reactive sector re-search delay after an unanticipated blockage.

    "Reinitiating beam searching to find new beams ... will cause a delay of
    up to 5 to 20 ms" (paper §4.1).  Sampled uniformly in that range; the
    proactive mitigation scheme avoids this delay entirely by switching to a
    predicted reflection beam before the blocker arrives.
    """

    min_s: float = 0.005
    max_s: float = 0.020

    def sample(self, rng: np.random.Generator) -> float:
        if self.min_s > self.max_s:
            raise ValueError("min_s must be <= max_s")
        return float(rng.uniform(self.min_s, self.max_s))
