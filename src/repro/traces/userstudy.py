"""Synthetic stand-in for the paper's 32-participant user study.

The paper analyzes 6DoF traces from 32 participants, split between a
smartphone group (PH) and a Magic Leap headset group (HM), all watching the
same volumetric videos.  :func:`generate_user_study` reproduces that setup:

* 32 users by default, half phone / half headset;
* all users share one :class:`~repro.traces.behavior.AttentionModel` so
  viewport similarity emerges from shared attention;
* personal azimuth anchors are drawn from a front-biased mixture — most
  people watch the figure's front, a minority starts on the sides/back and
  converges at a per-user rate.  This yields both Fig. 2a regimes
  (always-similar pairs and converging pairs) without hard-coding either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .behavior import (
    AttentionModel,
    _check_sampling,
    device_profile,
    generate_trace,
    with_anchor,
)
from .trace import Device, Trace

__all__ = ["UserStudy", "generate_user_study"]


@dataclass
class UserStudy:
    """A set of synchronized traces from one viewing session.

    A study's traces must not change once a session has read them:
    ``core.session`` memoizes the oracle visibility of every (frame, user)
    it culls on the study itself, and later sessions over the same study
    read those rows instead of culling again.
    """

    traces: list[Trace]
    attention: AttentionModel = field(default_factory=AttentionModel)
    # Oracle visibility tables, filled by core.session and keyed there;
    # they live exactly as long as the study.
    _oracle: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.traces:
            raise ValueError("a study needs at least one trace")
        lengths = {len(t) for t in self.traces}
        if len(lengths) != 1:
            raise ValueError("all traces in a study must have equal length")
        rates = {t.rate_hz for t in self.traces}
        if len(rates) != 1:
            raise ValueError("all traces in a study must share a sample rate")

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def num_samples(self) -> int:
        return len(self.traces[0])

    @property
    def rate_hz(self) -> float:
        return self.traces[0].rate_hz

    def by_device(self, device: Device) -> list[Trace]:
        return [t for t in self.traces if t.device is device]

    def user(self, user_id: int) -> Trace:
        for t in self.traces:
            if t.user_id == user_id:
                return t
        raise KeyError(f"no user {user_id} in study")

    def positions_at(self, index: int) -> np.ndarray:
        """All user positions at a sample index, shape ``(num_users, 3)``."""
        return np.stack([t.positions[index] for t in self.traces])


def _sample_anchor(rng: np.random.Generator) -> tuple[float, float]:
    """Draw (anchor azimuth, convergence rate) from the attention mixture.

    ~60% front watchers (small anchors, slow convergence — they are already
    near the shared attention point), ~40% side/back starters with faster
    convergence (they drift to the front over the session).
    """
    if rng.random() < 0.6:
        anchor = float(rng.normal(scale=0.25))
        conv = float(rng.uniform(0.0, 0.03))
    else:
        anchor = float(rng.uniform(1.2, np.pi) * rng.choice([-1.0, 1.0]))
        conv = float(rng.uniform(0.015, 0.05))
    return anchor, conv


def generate_user_study(
    num_users: int = 32,
    duration_s: float = 10.0,
    rate_hz: float = 30.0,
    seed: int = 7,
    attention: AttentionModel | None = None,
    content_center: np.ndarray | None = None,
) -> UserStudy:
    """Generate the synthetic study.

    Users with even ids use headsets (HM), odd ids use phones (PH), giving
    the paper's half/half split for any even ``num_users``.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    _check_sampling(duration_s, rate_hz)
    attention = attention or AttentionModel()
    traces = []
    for uid in range(num_users):
        device = Device.HEADSET if uid % 2 == 0 else Device.PHONE
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1000 + uid]))
        params = device_profile(device, rng)
        anchor, conv = _sample_anchor(rng)
        params = with_anchor(params, anchor, conv)
        traces.append(
            generate_trace(
                user_id=uid,
                device=device,
                duration_s=duration_s,
                params=params,
                attention=attention,
                content_center=content_center,
                rate_hz=rate_hz,
                seed=seed,
            )
        )
    return UserStudy(traces=traces, attention=attention)
