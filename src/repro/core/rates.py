"""Link-rate providers: what rate does each (user, instant) get?

The session simulator is agnostic to where rates come from; two providers
cover the paper's two evaluation styles:

* :class:`CapacityRateProvider` — the calibrated WLAN capacity models
  (Table 1): every user sees the aggregate testbed capacity when the AP
  transmits to them, and airtime sharing happens naturally in the frame
  scheduler.  An optional :class:`~repro.mac.events.LinkRateTimeline`
  multiplies in blockage/outage effects.
* :class:`ChannelRateProvider` — the beam-level geometric channel
  (Fig. 3): per-user rates follow from the RSS of the AP's beam toward the
  user's *current position*, multicast rates from the group's designed beam
  (default-codebook common beam or the custom multi-lobe beam).

Rates are application-layer goodput in Mbps, ready for byte/second math.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from ..mac.events import LinkRateTimeline
from ..mac.wlan import STREAMING_GOODPUT_EFFICIENCY, WlanCapacityModel
from ..mmwave.beams import multicast_common_rss_dbm
from ..mmwave.channel import Channel
from ..mmwave.codebook import Codebook
from ..mmwave.blockage import bodies_from_positions
from ..mmwave.mcs import app_rate_mbps
from ..traces import UserStudy

__all__ = ["RateProvider", "CapacityRateProvider", "ChannelRateProvider"]


@runtime_checkable
class RateProvider(Protocol):
    """Minimal interface the scheduler/session needs."""

    def unicast_rate_mbps(self, user_index: int, sample_index: int) -> float:
        """Goodput when the AP unicasts to one user at one study sample."""
        ...

    def multicast_rate_mbps(
        self, member_indices: tuple[int, ...], sample_index: int
    ) -> float:
        """Goodput of a multicast transmission to a group."""
        ...

    def rss_dbm(self, user_index: int, sample_index: int) -> float | None:
        """PHY hint for cross-layer adaptation (None if not modeled)."""
        ...


@dataclass
class CapacityRateProvider:
    """Rates from the calibrated aggregate-capacity model.

    When the AP transmits to any single user it achieves the aggregate
    capacity for the current user count (airtime division is the
    scheduler's job).  Multicast reaches the whole group in one
    transmission at ``multicast_rate_fraction`` of that rate — below 1.0
    models the group-minimum-MCS penalty without beam geometry.
    """

    model: WlanCapacityModel
    num_users: int
    timeline: LinkRateTimeline | None = None
    multicast_rate_fraction: float = 1.0
    goodput_efficiency: float = STREAMING_GOODPUT_EFFICIENCY

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if not 0.0 < self.multicast_rate_fraction <= 1.0:
            raise ValueError("multicast_rate_fraction must be in (0, 1]")

    def _base_rate(self) -> float:
        # A single user suffers no inter-user contention, so a larger share
        # of the transport rate becomes video payload (fits the paper's
        # 1-user rows, where 374 Mbps carries the 364 Mbps video at 30 FPS).
        efficiency = 0.98 if self.num_users == 1 else self.goodput_efficiency
        return self.model.aggregate_mbps(self.num_users) * efficiency

    def _multiplier(self, user_index: int, sample_index: int) -> float:
        if self.timeline is None:
            return 1.0
        sample = min(sample_index, self.timeline.multiplier.shape[1] - 1)
        return float(self.timeline.multiplier[user_index, sample])

    def unicast_rate_mbps(self, user_index: int, sample_index: int) -> float:
        return self._base_rate() * self._multiplier(user_index, sample_index)

    def multicast_rate_mbps(
        self, member_indices: tuple[int, ...], sample_index: int
    ) -> float:
        if not member_indices:
            raise ValueError("need at least one member")
        worst = min(self._multiplier(u, sample_index) for u in member_indices)
        return self._base_rate() * self.multicast_rate_fraction * worst

    def rss_dbm(self, user_index: int, sample_index: int) -> float | None:
        return None


@dataclass
class ChannelRateProvider:
    """Rates from the beam-level 60 GHz channel at the users' trace positions.

    Unicast beams are chosen as the codebook beam steered nearest the user's
    LoS direction (a sector sweep would pick the same beam in the open; the
    full sweep lives in :mod:`repro.mmwave.beams` for the Fig. 3
    experiments).  Multicast beams follow the paper's design: the better of
    the best common codebook beam and the custom multi-lobe combination.

    Results are memoized per (user/group, sample) — traces are deterministic.
    """

    channel: Channel
    codebook: Codebook
    study: UserStudy
    goodput_efficiency: float = STREAMING_GOODPUT_EFFICIENCY
    _unicast_cache: dict = field(default_factory=dict, repr=False)
    _multicast_cache: dict = field(default_factory=dict, repr=False)
    _rss_cache: dict = field(default_factory=dict, repr=False)

    def _sample(self, sample_index: int) -> int:
        return min(sample_index, self.study.num_samples - 1)

    def _bodies(self, sample_index: int, exclude: int | None):
        positions = self.study.positions_at(self._sample(sample_index))
        return bodies_from_positions(positions, exclude=exclude)

    def _user_rss(self, user_index: int, sample_index: int) -> float:
        key = (user_index, self._sample(sample_index))
        if key not in self._rss_cache:
            s = self._sample(sample_index)
            position = self.study.traces[user_index].positions[s]
            az, el = self.channel.ap.steering_to(position)
            beam = self.codebook.nearest_beam(az, el)
            bodies = self._bodies(s, exclude=user_index)
            self._rss_cache[key] = self.channel.rss_dbm(
                beam.weights, position, bodies
            )
        return self._rss_cache[key]

    def unicast_rate_mbps(self, user_index: int, sample_index: int) -> float:
        key = (user_index, self._sample(sample_index))
        if key not in self._unicast_cache:
            rss = self._user_rss(user_index, sample_index)
            if rss < self.channel.budget.outage_rss_dbm:
                rate = 0.0
            else:
                rate = app_rate_mbps(rss) * self.goodput_efficiency
            self._unicast_cache[key] = rate
        return self._unicast_cache[key]

    def multicast_rate_mbps(
        self, member_indices: tuple[int, ...], sample_index: int
    ) -> float:
        if not member_indices:
            raise ValueError("need at least one member")
        if len(member_indices) == 1:
            return self.unicast_rate_mbps(member_indices[0], sample_index)
        s = self._sample(sample_index)
        key = (tuple(sorted(member_indices)), s)
        if key not in self._multicast_cache:
            positions = [self.study.traces[u].positions[s] for u in member_indices]
            # Each receiver's RSS must exclude their *own* body (the device
            # is in front of them), so every member gets their own blocker set.
            default, custom = multicast_common_rss_dbm(
                self.channel,
                self.codebook,
                positions,
                [self._bodies(s, exclude=u) for u in member_indices],
            )
            best_min = max(default, custom)
            if best_min < self.channel.budget.outage_rss_dbm:
                rate = 0.0
            else:
                rate = app_rate_mbps(best_min) * self.goodput_efficiency
            self._multicast_cache[key] = rate
        return self._multicast_cache[key]

    def rss_dbm(self, user_index: int, sample_index: int) -> float | None:
        return self._user_rss(user_index, sample_index)
