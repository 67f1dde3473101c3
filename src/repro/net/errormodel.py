"""Per-packet error probability from PHY state.

802.11ad defines each MCS's receive sensitivity at a reference packet error
rate (a few percent PSDU error with long PSDUs), and measured PER-vs-SNR
curves fall off roughly log-linearly — a "waterfall" of about one decade of
PER per couple of dB once past the knee.  This module turns the RSS margin
over the selected MCS's threshold (from :mod:`repro.mmwave.mcs`) into a
per-packet loss probability, and layers blockage-driven burst loss on top:
while a human body crosses the LoS (:mod:`repro.mmwave.blockage`), the link
drops 12+ dB and the PER saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mmwave.mcs import McsEntry, mcs_for_rss

__all__ = [
    "PER_AT_SENSITIVITY",
    "PER_DECADE_DB",
    "PER_FLOOR",
    "BLOCKED_PER",
    "per_from_margin_db",
    "per_for_rss",
    "PacketErrorModel",
]

# 802.11ad specifies sensitivity at <= 5% PSDU error (4096-octet PSDUs).
PER_AT_SENSITIVITY = 0.05
# Waterfall steepness: one decade of PER per this many dB of extra margin.
PER_DECADE_DB = 2.0
# Numerical floor — no link is truly error-free.
PER_FLOOR = 1e-7
# During an unmitigated body blockage the budget's 12+ dB hit saturates PER.
BLOCKED_PER = 0.9


def per_from_margin_db(margin_db: float) -> float:
    """PER at ``margin_db`` above (positive) or below (negative) the knee.

    At the knee (margin 0) the PER is the spec's reference
    :data:`PER_AT_SENSITIVITY`; each :data:`PER_DECADE_DB` of margin buys a
    decade.  Below the knee the same slope climbs until the packet is
    effectively always lost.
    """
    per = PER_AT_SENSITIVITY * 10.0 ** (-margin_db / PER_DECADE_DB)
    return float(min(1.0, max(PER_FLOOR, per)))


def per_for_rss(rss_dbm: float, entry: McsEntry | None = None) -> float:
    """Per-packet loss at an RSS under the (auto-)selected MCS.

    Rate selection picks the fastest MCS the RSS supports, which by
    construction leaves less than one MCS step of margin — so healthy links
    still see a small but non-zero PER.  Below the MCS 1 sensitivity the
    link is in outage and every packet is lost.
    """
    if entry is None:
        entry = mcs_for_rss(rss_dbm)
    if entry is None:
        return 1.0
    return per_from_margin_db(rss_dbm - entry.sensitivity_dbm)


@dataclass(frozen=True)
class PacketErrorModel:
    """Maps a link's PHY state to a per-packet error probability.

    ``base_per`` overrides the RSS-derived PER with a fixed value (loss
    sweeps); ``blocked_per`` is the burst-loss level while a blockage event
    covers the link.  With neither an override nor an RSS (the calibrated
    capacity providers report no PHY state) the link is treated as clean.
    """

    base_per: float | None = None
    blocked_per: float = BLOCKED_PER

    def __post_init__(self) -> None:
        if self.base_per is not None and not 0.0 <= self.base_per <= 1.0:
            raise ValueError("base_per must be in [0, 1]")
        if not 0.0 <= self.blocked_per <= 1.0:
            raise ValueError("blocked_per must be in [0, 1]")

    def per(self, rss_dbm: float | None = None, blocked: bool = False) -> float:
        base = self.base_per
        if base is None:
            base = per_for_rss(rss_dbm) if rss_dbm is not None else 0.0
        if blocked:
            return max(base, self.blocked_per)
        return base
