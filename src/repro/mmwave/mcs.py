"""802.11ad modulation-and-coding schemes and rate tables.

Single-carrier (SC) MCS 1-12 PHY rates and receive sensitivities follow the
IEEE 802.11ad specification.  Two calibration anchors from the paper tie the
tables to its testbed:

* MCS 1 has a 385 Mbps PHY rate and a -68 dBm sensitivity — the paper's
  "RSS of -68 dBm, which can provide approximately 384 Mbps data rate".
* The measured single-user application throughput tops out at 1270 Mbps;
  with MCS 12's 4620 Mbps PHY rate that implies the ~0.275 MAC/transport
  efficiency used for application-layer goodput.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "McsEntry",
    "MCS_TABLE",
    "MAC_EFFICIENCY",
    "mcs_for_rss",
    "phy_rate_mbps",
    "app_rate_mbps",
]


@dataclass(frozen=True)
class McsEntry:
    """One row of the 802.11ad single-carrier MCS table."""

    index: int
    phy_rate_mbps: float
    sensitivity_dbm: float  # minimum RSS at which this MCS decodes reliably

    @property
    def app_rate_mbps(self) -> float:
        """Application-layer goodput at this MCS (testbed-calibrated)."""
        return self.phy_rate_mbps * MAC_EFFICIENCY


# Application goodput / PHY rate, calibrated so MCS 12 yields the paper's
# measured 1270 Mbps single-user throughput (4620 * 0.275 = 1270.5).
MAC_EFFICIENCY = 0.275

# IEEE 802.11ad SC PHY, MCS 1-12: (PHY rate Mbps, receive sensitivity dBm).
MCS_TABLE: tuple[McsEntry, ...] = (
    McsEntry(1, 385.0, -68.0),
    McsEntry(2, 770.0, -66.0),
    McsEntry(3, 962.5, -65.0),
    McsEntry(4, 1155.0, -64.0),
    McsEntry(5, 1251.25, -62.0),
    McsEntry(6, 1540.0, -63.0),
    McsEntry(7, 1925.0, -62.0),
    McsEntry(8, 2310.0, -61.0),
    McsEntry(9, 2502.5, -59.0),
    McsEntry(10, 3080.0, -55.0),
    McsEntry(11, 3850.0, -54.0),
    McsEntry(12, 4620.0, -53.0),
)


def mcs_for_rss(rss_dbm: float) -> McsEntry | None:
    """Highest-rate MCS whose sensitivity the RSS satisfies.

    Returns ``None`` below the MCS 1 sensitivity (link outage).  Note the
    spec's quirk that MCS 6 (-63 dBm) is more sensitive than MCS 5
    (-62 dBm); selection is by *rate*, so an RSS of -63 dBm picks MCS 6.
    """
    best: McsEntry | None = None
    for entry in MCS_TABLE:
        if rss_dbm >= entry.sensitivity_dbm:
            if best is None or entry.phy_rate_mbps > best.phy_rate_mbps:
                best = entry
    return best


def phy_rate_mbps(rss_dbm: float) -> float:
    """PHY data rate at an RSS (0 when the link is in outage)."""
    entry = mcs_for_rss(rss_dbm)
    return entry.phy_rate_mbps if entry else 0.0


def app_rate_mbps(rss_dbm: float) -> float:
    """Application goodput at an RSS (0 when the link is in outage)."""
    entry = mcs_for_rss(rss_dbm)
    return entry.app_rate_mbps if entry else 0.0
