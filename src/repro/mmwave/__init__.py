"""mmWave (802.11ad) PHY substrate: MCS tables, phased arrays, beams, channel."""

from .array import CARRIER_HZ, WAVELENGTH_M, PhasedArray
from .beams import (
    best_common_beam,
    best_unicast_beam,
    combine_weights,
    multicast_common_rss_dbm,
)
from .blockage import (
    BODY_HEIGHT_M,
    BODY_RADIUS_M,
    BeamSearchLatency,
    BlockageTimeline,
    HumanBody,
    bodies_from_positions,
    compute_blockage_timeline,
    link_blockers,
)
from .channel import AccessPoint, Channel, LinkBudget, fspl_db
from .codebook import Beam, Codebook
from .mcs import (
    MAC_EFFICIENCY,
    MCS_TABLE,
    McsEntry,
    app_rate_mbps,
    mcs_for_rss,
    phy_rate_mbps,
)
from .raytrace import PropagationPath, Room, trace_paths
from .sinr import (
    NOISE_FLOOR_DBM,
    app_rate_for_sinr_mbps,
    mcs_for_sinr,
    sinr_db,
)

__all__ = [
    "CARRIER_HZ",
    "WAVELENGTH_M",
    "PhasedArray",
    "best_common_beam",
    "best_unicast_beam",
    "combine_weights",
    "multicast_common_rss_dbm",
    "BODY_HEIGHT_M",
    "BODY_RADIUS_M",
    "BeamSearchLatency",
    "BlockageTimeline",
    "HumanBody",
    "bodies_from_positions",
    "compute_blockage_timeline",
    "link_blockers",
    "AccessPoint",
    "Channel",
    "LinkBudget",
    "fspl_db",
    "Beam",
    "Codebook",
    "MAC_EFFICIENCY",
    "MCS_TABLE",
    "McsEntry",
    "app_rate_mbps",
    "mcs_for_rss",
    "phy_rate_mbps",
    "PropagationPath",
    "Room",
    "trace_paths",
    "NOISE_FLOOR_DBM",
    "app_rate_for_sinr_mbps",
    "mcs_for_sinr",
    "sinr_db",
]
