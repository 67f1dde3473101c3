"""Split a frame's per-cell byte demands into MTU-sized PDUs.

The fluid scheduler moves fractional bytes; a real link moves packets.  A
cell is the smallest independently decodable unit (the codec operates per
cell), so each cell's bytes are packetized separately — a cell never shares
a PDU with another cell, and the last PDU of a cell is short rather than
padded.  Every PDU carries ``header_bytes`` of IP/UDP/RTP-style framing on
the wire, which is where the packetization tax on small cells comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ..mac.scheduler import FramePlan

__all__ = [
    "DEFAULT_MTU_BYTES",
    "DEFAULT_HEADER_BYTES",
    "PacketizationConfig",
    "PacketizedUnit",
    "PlanUnits",
    "packet_count",
    "packetize_bytes",
    "packetize_cells",
    "plan_units",
]

DEFAULT_MTU_BYTES = 1500
DEFAULT_HEADER_BYTES = 44  # IP (20) + UDP (8) + RTP-ish media framing (16)


@dataclass(frozen=True)
class PacketizationConfig:
    """MTU and per-PDU header overhead."""

    mtu_bytes: int = DEFAULT_MTU_BYTES
    header_bytes: int = DEFAULT_HEADER_BYTES

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be non-negative")
        if self.mtu_bytes <= self.header_bytes:
            raise ValueError("mtu_bytes must exceed header_bytes")

    @property
    def payload_bytes(self) -> int:
        """Application bytes one PDU can carry."""
        return self.mtu_bytes - self.header_bytes


@dataclass(frozen=True)
class PacketizedUnit:
    """One transmission unit (a frame, or one user's share of it) as PDUs."""

    num_packets: int
    app_bytes: float  # payload actually requested by the application
    wire_bytes: float  # payload + per-PDU headers, what the link carries

    def airtime_s(self, rate_mbps: float) -> float:
        """Seconds to carry this unit's wire bytes at ``rate_mbps``."""
        if self.wire_bytes <= 0:
            return 0.0
        if rate_mbps <= 0:
            return float("inf")
        return self.wire_bytes * 8.0 / (rate_mbps * 1e6)


def packet_count(nbytes: float, payload_bytes: int) -> int:
    """PDUs needed to carry ``nbytes`` of payload."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be positive")
    return int(math.ceil(nbytes / payload_bytes))


def packetize_bytes(
    nbytes: float, config: PacketizationConfig = PacketizationConfig()
) -> PacketizedUnit:
    """Packetize one contiguous byte run (one cell, or one FEC block)."""
    n = packet_count(nbytes, config.payload_bytes)
    return PacketizedUnit(
        num_packets=n,
        app_bytes=float(nbytes),
        wire_bytes=float(nbytes) + n * config.header_bytes,
    )


def packetize_cells(
    cell_bytes: dict[int, float],
    config: PacketizationConfig = PacketizationConfig(),
) -> PacketizedUnit:
    """Packetize a per-cell demand map; cells never share a PDU.

    One left-to-right fold over the cells in insertion order: bitwise the
    sum of each cell's :func:`packetize_bytes` unit, built as one unit.
    """
    payload_bytes = config.payload_bytes
    header_bytes = config.header_bytes
    num_packets = 0
    app_bytes = 0.0
    wire_bytes = 0.0
    for nbytes in cell_bytes.values():
        n = packet_count(nbytes, payload_bytes)
        num_packets += n
        app_bytes += float(nbytes)
        wire_bytes += float(nbytes) + n * header_bytes
    return PacketizedUnit(
        num_packets=num_packets, app_bytes=app_bytes, wire_bytes=wire_bytes
    )


class PlanUnits(NamedTuple):
    """A frame plan's transmission units, in the order they are sent.

    ``groups`` follows ``plan.groups``: each group's shared unit, then one
    residual unit per member (``None`` when the member has no residual
    cells).  ``solos`` follows ``plan.solo_users``.
    """

    groups: tuple[tuple[PacketizedUnit, tuple[PacketizedUnit | None, ...]], ...]
    solos: tuple[PacketizedUnit, ...]


def plan_units(plan: FramePlan, config: PacketizationConfig) -> PlanUnits:
    """``plan``'s transmission units, memoised on the plan per ``config``.

    A group's shared map holds the cells every member requests, in sorted
    cell order, each at the largest member demand; a member's residual map
    holds its other cells in its own insertion order.
    """
    units = plan._units.get(config)
    if units is not None:
        return units
    demands = plan.demands
    groups = []
    for members, _rate in plan.groups:
        group_demands = [demands[m] for m in members]
        shared_cells = set(group_demands[0].cell_bytes)
        for d in group_demands[1:]:
            shared_cells &= set(d.cell_bytes)
        shared_map = {
            c: max(d.cell_bytes[c] for d in group_demands)
            for c in sorted(shared_cells)
        }
        residuals = []
        for d in group_demands:
            residual_map = {
                c: b for c, b in d.cell_bytes.items() if c not in shared_cells
            }
            # An all-zero-byte residual still costs a beam switch and a leg.
            residuals.append(
                packetize_cells(residual_map, config) if residual_map else None
            )
        groups.append((packetize_cells(shared_map, config), tuple(residuals)))
    units = plan._units[config] = PlanUnits(
        groups=tuple(groups),
        solos=tuple(
            packetize_cells(demands[u].cell_bytes, config)
            for u in plan.solo_users
        ),
    )
    return units
