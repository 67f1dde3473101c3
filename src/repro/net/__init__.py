"""Packet-level transport: packetization, loss, ARQ, and multicast FEC.

The layer between the MAC scheduler's frame plans and the streaming
session: frames become MTU-sized PDUs, PDUs are lost with a PHY-derived
probability, and losses are recovered by block-ACK ARQ (unicast) or
rateless-style FEC (multicast) under a per-frame deadline budget.  The
``ideal`` mode reproduces the pre-transport fluid model bit-for-bit.
"""

from .arq import (
    ArqConfig,
    ArqOutcome,
    block_arq_process,
    simulate_block_arq,
)
from .config import TRANSPORT_MODES, TransportConfig
from .errormodel import (
    BLOCKED_PER,
    PER_AT_SENSITIVITY,
    PER_DECADE_DB,
    PER_FLOOR,
    PacketErrorModel,
    per_for_rss,
    per_from_margin_db,
)
from .fec import (
    FecConfig,
    decode_threshold,
    sample_decodes,
    total_packets_needed,
)
from .packetization import (
    DEFAULT_HEADER_BYTES,
    DEFAULT_MTU_BYTES,
    PacketizationConfig,
    PacketizedUnit,
    packet_count,
    packetize_bytes,
    packetize_cells,
)
from .transport import FrameOutcome, TransportSimulator

__all__ = [
    "ArqConfig",
    "ArqOutcome",
    "block_arq_process",
    "simulate_block_arq",
    "TRANSPORT_MODES",
    "TransportConfig",
    "BLOCKED_PER",
    "PER_AT_SENSITIVITY",
    "PER_DECADE_DB",
    "PER_FLOOR",
    "PacketErrorModel",
    "per_for_rss",
    "per_from_margin_db",
    "FecConfig",
    "decode_threshold",
    "sample_decodes",
    "total_packets_needed",
    "DEFAULT_HEADER_BYTES",
    "DEFAULT_MTU_BYTES",
    "PacketizationConfig",
    "PacketizedUnit",
    "packet_count",
    "packetize_bytes",
    "packetize_cells",
    "FrameOutcome",
    "TransportSimulator",
]
