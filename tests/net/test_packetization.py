"""Packetization: byte demands -> MTU-sized PDUs."""

import pytest

from repro.net import (
    DEFAULT_HEADER_BYTES,
    DEFAULT_MTU_BYTES,
    PacketizationConfig,
    PacketizedUnit,
    packet_count,
    packetize_bytes,
    packetize_cells,
)


def test_payload_bytes():
    cfg = PacketizationConfig()
    assert cfg.payload_bytes == DEFAULT_MTU_BYTES - DEFAULT_HEADER_BYTES


def test_config_validation():
    with pytest.raises(ValueError):
        PacketizationConfig(mtu_bytes=40, header_bytes=44)
    with pytest.raises(ValueError):
        PacketizationConfig(header_bytes=-1)


def test_packet_count_ceils():
    assert packet_count(0, 100) == 0
    assert packet_count(1, 100) == 1
    assert packet_count(100, 100) == 1
    assert packet_count(101, 100) == 2
    with pytest.raises(ValueError):
        packet_count(-1, 100)


def test_packetize_bytes_wire_overhead():
    cfg = PacketizationConfig(mtu_bytes=144, header_bytes=44)  # payload 100
    unit = packetize_bytes(250, cfg)
    assert unit.num_packets == 3
    assert unit.app_bytes == 250
    assert unit.wire_bytes == 250 + 3 * 44


def test_cells_never_share_a_pdu():
    cfg = PacketizationConfig(mtu_bytes=144, header_bytes=44)  # payload 100
    # Two 50-byte cells would fit one PDU if merged; they must take two.
    unit = packetize_cells({0: 50.0, 1: 50.0}, cfg)
    assert unit.num_packets == 2
    merged = packetize_bytes(100.0, cfg)
    assert merged.num_packets == 1


def test_packetize_cells_sums_each_cell():
    cells = {0: 3000.0, 1: 700.0}
    a, b = packetize_bytes(3000.0), packetize_bytes(700.0)
    assert packetize_cells(cells) == PacketizedUnit(
        num_packets=a.num_packets + b.num_packets,
        app_bytes=a.app_bytes + b.app_bytes,
        wire_bytes=a.wire_bytes + b.wire_bytes,
    )


def test_airtime():
    unit = PacketizedUnit(num_packets=1, app_bytes=1000.0, wire_bytes=1250.0)
    assert unit.airtime_s(10.0) == pytest.approx(1250 * 8 / 10e6)
    assert unit.airtime_s(0.0) == float("inf")
    empty = PacketizedUnit(num_packets=0, app_bytes=0.0, wire_bytes=0.0)
    assert empty.airtime_s(0.0) == 0.0

