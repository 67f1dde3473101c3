"""``packetize_cells`` is one fold, bitwise the per-cell unit sum.

The fold accumulates packets, app bytes and wire bytes left to right in
cell insertion order and builds one ``PacketizedUnit``.  ``_unit_sum``
below is a test-local copy of the construction it replaced: one
``packetize_bytes`` unit per cell, added field by field onto an empty
unit.
"""

import numpy as np
import pytest

from repro.net import (
    PacketizationConfig,
    PacketizedUnit,
    packetize_bytes,
    packetize_cells,
)

CONFIGS = [
    PacketizationConfig(),
    PacketizationConfig(mtu_bytes=600, header_bytes=40),
    PacketizationConfig(mtu_bytes=144, header_bytes=44),
]


def _unit_sum(cell_bytes, config):
    """Each cell's unit, summed onto an empty unit in insertion order."""
    num_packets, app_bytes, wire_bytes = 0, 0.0, 0.0
    for nbytes in cell_bytes.values():
        unit = packetize_bytes(nbytes, config)
        num_packets = num_packets + unit.num_packets
        app_bytes = app_bytes + unit.app_bytes
        wire_bytes = wire_bytes + unit.wire_bytes
    return PacketizedUnit(
        num_packets=num_packets, app_bytes=app_bytes, wire_bytes=wire_bytes
    )


def _same(a, b):
    return (
        a.num_packets == b.num_packets
        and type(a.num_packets) is type(b.num_packets)
        and float(a.app_bytes).hex() == float(b.app_bytes).hex()
        and float(a.wire_bytes).hex() == float(b.wire_bytes).hex()
    )


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("seed", range(6))
def test_fold_equals_the_unit_sum_bitwise(seed, config):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(0, 60))
        cells = rng.choice(1000, size=n, replace=False)
        # Bytes over nine decades, so the left-to-right order shows.
        values = rng.uniform(0, 2, n) * 10.0 ** rng.integers(-2, 7, n)
        values[rng.random(n) < 0.15] = 0.0
        cell_bytes = {int(c): float(v) for c, v in zip(cells, values)}
        assert _same(
            packetize_cells(cell_bytes, config), _unit_sum(cell_bytes, config)
        )


@pytest.mark.parametrize(
    "cell_bytes",
    [
        pytest.param({}, id="empty"),
        pytest.param({3: 0.0, 1: 0.0}, id="zero-byte-cells"),
        pytest.param({5: 1456.0, 2: 1457.0, 9: 0.0}, id="payload-boundary"),
        pytest.param({0: 1e16, 1: 1.0, 2: 1.0}, id="order-sensitive"),
        pytest.param({1: np.float64(3000.5), 2: 7}, id="numpy-and-int-bytes"),
    ],
)
def test_edge_maps_equal_the_unit_sum(cell_bytes):
    for config in CONFIGS:
        assert _same(
            packetize_cells(cell_bytes, config), _unit_sum(cell_bytes, config)
        )


def test_zero_byte_cells_cost_no_packet():
    unit = packetize_cells({4: 0.0, 7: 0.0})
    assert unit == PacketizedUnit(num_packets=0, app_bytes=0.0, wire_bytes=0.0)


def test_negative_bytes_raise_like_the_unit_sum():
    cells = {1: 100.0, 2: -1.0}
    with pytest.raises(ValueError, match="nbytes must be non-negative"):
        packetize_cells(cells)
    with pytest.raises(ValueError, match="nbytes must be non-negative"):
        _unit_sum(cells, PacketizationConfig())


def test_non_positive_payload_raises_like_the_unit_sum():
    # PacketizationConfig itself rejects mtu <= header; bypass it to reach
    # packet_count's own payload check.
    config = PacketizationConfig()
    object.__setattr__(config, "header_bytes", config.mtu_bytes)
    assert config.payload_bytes == 0
    with pytest.raises(ValueError, match="payload_bytes must be positive"):
        packetize_cells({1: 10.0}, config)
    with pytest.raises(ValueError, match="payload_bytes must be positive"):
        _unit_sum({1: 10.0}, config)
