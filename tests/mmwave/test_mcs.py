"""802.11ad MCS table tests — including the paper's calibration anchors."""

import pytest

from repro.mmwave import (
    MAC_EFFICIENCY,
    MCS_TABLE,
    app_rate_mbps,
    mcs_for_rss,
    phy_rate_mbps,
)


def test_table_has_twelve_entries():
    assert len(MCS_TABLE) == 12
    assert [e.index for e in MCS_TABLE] == list(range(1, 13))


def test_phy_rates_monotone_in_index():
    rates = [e.phy_rate_mbps for e in MCS_TABLE]
    assert rates == sorted(rates)


def test_paper_anchor_minus68_gives_385():
    # "RSS of -68 dBm ... approximately 384 Mbps data rate"
    assert phy_rate_mbps(-68.0) == pytest.approx(385.0)


def test_paper_anchor_max_app_rate_1270():
    # Peak application throughput measured on the testbed.
    assert app_rate_mbps(-40.0) == pytest.approx(1270.0, rel=0.01)
    assert MCS_TABLE[-1].app_rate_mbps == pytest.approx(
        4620.0 * MAC_EFFICIENCY
    )


def test_outage_below_mcs1_sensitivity():
    assert mcs_for_rss(-68.01) is None
    assert phy_rate_mbps(-75.0) == 0.0
    assert app_rate_mbps(-75.0) == 0.0


def test_selection_is_by_rate_not_index():
    # At -63 dBm both MCS 5 (-62: no) and MCS 6 (-63: yes) boundaries
    # matter; the spec quirk means MCS 6 decodes at lower RSS than MCS 5.
    entry = mcs_for_rss(-63.0)
    assert entry is not None
    assert entry.index == 6


def test_rate_increases_with_rss():
    prev = 0.0
    for rss in (-68, -65, -60, -55, -53, -40):
        rate = phy_rate_mbps(rss)
        assert rate >= prev
        prev = rate


def test_boundary_exactness():
    assert mcs_for_rss(-53.0).index == 12
    assert mcs_for_rss(-53.01).index == 11


def test_sensitivities_within_spec_range():
    for e in MCS_TABLE:
        assert -70.0 < e.sensitivity_dbm < -50.0
