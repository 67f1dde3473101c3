"""PHY state -> per-packet error probability."""

import pytest

from repro.mmwave.mcs import MCS_TABLE, mcs_for_rss
from repro.net import (
    BLOCKED_PER,
    PER_AT_SENSITIVITY,
    PER_DECADE_DB,
    PER_FLOOR,
    PacketErrorModel,
    per_for_rss,
    per_from_margin_db,
)


def test_per_at_knee_is_reference():
    assert per_from_margin_db(0.0) == pytest.approx(PER_AT_SENSITIVITY)


def test_waterfall_decade_per_step():
    assert per_from_margin_db(PER_DECADE_DB) == pytest.approx(
        PER_AT_SENSITIVITY / 10.0
    )
    assert per_from_margin_db(2 * PER_DECADE_DB) == pytest.approx(
        PER_AT_SENSITIVITY / 100.0
    )


def test_waterfall_clamps():
    assert per_from_margin_db(100.0) == PER_FLOOR
    assert per_from_margin_db(-100.0) == 1.0


def test_per_for_rss_outage_below_mcs1():
    weakest = min(e.sensitivity_dbm for e in MCS_TABLE)
    assert per_for_rss(weakest - 1.0) == 1.0


def test_per_for_rss_uses_selected_mcs_margin():
    rss = -60.0
    entry = mcs_for_rss(rss)
    assert per_for_rss(rss) == pytest.approx(
        per_from_margin_db(rss - entry.sensitivity_dbm)
    )


def test_per_for_rss_monotone_within_mcs_step():
    # More margin over the same MCS knee -> lower loss.
    entry = mcs_for_rss(-60.0)
    assert per_for_rss(-60.0, entry) < per_for_rss(-60.5, entry)


def test_model_precedence():
    model = PacketErrorModel(base_per=0.1)
    assert model.per(rss_dbm=-55.0) == 0.1  # override wins over RSS
    assert PacketErrorModel().per(rss_dbm=-68.0) == pytest.approx(
        per_for_rss(-68.0)
    )
    assert PacketErrorModel().per() == 0.0  # no PHY state -> clean link


def test_blockage_saturates():
    model = PacketErrorModel(base_per=0.01)
    assert model.per(blocked=True) == BLOCKED_PER
    high = PacketErrorModel(base_per=0.95)
    assert high.per(blocked=True) == 0.95  # never *lowers* the loss


def test_model_validation():
    with pytest.raises(ValueError):
        PacketErrorModel(base_per=1.5)
    with pytest.raises(ValueError):
        PacketErrorModel(blocked_per=-0.1)

