"""Rateless-style FEC sizing and decode sampling."""

import numpy as np
import pytest

from repro.net import (
    FecConfig,
    decode_threshold,
    sample_decodes,
    total_packets_needed,
)
from repro.net.fec import _normal_quantile


def test_decode_threshold():
    assert decode_threshold(0) == 0
    assert decode_threshold(100) == 102  # 2% decode inefficiency
    assert decode_threshold(100, FecConfig(decode_inefficiency=0.0)) == 100
    assert decode_threshold(1) == 2  # ceil(1.02) rounds up


def test_fixed_overhead_mode():
    cfg = FecConfig(overhead=0.25)
    assert total_packets_needed(100, 0.5, cfg) == 125
    # Never below the decode threshold, even with tiny fixed overhead.
    assert total_packets_needed(100, 0.0, FecConfig(overhead=0.0)) == 102


def test_adaptive_sizing_scales_with_loss():
    n_clean = total_packets_needed(1000, 0.0)
    n_5 = total_packets_needed(1000, 0.05)
    n_10 = total_packets_needed(1000, 0.10)
    assert n_clean == decode_threshold(1000)
    assert n_clean < n_5 < n_10
    # Roughly k_eff / (1 - p) plus a tail margin.
    assert n_5 == pytest.approx(decode_threshold(1000) / 0.95, rel=0.05)


def test_outage_hits_the_cap():
    cfg = FecConfig(max_overhead=4.0)
    assert total_packets_needed(100, 1.0, cfg) == 500


def test_adaptive_sizing_actually_decodes():
    # Monte-Carlo check: the weakest member decodes with ~target probability.
    rng = np.random.default_rng(1)
    k, p = 500, 0.1
    n = total_packets_needed(k, p)
    failures = sum(
        not sample_decodes(rng, k, n, [p])[0] for _ in range(2000)
    )
    assert failures / 2000 <= 0.01  # target_residual is 1e-3


def test_sample_decodes_edges():
    rng = np.random.default_rng(0)
    assert sample_decodes(rng, 0, 0, [0.5]) == (True,)
    assert sample_decodes(rng, 100, 50, [0.0]) == (False,)  # below threshold
    assert sample_decodes(rng, 100, 102, [0.0]) == (True,)
    assert sample_decodes(rng, 100, 1000, [1.0]) == (False,)  # hears nothing
    with pytest.raises(ValueError):
        sample_decodes(rng, 100, -1, [0.1])
    with pytest.raises(ValueError):
        sample_decodes(rng, 100, 100, [1.5])


def test_weakest_member_dominates_group():
    # The budget for the worst per covers the better members a fortiori.
    rng = np.random.default_rng(2)
    k = 400
    n = total_packets_needed(k, 0.1)
    oks = sample_decodes(rng, k, n, [0.0, 0.02, 0.1])
    assert oks[0] and oks[1]


def test_config_validation():
    with pytest.raises(ValueError):
        FecConfig(overhead=-0.1)
    with pytest.raises(ValueError):
        FecConfig(target_residual=0.0)
    with pytest.raises(ValueError):
        FecConfig(max_overhead=0.0)


def test_normal_quantile():
    assert _normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
    assert _normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
    assert _normal_quantile(0.999) == pytest.approx(3.090232, abs=1e-4)
    assert _normal_quantile(0.001) == pytest.approx(-3.090232, abs=1e-4)
    with pytest.raises(ValueError):
        _normal_quantile(0.0)
