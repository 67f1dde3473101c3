"""Experiment-runner sanity tests (small-scale; full scale in benchmarks/)."""

import numpy as np
import pytest

from repro.experiments import (
    cdf_at,
    empirical_cdf,
    fig2a,
    fig2b,
    fig3b,
    fig3d,
    fig3e,
    format_table,
    table1,
)
from repro.runner import get_experiment, run_experiment


def test_empirical_cdf():
    xs, ps = empirical_cdf(np.array([3.0, 1.0, 2.0]))
    assert np.allclose(xs, [1.0, 2.0, 3.0])
    assert np.allclose(ps, [1 / 3, 2 / 3, 1.0])
    with pytest.raises(ValueError):
        empirical_cdf(np.array([]))


def test_cdf_at():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    assert cdf_at(samples, 2.5) == pytest.approx(0.5)
    assert cdf_at(samples, 0.0) == 0.0
    assert cdf_at(samples, 10.0) == 1.0


def test_format_table_alignment():
    text = format_table(["A", "Blah"], [["x", 1.25], ["longer", 2.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.2" in text
    assert "longer" in text


def test_table1_small_run_shape():
    result = run_experiment("table1", {"num_frames": 6, "networks": ("802.11ac",)})
    assert len(result["rows"]) == 3
    row1 = table1.row(result, "802.11ac", 1)
    assert row1["per_user_rate_mbps"] == pytest.approx(374.0)
    assert all(f == 30.0 for f in row1["vanilla_fps"])
    # Three users cannot sustain 30 FPS vanilla at high quality.
    row3 = table1.row(result, "802.11ac", 3)
    assert row3["vanilla_fps"][2] < 15.0
    # ViVo always at least matches vanilla.
    for row in result["rows"]:
        for v, vv in zip(row["vanilla_fps"], row["vivo_fps"]):
            assert vv >= v - 0.5
    assert "802.11ac" in get_experiment("table1").format_result(result)


def test_table1_unknown_row_raises():
    result = run_experiment("table1", {"num_frames": 3, "networks": ("802.11ac",)})
    with pytest.raises(KeyError):
        table1.row(result, "802.11ad", 1)


def test_table1_rejects_unknown_network():
    with pytest.raises(ValueError, match="802.11zz.*valid networks"):
        run_experiment("table1", {"networks": ("802.11zz",)})


def test_fig2a_regimes():
    result = run_experiment("fig2a", {"num_users": 10, "num_frames": 120})
    assert result["stable_pair"] != result["converging_pair"]
    assert fig2a.stable_mean(result) > 0.8
    assert fig2a.converging_gain(result) > 0.0
    stable_iou = np.array(result["stable_iou"])
    assert len(stable_iou) == 120
    assert np.all(stable_iou >= 0) and np.all(stable_iou <= 1)


def test_fig2b_orderings():
    result = run_experiment("fig2b", {"num_users": 12, "duration_s": 3.0})
    means = fig2b.mean_iou(result)
    # The paper's three findings.
    assert means["HM(2)-Seg(100cm)"] > means["HM(2)-Seg(50cm)"]
    assert means["PH(2)-Seg(50cm)"] > means["HM(2)-Seg(50cm)"]
    assert means["HM(3)-Seg(50cm)"] < means["HM(2)-Seg(50cm)"]
    for curve, samples in fig2b.curve_samples(result).items():
        assert np.all(samples >= 0.0) and np.all(samples <= 1.0)


def test_fig3b_coverage_decreases_with_group_size():
    result = run_experiment("fig3b", {"num_instants": 40})
    cov = fig3b.coverage(result)
    assert cov[1] > cov[2] > cov[3]
    assert cov[1] > 0.7
    for samples in fig3b.group_samples(result).values():
        assert np.all(samples < -40.0)  # plausible dBm range
        assert np.all(samples > -110.0)


def test_fig3d_custom_beams_improve_common_rss():
    result = run_experiment("fig3d", {"num_instants": 60})
    summary = fig3d.summary(result)
    assert summary["mean_improvement_db"] > 0.5
    assert summary["win_fraction"] > 0.3
    # Custom never loses (the design falls back to the default beam).
    default_rss, custom_rss = fig3d.rss_samples(result)
    assert np.all(custom_rss >= default_rss - 1e-9)


def test_fig3e_scheme_ordering():
    result = run_experiment("fig3e", {"num_instants": 25})
    means = fig3e.mean_throughput(result)
    assert means["multicast-custom"] >= means["multicast-default"]
    assert means["multicast-custom"] > means["unicast"]
    # The paper's warning: default-beam multicast sometimes loses to unicast.
    assert 0.0 <= fig3e.default_worse_than_unicast_fraction(result) <= 1.0
    for samples in fig3e.normalized_throughput(result).values():
        assert np.all(samples >= 0.0) and np.all(samples <= 1.0 + 1e-9)
