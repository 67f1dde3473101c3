"""Benchmark: regenerate Fig. 2b (CDFs of viewport IoU across settings).

Asserts the paper's three comparative findings:

* segmentation granularity: HM(2)-Seg(100cm) stochastically dominates
  HM(2)-Seg(50cm) — fewer, larger cells raise IoU;
* device type: PH(2) > HM(2) at 50 cm — phone users move less freely;
* group size: HM(3) < HM(2) at 50 cm — more users, less common overlap.
"""

import numpy as np
import pytest

from repro.experiments import FIG2B_CURVES, empirical_cdf, fig2b
from repro.runner import run_experiment


@pytest.mark.repro
def test_fig2b(benchmark, print_result):
    merged = benchmark.pedantic(
        run_experiment,
        args=("fig2b", {"num_users": 32, "duration_s": 10.0}),
        rounds=1,
        iterations=1,
    )
    samples_by_curve = fig2b.curve_samples(merged)

    lines = []
    for curve in FIG2B_CURVES:
        samples = samples_by_curve[curve]
        qs = np.percentile(samples, [10, 25, 50, 75, 90])
        lines.append(
            f"{curve:18s} mean {np.mean(samples):.3f}  "
            f"p10/p25/p50/p75/p90 = "
            + "/".join(f"{q:.2f}" for q in qs)
        )
    print_result("Fig. 2b (reproduced IoU distributions)", "\n".join(lines))

    means = fig2b.mean_iou(merged)
    medians = {c: float(np.median(samples_by_curve[c])) for c in FIG2B_CURVES}

    # Finding 1: coarser segmentation -> higher similarity.
    assert means["HM(2)-Seg(100cm)"] > means["HM(2)-Seg(50cm)"]
    assert medians["HM(2)-Seg(100cm)"] >= medians["HM(2)-Seg(50cm)"]

    # Finding 2: phone users overlap more than headset users.
    assert means["PH(2)-Seg(50cm)"] > means["HM(2)-Seg(50cm)"]

    # Finding 3: larger groups overlap less.
    assert means["HM(3)-Seg(50cm)"] < means["HM(2)-Seg(50cm)"]

    # All curves span a meaningful range (not degenerate at 0 or 1) and the
    # similarity opportunity the paper leverages exists: substantial mass
    # at high IoU.
    for curve in FIG2B_CURVES:
        xs, _ = empirical_cdf(samples_by_curve[curve])
        assert xs[0] < 0.9
        assert xs[-1] > 0.6
        assert float(np.mean(samples_by_curve[curve] > 0.5)) > 0.2
