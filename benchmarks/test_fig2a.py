"""Benchmark: regenerate Fig. 2a (pairwise IoU over time, 50 cm cells).

The paper plots two illustrative user pairs over 300 frames: one watching
"exactly the same content most of the time" (IoU ~ 1 throughout) and one
whose similarity is "low initially [but] increases to 1 towards the end".
"""

import numpy as np
import pytest

from repro.experiments import fig2a
from repro.runner import run_experiment


@pytest.mark.repro
def test_fig2a(benchmark, print_result):
    merged = benchmark.pedantic(
        run_experiment,
        args=("fig2a", {"num_users": 16, "num_frames": 300, "cell_size": 0.5}),
        rounds=1,
        iterations=1,
    )
    stable_pair = tuple(merged["stable_pair"])
    stable_iou = np.array(merged["stable_iou"])
    converging_pair = tuple(merged["converging_pair"])
    converging_iou = np.array(merged["converging_iou"])
    early, late = fig2a.converging_ends(merged)

    def sketch(series, width=60):
        idx = np.linspace(0, len(series) - 1, width).astype(int)
        return "".join(
            " .:-=+*#%@"[min(9, int(series[i] * 9.999))] for i in idx
        )

    body = (
        f"stable pair {stable_pair}: mean IoU "
        f"{fig2a.stable_mean(merged):.3f}\n  [{sketch(stable_iou)}]\n"
        f"converging pair {converging_pair}: {early:.2f} -> {late:.2f} "
        f"(gain {fig2a.converging_gain(merged):+.2f})\n"
        f"  [{sketch(converging_iou)}]"
    )
    print_result("Fig. 2a (reproduced, IoU 0..1 rendered as ' .:-=+*#%@')", body)

    # Stable pair: same content most of the time.
    assert fig2a.stable_mean(merged) > 0.9
    assert float(np.median(stable_iou)) > 0.95

    # Converging pair: low -> high, ending near 1.
    assert late - early > 0.2
    assert late > 0.75

    # Full 300-frame series, values in [0, 1].
    for series in (stable_iou, converging_iou):
        assert len(series) == 300
        assert np.all(series >= 0.0) and np.all(series <= 1.0)
