"""Benchmark Abl-E: segmentation-granularity sweep (paper §3).

Finer cells cut per-user traffic (tighter visibility) but reduce viewport
IoU — the trade-off behind the paper's choice of cell sizes.
"""

import pytest

from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_ablation_cellsize(benchmark, print_result, ablation_workload):
    name = "ablation_cellsize"
    merged = benchmark.pedantic(
        run_experiment,
        args=(name, ablation_workload("cellsize")),
        rounds=1,
        iterations=1,
    )
    print_result("Abl-E: cell-size sweep", get_experiment(name).format_result(merged))

    rows = {
        r["cell_size"]: (r["pair_iou"], r["visible_fraction"], r["mb_per_frame"])
        for r in merged["rows"]
    }
    sizes = sorted(rows)
    ious = [rows[s][0] for s in sizes]
    traffic = [rows[s][2] for s in sizes]

    # Coarser cells -> more viewport similarity (Fig. 2b's granularity
    # effect, swept over all three paper cell sizes).
    assert ious[0] < ious[-1]
    # Finer cells -> less data fetched per frame.
    assert traffic[0] < traffic[-1]
    # All cell sizes preserve a meaningful multicast opportunity.
    assert all(iou > 0.2 for iou in ious)
