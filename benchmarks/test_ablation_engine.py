"""Benchmark the ablation engine: full component matrix, ranked importance.

This is the engine-driven successor of the six hand-rolled ablation
benchmarks: one declarative study over every cross-layer component,
asserting the paper-level ordering (§4) on the importance ranking.
"""

import pytest

from repro.ablation import format_report
from repro.runner import run_experiment


@pytest.mark.repro
def test_ablation_engine_full_matrix(benchmark, print_result):
    def run():
        return run_experiment("ablation_importance", workers=2)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_result("Ablation engine: component importance", format_report(report))

    importance = {
        entry["component"]: entry["score"] for entry in report["ranking"]
    }
    ranking = [entry["component"] for entry in report["ranking"]]
    # Multicast grouping is the single most valuable component — the
    # paper's core §4.2 argument — and by a wide margin.
    assert ranking[0] == "grouping"
    assert importance["grouping"] == pytest.approx(1.0)
    # The MAC/transport components (beams, FEC) and adaptation all carry
    # substantial weight under loss; none is a no-op.
    for name in ("custom_beams", "fec", "adaptation"):
        assert importance[name] > 0.3
    # No component is actively harmful at this operating point.
    assert all(score > -0.05 for score in importance.values())
    # Removing grouping collapses the session: stalls explode vs. baseline.
    baseline = report["baseline"]
    no_grouping = next(
        run["metrics"] for run in report["runs"] if run["label"] == "no-grouping"
    )
    assert baseline["stall_time_s"] < 1.0
    assert no_grouping["stall_time_s"] > 10.0
