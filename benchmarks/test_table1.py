"""Benchmark: regenerate Table 1 (multi-user FPS, vanilla vs. ViVo).

Prints the same rows as the paper's Table 1 and asserts its qualitative
findings:

* 802.11ac cannot support two vanilla users at 30 FPS at any quality;
* 802.11ad carries 3 vanilla users at 30 FPS but not 6;
* ViVo always matches or beats vanilla and extends the 30 FPS range;
* measured per-user rates match the paper's rate column by construction.
"""

import pytest

from repro.experiments import PAPER_TABLE1
from repro.experiments.table1 import row as table1_row
from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_table1(benchmark, print_result):
    merged = benchmark.pedantic(
        run_experiment, args=("table1", {"num_frames": 45}), rounds=1, iterations=1
    )
    print_result(
        "Table 1 (reproduced)", get_experiment("table1").format_result(merged)
    )

    def row(network, n):
        return table1_row(merged, network, n)

    # --- paper finding 1: 802.11ac saturates beyond one vanilla user.
    for n in (2, 3):
        assert all(f < 29.0 for f in row("802.11ac", n)["vanilla_fps"])

    # --- paper finding 2: 802.11ad carries 3 vanilla users at 30 FPS...
    for n in (1, 2, 3):
        assert all(f > 29.0 for f in row("802.11ad", n)["vanilla_fps"])
    # ...but not 6-7 at high quality.
    assert row("802.11ad", 6)["vanilla_fps"][2] < 20.0
    assert row("802.11ad", 7)["vanilla_fps"][2] < 15.0

    # --- paper finding 3: ViVo never loses to vanilla and extends reach.
    for r in merged["rows"]:
        for v, vv in zip(r["vanilla_fps"], r["vivo_fps"]):
            assert vv >= v - 0.5
    assert row("802.11ad", 5)["vivo_fps"][2] > 25.0  # paper: 29.3

    # --- rate column matches the paper's measurements.
    for network, rows in PAPER_TABLE1.items():
        for n, (paper_rate, _, _) in rows.items():
            ours = row(network, n)["per_user_rate_mbps"]
            assert ours == pytest.approx(paper_rate, rel=0.01)

    # --- per-cell FPS values land near the paper's (shape tolerance 20%).
    close, total = 0, 0
    for network, rows in PAPER_TABLE1.items():
        for n, (_, vanilla, vivo) in rows.items():
            ours = row(network, n)
            for paper_fps, our_fps in zip(
                vanilla + vivo, ours["vanilla_fps"] + ours["vivo_fps"]
            ):
                total += 1
                if abs(our_fps - paper_fps) <= max(2.0, 0.2 * paper_fps):
                    close += 1
    assert close / total > 0.85, f"only {close}/{total} cells near the paper"
