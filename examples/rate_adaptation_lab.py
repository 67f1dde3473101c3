#!/usr/bin/env python
"""Rate-adaptation lab: compare adaptation policies under a hostile link.

Streams the same blockage-prone 6-user session under five policies —
fixed-high (no adaptation), throughput-EWMA, buffer-based, MPC, and the
paper's cross-layer scheme (PHY RSS + blockage forecast + app history) — and prints
the resulting quality/stall/QoE trade-off (ablation Abl-D at example scale).

Run:  python examples/rate_adaptation_lab.py
"""

from __future__ import annotations

from repro.runner import get_experiment, run_experiment

STUDY = "ablation_adaptation"


def main() -> None:
    print("Running the adaptation-policy comparison (6 users, 802.11ad,")
    print("human blockage, reactive beam recovery)...\n")
    merged = run_experiment(STUDY, {"num_users": 6, "duration_s": 8.0})
    print(get_experiment(STUDY).format_result(merged))
    print()
    rows = {r["policy"]: r["summary"] for r in merged["rows"]}
    best = max(rows, key=lambda k: rows[k]["qoe_score"])
    print(f"Best policy by QoE: {best}")
    if rows["cross-layer"]["stall_time_s"] <= rows["fixed-high"]["stall_time_s"]:
        saved = (
            rows["fixed-high"]["stall_time_s"]
            - rows["cross-layer"]["stall_time_s"]
        )
        print(f"Cross-layer adaptation removed {saved:.2f} s of stalls "
              "relative to fixed-high.")

if __name__ == "__main__":
    main()
