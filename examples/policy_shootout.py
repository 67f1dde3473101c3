#!/usr/bin/env python
"""Policy shootout: heuristic vs. utility-optimal vs. QoE-aware stacks.

Races the three decision-policy stacks on the classroom scenario — the
paper's heuristics (cross-layer greedy fill + airtime-greedy grouping),
the rate-utility optimizer of Park, Chou & Hwang (arXiv:1804.09864), and
QoE-impact-driven grouping in the spirit of Perfecto et al.
(arXiv:1811.07388) — across loss rates and class sizes, then shows the
static allocation comparison: under the identical MAC budget, the exact
DP allocator's summed utility vs. the greedy equal-share fill.

Run:  python examples/policy_shootout.py
"""

from __future__ import annotations

from repro.runner import get_experiment, run_experiment


def main() -> None:
    print("Racing the policy stacks on the classroom scenario")
    print("(per stack: one closed-loop session per loss x class size)...\n")
    result = run_experiment(
        "policy_comparison",
        {"loss_points": (0.0, 0.05), "user_counts": (2, 6), "duration_s": 5.0},
    )
    print(get_experiment("policy_comparison").format_result(result))
    print()

    # Every stack at a point carries the same allocation comparison.
    gains = {
        (run["loss"], run["num_users"]): run["allocation"]["optimal_utility"]
        - run["allocation"]["heuristic_utility"]
        for run in result["runs"]
    }
    best_point = max(sorted(gains), key=lambda p: gains[p])
    loss, users = best_point
    print(
        f"Largest utility gain over the greedy fill: +{gains[best_point]:.4f} "
        f"at {loss * 100:.0f}% loss with {users} users."
    )
    assert result["utility_dominates"], "exact DP lost to a heuristic fill?!"
    print("The DP allocation never does worse — it is exact on the lattice.")


if __name__ == "__main__":
    main()
