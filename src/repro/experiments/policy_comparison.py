"""Policy comparison: heuristic vs. utility-optimal vs. QoE-aware stacks.

Head-to-head evaluation of the selectable decision policies across loss
and user-count axes, with two complementary measurements per operating
point:

* **Closed loop** — one full streaming session per policy stack
  (adaptation policy x grouping strategy) under identical content, rates,
  blockage and transport conditions; reported as session QoE and frame
  rate.
* **Allocation** — the static rate-utility question the tentpole poses:
  under the *identical* MAC-reported throughput budget, compare the
  summed utility of the heuristic equal-share greedy fill
  (``CrossLayerPolicy``'s quality rule) against the exact DP allocator of
  :mod:`repro.core.utility`.  The DP is exact over the quality lattice,
  so ``optimal_utility >= heuristic_utility`` must hold at every swept
  point; the merged result carries that as ``utility_dominates`` and the
  golden fixture pins it.

Three stacks:

* ``heuristic`` — ``CrossLayerPolicy`` + ``greedy`` similarity grouping
  (the paper's defaults);
* ``utility``  — ``UtilityOptimalPolicy`` + ``greedy`` grouping;
* ``qoe-aware`` — ``CrossLayerPolicy`` + ``qoe`` grouping.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    CapacityRateProvider,
    CrossLayerPolicy,
    SessionConfig,
    StreamingSession,
    UserAllocationInput,
    UtilityOptimalPolicy,
    allocate_qualities,
    assignment_utility,
    quality_rate_table,
)
from ..mac import AD_MODEL, RecoveryPolicy, apply_recovery
from ..mmwave import compute_blockage_timeline
from ..net import TransportConfig
from ..pointcloud import CellGrid, VisibilityConfig, compute_visibility
from ..runner import Experiment, RunSpec, register
from .common import (
    AP_POSITION,
    CONTENT_CENTER,
    DEFAULT_SEED,
    format_table,
    room_video,
    study_in_room,
)

__all__ = [
    "POLICY_STACKS",
    "DEFAULT_POLICY_LOSS_POINTS",
    "DEFAULT_POLICY_USER_COUNTS",
    "run_one",
]

# stack name -> (adaptation policy string, grouping string)
POLICY_STACKS: dict[str, tuple[str, str]] = {
    "heuristic": ("cross-layer", "greedy"),
    "utility": ("utility-optimal", "greedy"),
    "qoe-aware": ("cross-layer", "qoe"),
}

DEFAULT_POLICY_LOSS_POINTS = (0.0, 0.02, 0.05)
DEFAULT_POLICY_USER_COUNTS = (2, 4, 6)


def _allocation_comparison(
    study, video, rates: CapacityRateProvider, loss: float, num_users: int
) -> dict:
    """Greedy-fill vs. DP summed utility under one identical MAC budget.

    The budget is the MAC's reported aggregate throughput at t=0, shrunk
    by the swept loss rate (lost airtime serves nobody).  The heuristic
    arm is ``CrossLayerPolicy``'s quality rule applied to an equal share
    of that budget per user; the optimal arm is the exact DP allocator
    over the same users, weights, and budget.
    """
    budget_mbps = rates.unicast_rate_mbps(0, 0) * (1.0 - loss)
    grid = CellGrid.covering(video.bounds, 0.5, margin=0.05)
    occupancy = grid.occupancy(video[0])
    users = []
    # One viewer per call: perfbench/layers.py times this experiment's
    # visibility by patching ``compute_visibility`` in this module.
    for u in range(num_users):
        pose = study.traces[u].pose_at(0.0)
        vis = compute_visibility(occupancy, pose.frustum(), VisibilityConfig())
        distance_m = float(np.linalg.norm(pose.position - CONTENT_CENTER))
        users.append(
            UserAllocationInput(
                user_id=u,
                visible_fraction=float(vis.visible_fraction),
                distance_m=distance_m,
            )
        )

    share = budget_mbps / num_users
    heuristic = {}
    for user in users:
        quality = "low"
        for name, rate in quality_rate_table(user.visible_fraction):
            if rate <= share:
                quality = name
        heuristic[user.user_id] = quality
    heuristic_utility, heuristic_rate = assignment_utility(users, heuristic)
    optimal = allocate_qualities(users, budget_mbps)
    dominates = bool(
        optimal.total_utility >= heuristic_utility - 1e-9
        or heuristic_rate > budget_mbps  # greedy floor busted the budget
    )
    return {
        "budget_mbps": float(budget_mbps),
        "heuristic_utility": float(heuristic_utility),
        "heuristic_rate_mbps": float(heuristic_rate),
        "optimal_utility": float(optimal.total_utility),
        "optimal_rate_mbps": float(optimal.total_rate_mbps),
        "optimal_feasible": bool(optimal.feasible),
        "utility_dominates": dominates,
    }


def run_one(spec: RunSpec) -> dict:
    """One policy stack at one (loss, user-count) operating point.

    One closed-loop session plus the static allocation comparison at the
    point; deterministic for a fixed seed.
    """
    stack = str(spec.get("stack"))
    if stack not in POLICY_STACKS:
        raise ValueError(
            f"unknown policy stack {stack!r}; choose from {sorted(POLICY_STACKS)}"
        )
    loss = float(spec.get("loss"))
    num_users = int(spec.get("num_users"))
    duration_s = float(spec.get("duration_s"))
    seed = spec.seed
    adaptation_name, grouping = POLICY_STACKS[stack]

    study = study_in_room(num_users=num_users, duration_s=duration_s, seed=seed)
    video = room_video("high")
    timeline = compute_blockage_timeline(study, AP_POSITION)
    recovered = apply_recovery(
        timeline, RecoveryPolicy.proactive_default(), seed=seed
    )
    rates = CapacityRateProvider(
        model=AD_MODEL, num_users=num_users, timeline=recovered
    )
    adaptation = (
        UtilityOptimalPolicy()
        if adaptation_name == "utility-optimal"
        else CrossLayerPolicy()
    )
    config = SessionConfig(
        video=video,
        study=study,
        rates=rates,
        visibility=VisibilityConfig(),
        grouping=grouping,
        adaptation=adaptation,
        duration_s=duration_s,
        transport=TransportConfig(mode="hybrid", seed=seed).with_base_per(loss),
    )
    report = StreamingSession(config).run()
    summary = report.summary()
    played = sum(user.frames_played for user in report.users)
    on_time = sum(user.frames_on_time for user in report.users)
    summary["late_fraction"] = 1.0 - (on_time / played if played else 0.0)

    return {
        "stack": stack,
        "loss": loss,
        "num_users": num_users,
        "session": summary,
        "allocation": _allocation_comparison(
            study, video, rates, loss, num_users
        ),
    }


def _decompose(params: dict) -> list[RunSpec]:
    for stack in params["stacks"]:
        if stack not in POLICY_STACKS:
            raise ValueError(
                f"unknown policy stack {stack!r}; choose from "
                f"{sorted(POLICY_STACKS)}"
            )
    return [
        RunSpec.make(
            "policy_comparison",
            seed=params["seed"],
            stack=stack,
            loss=loss,
            num_users=num_users,
            duration_s=params["duration_s"],
        )
        for stack in params["stacks"]
        for loss in params["loss_points"]
        for num_users in params["user_counts"]
    ]


def _merge(params: dict, runs: list) -> dict:
    results = [result for _, result in runs]
    return {
        "stacks": list(params["stacks"]),
        "loss_points": [float(p) for p in params["loss_points"]],
        "user_counts": [int(n) for n in params["user_counts"]],
        "runs": results,
        "utility_dominates": all(
            r["allocation"]["utility_dominates"] for r in results
        ),
    }


def _format(merged: dict) -> str:
    stacks = merged["stacks"]
    runs = {(r["stack"], r["loss"], r["num_users"]): r for r in merged["runs"]}
    headers = ["loss", "users"] + [
        f"{stack} qoe|fps" for stack in stacks
    ] + ["heur_u", "opt_u"]
    rows = []
    for loss in merged["loss_points"]:
        for n in merged["user_counts"]:
            row: list = [f"{loss * 100:.0f}%", n]
            for stack in stacks:
                session = runs[(stack, loss, n)]["session"]
                row.append(f"{session['qoe_score']:7.1f}|{session['mean_fps']:4.1f}")
            # Every stack at a point carries the same allocation arm.
            allocation = runs[(stacks[-1], loss, n)]["allocation"]
            row.append(f"{allocation['heuristic_utility']:.4f}")
            row.append(f"{allocation['optimal_utility']:.4f}")
            rows.append(row)
    verdict = (
        "DP allocator weakly dominates the greedy fill at every point"
        if merged["utility_dominates"]
        else "DP allocator LOST to the greedy fill somewhere (bug!)"
    )
    return format_table(headers, rows) + f"\n{verdict}"


EXPERIMENT = register(
    Experiment(
        name="policy_comparison",
        title="Policy comparison — heuristic vs. utility-optimal vs. QoE-aware",
        run_one=run_one,
        decompose=_decompose,
        merge=_merge,
        format_result=_format,
        default_params={
            "stacks": tuple(POLICY_STACKS),
            "loss_points": DEFAULT_POLICY_LOSS_POINTS,
            "user_counts": DEFAULT_POLICY_USER_COUNTS,
            "duration_s": 5.0,
            "seed": DEFAULT_SEED,
        },
        small_params={
            "loss_points": (0.0, 0.05),
            "user_counts": (2, 4),
            "duration_s": 3.0,
        },
    )
)

