"""Declarative catalog of adaptation policies and grouping strategies.

The single source of truth behind ``docs/POLICIES.md`` (rendered and
drift-checked by ``tools/gen_policies_doc.py``): every selectable
adaptation policy and multicast grouping strategy, what it looks at, what
it optimizes, what it costs, and which experiments exercise it.  Tests
assert the catalog covers every registered implementation, so adding a
policy without cataloging it fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PolicyInfo",
    "adaptation_policy_catalog",
    "grouping_strategy_catalog",
]


@dataclass(frozen=True)
class PolicyInfo:
    """One catalog entry: a selectable policy or strategy and its contract."""

    name: str  # the selection string (policy_name / GroupingResult.policy)
    kind: str  # "adaptation" | "grouping"
    implementation: str  # dotted path of the class or function
    summary: str
    decision_inputs: str
    objective: str
    complexity: str
    when_to_use: str
    exercised_by: tuple[str, ...]  # experiments / ablation components / figures

    def __post_init__(self) -> None:
        if self.kind not in ("adaptation", "grouping"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not self.exercised_by:
            raise ValueError(f"policy {self.name!r} lists no exercising entry point")


_ADAPTATION_CATALOG: tuple[PolicyInfo, ...] = (
    PolicyInfo(
        name="buffer",
        kind="adaptation",
        implementation="repro.core.adaptation.BufferPolicy",
        summary="Buffer-threshold ladder (BBA-style): low buffer maps to low "
                "quality.",
        decision_inputs="client buffer level only",
        objective="avoid rebuffering via reservoir/cushion thresholds",
        complexity="O(1) per decision",
        when_to_use="single-layer baseline isolating buffer occupancy as the "
                    "control signal",
        exercised_by=("ablation_adaptation",),
    ),
    PolicyInfo(
        name="cross-layer",
        kind="adaptation",
        implementation="repro.core.adaptation.CrossLayerPolicy",
        summary="The paper's scheme: cross-layer bandwidth prediction, "
                "blockage prefetch, regroup hints, greedy budget fill.",
        decision_inputs="PHY RSS, blockage forecast, app throughput history, "
                        "buffer level, transport loss/retx feedback",
        objective="highest quality whose visibility-scaled bitrate fits the "
                  "predicted safe budget",
        complexity="O(|qualities|) per decision",
        when_to_use="the default closed-loop policy; the heuristic baseline "
                    "in policy_comparison",
        exercised_by=("table1", "loss_sweep", "ablation_adaptation",
                      "policy_comparison"),
    ),
    PolicyInfo(
        name="fixed",
        kind="adaptation",
        implementation="repro.core.adaptation.FixedQualityPolicy",
        summary="No adaptation: always stream the configured quality.",
        decision_inputs="none",
        objective="constant quality (Table 1 operating mode)",
        complexity="O(1) per decision",
        when_to_use="no-adaptation baselines and capacity measurements",
        exercised_by=("table1", "fig2a", "fig2b", "ablation_adaptation"),
    ),
    PolicyInfo(
        name="mpc",
        kind="adaptation",
        implementation="repro.core.mpc.MpcPolicy",
        summary="Model-predictive control: enumerate quality sequences over "
                "a short horizon, commit the best first step.",
        decision_inputs="app throughput EWMA, buffer level",
        objective="maximize linear QoE (bitrate - stall - switches) over the "
                  "lookahead horizon",
        complexity="O(|qualities|^horizon) per decision (27 at defaults)",
        when_to_use="strong single-layer planning baseline (paper cite [33])",
        exercised_by=("ablation_adaptation",),
    ),
    PolicyInfo(
        name="proactive-prefetch",
        kind="adaptation",
        implementation="repro.core.adaptation.ProactivePrefetchPolicy",
        summary="Fixed quality plus prefetch ahead of predicted blockages.",
        decision_inputs="blockage forecast only",
        objective="isolate the paper's §4.1 prefetch mechanism from quality "
                  "adaptation",
        complexity="O(1) per decision",
        when_to_use="blockage-mitigation ablations",
        exercised_by=("fig3d", "ablation_blockage"),
    ),
    PolicyInfo(
        name="throughput",
        kind="adaptation",
        implementation="repro.core.adaptation.ThroughputPolicy",
        summary="Rate-based DASH: top quality under a safety factor of the "
                "app-layer EWMA.",
        decision_inputs="app throughput history only",
        objective="highest quality fitting the EWMA-predicted rate",
        complexity="O(|qualities|) per decision",
        when_to_use="single-layer baseline isolating throughput prediction",
        exercised_by=("ablation_adaptation",),
    ),
    PolicyInfo(
        name="utility-optimal",
        kind="adaptation",
        implementation="repro.core.utility.UtilityOptimalPolicy",
        summary="Rate-utility optimization (arXiv:1804.09864): maximize "
                "visibility/distance-weighted log-rate utility net of an "
                "airtime price.",
        decision_inputs="same cross-layer signals as cross-layer, plus the "
                        "utility model's visibility weight",
        objective="argmax utility(rate) - airtime_price * rate within the "
                  "predicted budget",
        complexity="O(|qualities|) per decision; allocator DP is exact over "
                   "the quality lattice",
        when_to_use="when summed utility across users matters more than "
                    "per-user max quality; the utility arm of "
                    "policy_comparison",
        exercised_by=("policy_comparison", "utility_adaptation"),
    ),
)


_GROUPING_CATALOG: tuple[PolicyInfo, ...] = (
    PolicyInfo(
        name="exhaustive",
        kind="grouping",
        implementation="repro.core.grouping.exhaustive_grouping",
        summary="Optimal partition by Bell-number enumeration.",
        decision_inputs="full demand set and multicast rate function",
        objective="global minimum total frame airtime",
        complexity="O(Bell(n)) plans; refuses beyond 9 users",
        when_to_use="gold standard for grouping ablations at paper scale",
        exercised_by=("ablation_grouping",),
    ),
    PolicyInfo(
        name="greedy-similarity",
        kind="grouping",
        implementation="repro.core.grouping.greedy_similarity_grouping",
        summary="The paper's §4.2 grouper: merge the most IoU-similar groups "
                "while airtime strictly drops.",
        decision_inputs="viewport cell overlap (IoU), multicast rates",
        objective="minimize total frame airtime (the 1/F deadline is "
                  "reported, not enforced)",
        complexity="O(n^3) plan evaluations worst case",
        when_to_use="the default multicast grouper everywhere",
        exercised_by=("table1", "fig3e", "venue_scale", "ablation_grouping",
                      "policy_comparison"),
    ),
    PolicyInfo(
        name="qoe-aware",
        kind="grouping",
        implementation="repro.core.grouping.qoe_aware_grouping",
        summary="Merge candidates scored by predicted QoE delta "
                "(arXiv:1811.07388 spirit) instead of raw airtime.",
        decision_inputs="viewport IoU candidates, frame-plan airtime mapped "
                        "to predicted bitrate/stall QoE",
        objective="maximize predicted per-user QoE; stops merging once the "
                  "target frame rate is met",
        complexity="O(n^3) plan evaluations worst case",
        when_to_use="when beam complexity should only be added for QoE users "
                    "can perceive; the qoe arm of policy_comparison",
        exercised_by=("policy_comparison", "qoe_grouping"),
    ),
    PolicyInfo(
        name="unicast",
        kind="grouping",
        implementation="repro.core.grouping.no_grouping",
        summary="Pure unicast: no multicast groups at all.",
        decision_inputs="none",
        objective="baseline delivery plan (Fig. 3e lower bound)",
        complexity="O(n) per frame",
        when_to_use="no-multicast baselines",
        exercised_by=("fig3e", "ablation_grouping"),
    ),
)


def adaptation_policy_catalog() -> tuple[PolicyInfo, ...]:
    """Every selectable adaptation policy, sorted by name."""
    return _ADAPTATION_CATALOG


def grouping_strategy_catalog() -> tuple[PolicyInfo, ...]:
    """Every selectable grouping strategy, sorted by name."""
    return _GROUPING_CATALOG
