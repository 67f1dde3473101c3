"""Rate-utility optimal quality allocation (Park, Chou & Hwang style).

Replaces the greedy budget fill of :class:`~repro.core.adaptation
.CrossLayerPolicy` with an explicit utility objective, following the
rate-utility optimized volumetric streaming formulation of Park, Chou &
Hwang (arXiv:1804.09864): each visible cell contributes a concave
(logarithmic) utility of the rate spent on it, weighted by how much of it
the user actually sees and how far away it is.  With the repo's uniform
per-user quality ladder the per-cell sum collapses to a per-user form

    U_u(q) = w_u * log1p(r_u(q) / r0),
    w_u    = visible_fraction^a / (1 + distance / d0),

where ``r_u(q)`` comes from the per-quality effective-rate table (the
ladder bitrates of :data:`~repro.pointcloud.QUALITIES` scaled by the
visibility culling the rate providers in :mod:`repro.core.rates` carry).

Two allocators maximize summed utility subject to the airtime/throughput
budget the MAC reports:

* :func:`allocate_qualities_dp` — exact dynamic program over the small
  discretized quality lattice (a Pareto-frontier sweep over (rate,
  utility) states; never exceeds the budget, provably weakly dominates
  any other feasible assignment on summed utility);
* :func:`allocate_qualities_greedy` — the Lagrangian fallback for venue
  scale: marginal-utility-per-Mbps upgrades from an all-low base, O(n log n).

:class:`UtilityOptimalPolicy` wraps the same utility model in the
per-user :class:`~repro.core.adaptation.AdaptationPolicy` protocol so the
closed-loop session can run it in place of ``CrossLayerPolicy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..pointcloud import QUALITY_ORDER
from .adaptation import (
    AdaptationDecision,
    AdaptationInputs,
    _effective_bitrate,
    quality_below,
)
from .bandwidth import BufferAwareEstimator, CrossLayerBandwidthPredictor

__all__ = [
    "UtilityModel",
    "UserAllocationInput",
    "AllocationResult",
    "quality_rate_table",
    "assignment_utility",
    "allocate_qualities",
    "allocate_qualities_dp",
    "allocate_qualities_greedy",
    "UtilityOptimalPolicy",
]


@dataclass(frozen=True)
class UtilityModel:
    """Distance/visibility-weighted log-rate utility.

    ``rate_floor_mbps`` is the knee of the log curve (rates far below it
    buy utility almost linearly, rates far above it saturate);
    ``visibility_exponent`` sharpens or softens how much a culled viewport
    discounts utility; ``distance_scale_m`` sets how fast utility decays
    with viewing distance (content a user stands next to is worth more
    than the same bits across the room).
    """

    rate_floor_mbps: float = 25.0
    visibility_exponent: float = 1.0
    distance_scale_m: float = 4.0

    def __post_init__(self) -> None:
        if self.rate_floor_mbps <= 0:
            raise ValueError("rate_floor_mbps must be positive")
        if self.visibility_exponent <= 0:
            raise ValueError("visibility_exponent must be positive")
        if self.distance_scale_m <= 0:
            raise ValueError("distance_scale_m must be positive")

    def weight(self, visible_fraction: float, distance_m: float = 0.0) -> float:
        """The user's utility weight (visibility and distance discounts)."""
        vis = max(0.05, min(1.0, visible_fraction)) ** self.visibility_exponent
        return vis / (1.0 + max(0.0, distance_m) / self.distance_scale_m)

    def cell_utility(self, rate_mbps: float, weight: float = 1.0) -> float:
        """Utility one cell (or cell aggregate) earns from ``rate_mbps``."""
        return weight * math.log1p(max(0.0, rate_mbps) / self.rate_floor_mbps)

    def user_utility(
        self,
        rate_mbps: float,
        visible_fraction: float = 1.0,
        distance_m: float = 0.0,
    ) -> float:
        """Summed per-cell utility of streaming a user at ``rate_mbps``."""
        return self.cell_utility(
            rate_mbps, self.weight(visible_fraction, distance_m)
        )


@dataclass(frozen=True)
class UserAllocationInput:
    """One user as the allocator sees them."""

    user_id: int
    visible_fraction: float = 1.0
    distance_m: float = 0.0


@dataclass(frozen=True)
class AllocationResult:
    """A quality per user, plus the budget accounting behind it.

    ``feasible`` is False when even the all-low assignment exceeds the
    budget; the allocator then returns the all-low floor (a session must
    still stream *something*) and lets the caller decide what to shed.
    """

    qualities: tuple[tuple[int, str], ...]  # (user_id, quality), sorted
    total_rate_mbps: float
    total_utility: float
    budget_mbps: float
    feasible: bool
    method: str  # "dp" | "greedy"

    def as_dict(self) -> dict[int, str]:
        """The assignment as a plain ``{user_id: quality}`` dict."""
        return dict(self.qualities)


def quality_rate_table(visible_fraction: float) -> tuple[tuple[str, float], ...]:
    """Per-quality effective rates (Mbps) for one user, ladder order.

    The same visibility-scaled bitrates the adaptation policies budget
    with: ladder bitrate times the visible fraction (floored at 5% so an
    empty viewport still costs headers and keep-alive cells).
    """
    return tuple(
        (name, _effective_bitrate(name, visible_fraction))
        for name in QUALITY_ORDER
    )


def _user_options(
    users: list[UserAllocationInput], model: UtilityModel
) -> list[list[tuple[str, float, float]]]:
    """Per user (sorted by id): ``(quality, rate_mbps, utility)`` choices."""
    options = []
    for user in users:
        weight = model.weight(user.visible_fraction, user.distance_m)
        options.append(
            [
                (name, rate, model.cell_utility(rate, weight))
                for name, rate in quality_rate_table(user.visible_fraction)
            ]
        )
    return options


def _sorted_users(
    users: list[UserAllocationInput] | tuple[UserAllocationInput, ...],
) -> list[UserAllocationInput]:
    ordered = sorted(users, key=lambda u: u.user_id)
    if not ordered:
        raise ValueError("need at least one user to allocate")
    ids = [u.user_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate user ids in allocation input: {ids}")
    return ordered


def assignment_utility(
    users: list[UserAllocationInput] | tuple[UserAllocationInput, ...],
    qualities: dict[int, str],
    model: UtilityModel | None = None,
) -> tuple[float, float]:
    """``(total_utility, total_rate_mbps)`` of an arbitrary assignment.

    Scores any per-user quality choice — e.g. the greedy budget fill a
    heuristic policy would make — with the *same* utility model the
    allocators maximize, so assignments are comparable apples-to-apples.
    """
    model = model if model is not None else UtilityModel()
    total_utility = 0.0
    total_rate = 0.0
    for user in _sorted_users(list(users)):
        quality = qualities[user.user_id]
        rate = _effective_bitrate(quality, user.visible_fraction)
        total_rate += rate
        total_utility += model.user_utility(
            rate, user.visible_fraction, user.distance_m
        )
    return total_utility, total_rate


def allocate_qualities_dp(
    users: list[UserAllocationInput] | tuple[UserAllocationInput, ...],
    budget_mbps: float,
    model: UtilityModel | None = None,
) -> AllocationResult:
    """Exact DP over the quality lattice: max summed utility within budget.

    Sweeps users in id order, carrying the Pareto frontier of
    ``(total_rate, total_utility)`` states (dominated and over-budget
    states are pruned each step, so the frontier stays small for the
    3-level ladder).  The returned assignment never exceeds
    ``budget_mbps`` and weakly dominates every other feasible assignment
    on summed utility — including the equal-share greedy fill of
    ``CrossLayerPolicy``; if even all-low busts the budget the all-low
    floor is returned with ``feasible=False``.
    """
    model = model if model is not None else UtilityModel()
    ordered = _sorted_users(list(users))
    options = _user_options(ordered, model)

    base_rate = sum(opts[0][1] for opts in options)
    if base_rate > budget_mbps:
        qualities = tuple((u.user_id, QUALITY_ORDER[0]) for u in ordered)
        utility, rate = assignment_utility(ordered, dict(qualities), model)
        return AllocationResult(
            qualities=qualities,
            total_rate_mbps=rate,
            total_utility=utility,
            budget_mbps=budget_mbps,
            feasible=False,
            method="dp",
        )

    # Frontier states: (total_rate, total_utility, choices-so-far).
    frontier: list[tuple[float, float, tuple[str, ...]]] = [(0.0, 0.0, ())]
    for opts in options:
        grown = [
            (rate_sum + rate, utility_sum + utility, choices + (name,))
            for rate_sum, utility_sum, choices in frontier
            for name, rate, utility in opts
            if rate_sum + rate <= budget_mbps
        ]
        # Prune to the Pareto frontier: sorted by (rate, -utility, choices)
        # a state survives only if it strictly improves utility over every
        # cheaper state.  The choices tuple in the key keeps equal-cost,
        # equal-utility ties deterministic (lower lattice positions win).
        grown.sort(key=lambda s: (s[0], -s[1], s[2]))
        frontier = []
        best_utility = -math.inf
        for state in grown:
            if state[1] > best_utility:
                frontier.append(state)
                best_utility = state[1]

    best = max(frontier, key=lambda s: (s[1], -s[0]))
    qualities = tuple(
        (user.user_id, name) for user, name in zip(ordered, best[2])
    )
    return AllocationResult(
        qualities=qualities,
        total_rate_mbps=best[0],
        total_utility=best[1],
        budget_mbps=budget_mbps,
        feasible=True,
        method="dp",
    )


def allocate_qualities_greedy(
    users: list[UserAllocationInput] | tuple[UserAllocationInput, ...],
    budget_mbps: float,
    model: UtilityModel | None = None,
) -> AllocationResult:
    """Greedy Lagrangian allocation: marginal utility per Mbps, descending.

    Starts everyone at the ladder floor and applies single-step upgrades
    in order of marginal utility per marginal Mbps while the budget
    holds — the water-filling the Lagrangian of the concave objective
    prescribes.  Linear-ish time: the venue-scale fallback when the exact
    DP would be overkill.
    """
    model = model if model is not None else UtilityModel()
    ordered = _sorted_users(list(users))
    options = _user_options(ordered, model)

    level = {u.user_id: 0 for u in ordered}
    spent = sum(opts[0][1] for opts in options)
    if spent > budget_mbps:
        qualities = tuple((u.user_id, QUALITY_ORDER[0]) for u in ordered)
        utility, rate = assignment_utility(ordered, dict(qualities), model)
        return AllocationResult(
            qualities=qualities,
            total_rate_mbps=rate,
            total_utility=utility,
            budget_mbps=budget_mbps,
            feasible=False,
            method="greedy",
        )

    # Every single-step upgrade, best bang-per-Mbps first.  Concavity of
    # the log utility makes each user's step ratios non-increasing up the
    # ladder, so one sorted pass respects the ladder order; the explicit
    # from-level guard below keeps it correct even under exact ties.
    steps = []
    for user, opts in zip(ordered, options):
        for idx in range(1, len(opts)):
            delta_rate = opts[idx][1] - opts[idx - 1][1]
            delta_utility = opts[idx][2] - opts[idx - 1][2]
            ratio = (
                math.inf if delta_rate <= 1e-12 else delta_utility / delta_rate
            )
            steps.append((-ratio, user.user_id, idx, delta_rate))
    steps.sort()
    for _, user_id, idx, delta_rate in steps:
        if level[user_id] != idx - 1:
            continue  # a cheaper rung for this user was skipped: stop here
        if spent + delta_rate > budget_mbps:
            continue
        level[user_id] = idx
        spent += delta_rate

    qualities = tuple(
        (u.user_id, QUALITY_ORDER[level[u.user_id]]) for u in ordered
    )
    utility, rate = assignment_utility(ordered, dict(qualities), model)
    return AllocationResult(
        qualities=qualities,
        total_rate_mbps=rate,
        total_utility=utility,
        budget_mbps=budget_mbps,
        feasible=True,
        method="greedy",
    )


def allocate_qualities(
    users: list[UserAllocationInput] | tuple[UserAllocationInput, ...],
    budget_mbps: float,
    model: UtilityModel | None = None,
    dp_max_users: int = 12,
) -> AllocationResult:
    """Allocate qualities: exact DP at session scale, greedy at venue scale."""
    if len(list(users)) <= dp_max_users:
        return allocate_qualities_dp(users, budget_mbps, model)
    return allocate_qualities_greedy(users, budget_mbps, model)


@dataclass
class UtilityOptimalPolicy:
    """Per-user adaptation on the rate-utility objective.

    Budgets exactly like :class:`~repro.core.adaptation.CrossLayerPolicy`
    (cross-layer bandwidth prediction, buffer guard, ARQ/FEC airtime
    shrink) but picks the quality maximizing ``utility - price * rate``
    instead of the highest quality that fits: ``airtime_price_per_mbps``
    is the Lagrangian shadow price of the shared medium, inflated by the
    observed retransmission overhead, so marginal upgrades that buy
    little utility (low visibility, saturated log) are declined even when
    they nominally fit the budget.  Blockage prefetch, loss backoff and
    regroup hints match ``CrossLayerPolicy`` so the comparison isolates
    the quality objective.
    """

    policy_name = "utility-optimal"

    model: UtilityModel = field(default_factory=UtilityModel)
    safety: float = 0.9
    airtime_price_per_mbps: float = 0.002
    prefetch_on_blockage_frames: int = 15
    loss_backoff_threshold: float = 0.05
    buffer_guard: BufferAwareEstimator = field(default_factory=BufferAwareEstimator)
    predictors: dict[int, CrossLayerBandwidthPredictor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        if self.airtime_price_per_mbps < 0:
            raise ValueError("airtime_price_per_mbps must be non-negative")
        if self.prefetch_on_blockage_frames < 0:
            raise ValueError("prefetch_on_blockage_frames must be non-negative")
        if not 0.0 <= self.loss_backoff_threshold <= 1.0:
            raise ValueError("loss_backoff_threshold must be in [0, 1]")

    def decide(self, inputs: AdaptationInputs) -> AdaptationDecision:
        """Pick the utility-maximizing quality under the predicted budget."""
        predictor = self.predictors.setdefault(
            inputs.user_id, CrossLayerBandwidthPredictor()
        )
        if inputs.observed_throughput_mbps > 0:
            predictor.observe_throughput(inputs.observed_throughput_mbps)
        predicted = predictor.predict_mbps(
            rss_dbm=inputs.rss_dbm, blockage_predicted=inputs.blockage_predicted
        )
        budget = (
            self.buffer_guard.estimate_mbps(predicted, inputs.buffer_level_s)
            * self.safety
        )
        if inputs.retx_overhead > 0:
            budget /= 1.0 + inputs.retx_overhead

        price = self.airtime_price_per_mbps * (1.0 + inputs.retx_overhead)
        weight = self.model.weight(inputs.visible_fraction)
        quality = QUALITY_ORDER[0]
        best_score = -math.inf
        for name, rate in quality_rate_table(inputs.visible_fraction):
            if rate > budget:
                continue
            score = self.model.cell_utility(rate, weight) - price * rate
            if score > best_score:
                quality = name
                best_score = score
        if inputs.residual_loss_rate > self.loss_backoff_threshold:
            quality = quality_below(quality)
        prefetch = (
            self.prefetch_on_blockage_frames if inputs.blockage_predicted else 0
        )
        return AdaptationDecision(
            quality=quality,
            prefetch_extra_frames=prefetch,
            request_regroup=inputs.blockage_predicted,
        )
