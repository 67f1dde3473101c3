"""Multicast grouping based on viewport similarity (paper §4.2).

Given each user's frame demand and the rates the PHY can offer, pick the
multicast groups that minimize total frame airtime subject to the paper's
admission constraint ``T_m(k) <= 1/F``.  Three policies:

* :func:`no_grouping` — pure unicast (the baseline in Fig. 3e);
* :func:`greedy_similarity_grouping` — the paper's approach: consider user
  pairs in order of viewport similarity, merge while multicast actually
  shortens the frame's airtime and the deadline holds;
* :func:`exhaustive_grouping` — optimal partition by enumeration, feasible
  for the paper's <= 7-user scale; used as the gold standard in ablations.

The multicast rate of a candidate group comes from a caller-supplied
``rate_fn(members) -> Mbps`` so the same grouper works with the calibrated
capacity models (Table 1) and the beam-level channel (Fig. 3e): the rate a
group gets depends on which beam the AP can design for it.  ``rate_fn``
must be pure: each grouper asks it once per distinct group.

Each grouper builds its frame's :class:`~repro.mac.scheduler.FrameDemands`
once and scores every candidate partition over it with
:func:`~repro.mac.scheduler.plan_time_s`, the plan total's fold without a
``FramePlan``, so a candidate merge prices only the one group it creates;
every other airtime comes from the frame's memo.  Only the partition a
grouper keeps becomes a plan.  Candidate pairs are ranked by the IoU of
their merged visibility maps, counted over the frame's rows' cell masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from ..mac.scheduler import (
    FrameDemands,
    FramePlan,
    UserDemand,
    achievable_fps,
    plan_frame,
    plan_time_s,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .qoe import QoEWeights

__all__ = [
    "GroupingResult",
    "no_grouping",
    "greedy_similarity_grouping",
    "qoe_aware_grouping",
    "exhaustive_grouping",
]

RateFn = Callable[[tuple[int, ...]], float]

_C_GROUPING = _metrics.counter(
    "core.grouping_decisions", unit="decisions", layer="core",
    help="frame partitions committed by a grouping policy (one per frame "
         "planned, any policy)",
)
_EV_GROUP = _trace.event_type(
    "core.group_decision", layer="core",
    help="a grouping policy committed a partition: how many multicast "
         "groups and how many users share beams this frame",
    fields=("policy", "groups", "grouped_users", "user_ids", "frame"),
)


def _record(result: "GroupingResult", frame: int | None = None) -> "GroupingResult":
    """Count and trace a committed grouping decision, pass it through."""
    _C_GROUPING.inc()
    if _trace._RECORDER is not None:
        _EV_GROUP.emit(
            policy=result.policy,
            groups=len(result.plan.groups),
            grouped_users=len(result.plan.grouped_users),
            user_ids=sorted(result.plan.demands),
            **_trace.correlation(frame=frame),
        )
    return result


@dataclass(frozen=True)
class GroupingResult:
    """A chosen partition plus its delivery plan."""

    plan: FramePlan
    policy: str

    @property
    def groups(self) -> list[tuple[int, ...]]:
        return [members for members, _ in self.plan.groups]

    @property
    def total_time_s(self) -> float:
        return self.plan.total_time_s()

    @property
    def achievable_fps(self) -> float:
        return self.plan.achievable_fps()


def no_grouping(
    demands: Sequence[UserDemand], frame: int | None = None
) -> GroupingResult:
    """Pure unicast baseline.

    ``frame`` is a trace-only correlation field shared by every grouping
    policy; it never changes the partition.
    """
    return _record(
        GroupingResult(plan=plan_frame(list(demands), frame=frame),
                       policy="unicast"),
        frame=frame,
    )


class _PartitionPlanner:
    """Scores and plans partitions of one frame's users.

    ``time_s(partition)`` is the partition's plan total from
    ``plan_time_s``, with each distinct group's rate asked of ``rate_fn``
    once.  ``plan`` builds the plan of the partition a grouper keeps,
    silently: its scoring already counted and traced it.
    """

    def __init__(
        self, frame_demands: FrameDemands, multicast_rate_fn: RateFn
    ) -> None:
        self.frame_demands = frame_demands
        self._rate_fn = multicast_rate_fn
        self._rates: dict[tuple[int, ...], float] = {}

    def _groups(
        self, partition: list[tuple[int, ...]]
    ) -> list[tuple[tuple[int, ...], float]]:
        rates = self._rates
        multicast_groups = []
        for g in partition:
            if len(g) > 1:
                if g not in rates:
                    rates[g] = self._rate_fn(g)
                multicast_groups.append((g, rates[g]))
        return multicast_groups

    def time_s(self, partition: list[tuple[int, ...]]) -> float:
        return plan_time_s(self.frame_demands, self._groups(partition))

    def plan(self, partition: list[tuple[int, ...]]) -> FramePlan:
        return FramePlan(
            demands=self.frame_demands.demands,
            groups=self._groups(partition),
            frame_demands=self.frame_demands,
        )


def _merge_candidates(
    groups: list[tuple[int, ...]], frame_demands: FrameDemands, min_iou: float
) -> list[tuple[float, tuple[int, ...], tuple[int, ...]]]:
    """``(iou, ga, gb)`` for every group pair with IoU at least
    ``min_iou``, most similar first with a deterministic tiebreak.

    A pair's IoU is ``group_iou`` over the member maps of ``ga`` and ``gb``
    combined, bit for bit.  Each group's shared and covered cells are the
    AND and the OR of its members' row cell masks, and a pair's IoU is
    ``(sa & sb).bit_count() / (ca | cb).bit_count()`` (``1.0`` when the
    union is empty): the same two counts, so the same float.  Groups are
    non-empty.
    """
    row_mask = frame_demands.row_mask
    user_row = frame_demands.user_row
    shared, covered = [], []
    for g in groups:
        s = c = row_mask(user_row[g[0]])
        for u in g[1:]:
            m = row_mask(user_row[u])
            s &= m
            c |= m
        shared.append(s)
        covered.append(c)
    candidates = []
    for ia, ib in combinations(range(len(groups)), 2):
        union = (covered[ia] | covered[ib]).bit_count()
        iou = (shared[ia] & shared[ib]).bit_count() / union if union else 1.0
        if iou >= min_iou:
            candidates.append((iou, groups[ia], groups[ib]))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    return candidates


def greedy_similarity_grouping(
    demands: Sequence[UserDemand],
    multicast_rate_fn: RateFn,
    min_iou: float = 0.05,
    frame: int | None = None,
) -> GroupingResult:
    """Greedy merge of high-similarity users into multicast groups.

    Start with singletons.  Repeatedly take the pair of groups whose merged
    visibility maps have the highest IoU and merge them if doing so strictly
    reduces the plan's total airtime; stop when no merge helps.  The
    fastest plan found is returned whether or not it meets the paper's
    deadline ``T_m(k) <= 1/F``: the caller reports the frame rate it
    sustains (sub-30 FPS, exactly like Table 1 does).

    Groups whose pairwise IoU is below ``min_iou`` are never merged —
    multicasting nearly-disjoint viewports only adds beam complexity.
    """
    demand_list = list(demands)
    groups: list[tuple[int, ...]] = [(d.user_id,) for d in demand_list]
    frame_demands = FrameDemands(demand_list)
    planner = _PartitionPlanner(frame_demands, multicast_rate_fn)

    best_time = planner.time_s(groups)
    improved = True
    while improved and len(groups) > 1:
        improved = False
        for _, ga, gb in _merge_candidates(groups, frame_demands, min_iou):
            merged = tuple(sorted(ga + gb))
            trial = [g for g in groups if g not in (ga, gb)] + [merged]
            trial_time = planner.time_s(trial)
            if trial_time < best_time - 1e-12:
                groups, best_time = trial, trial_time
                improved = True
                break
    return _record(
        GroupingResult(plan=planner.plan(groups), policy="greedy-similarity"),
        frame=frame,
    )


def _predicted_qoe(
    total_time_s: float,
    demand_list: list[UserDemand],
    target_fps: float,
    weights: QoEWeights,
) -> float:
    """Predicted per-user QoE (Mbps-equivalent) of a plan taking
    ``total_time_s`` of airtime per frame.

    Maps the plan's airtime onto the session QoE decomposition of
    :mod:`repro.core.qoe` before any session runs: the sustainable frame
    rate bounds each user's delivered bitrate, and the fraction of the
    target rate the plan misses is charged as predicted stall time at the
    same ``stall_penalty_mbps`` the closed loop uses.  Switches are a
    session-history effect and predict to zero here.
    """
    fps = achievable_fps(total_time_s, target_fps)
    stall_fraction = max(0.0, 1.0 - fps / target_fps)
    score = 0.0
    for d in demand_list:
        bitrate_mbps = d.total_bytes * 8.0 * fps / 1e6
        score += bitrate_mbps - weights.stall_penalty_mbps * stall_fraction
    return score / max(1, len(demand_list))


def qoe_aware_grouping(
    demands: Sequence[UserDemand],
    multicast_rate_fn: RateFn,
    target_fps: float = 30.0,
    min_iou: float = 0.05,
    weights: QoEWeights | None = None,
    frame: int | None = None,
) -> GroupingResult:
    """Merge users when the merge improves *predicted QoE*, not raw airtime.

    Same candidate generation as :func:`greedy_similarity_grouping` (group
    pairs above ``min_iou``, most-similar first) but each candidate merge
    is scored by the QoE delta it predicts via :func:`_predicted_qoe`, in
    the QoE-impact-driven clustering spirit of Perfecto et al.
    (arXiv:1811.07388).  Each round commits the single best
    strictly-improving merge.  The practical difference from the airtime
    grouper: once the plan already sustains ``target_fps`` the frame rate
    is capped, further airtime savings predict zero QoE delta, and merging
    stops — beam complexity is never added for QoE the users cannot see.

    Deterministic under input order: demands are canonicalized by user id
    before any tie-breaking comparison, so shuffled inputs produce
    bit-identical partitions.
    """
    qoe_weights = weights if weights is not None else QoEWeights()
    demand_list = sorted(demands, key=lambda d: d.user_id)
    groups: list[tuple[int, ...]] = [(d.user_id,) for d in demand_list]
    frame_demands = FrameDemands(demand_list)
    planner = _PartitionPlanner(frame_demands, multicast_rate_fn)

    best_qoe = _predicted_qoe(
        planner.time_s(groups), demand_list, target_fps, qoe_weights
    )
    improved = True
    while improved and len(groups) > 1:
        improved = False
        # Most-similar candidates first; the strict `>` below means the
        # earliest candidate wins exact QoE ties, deterministically.
        best_merge: tuple[list[tuple[int, ...]], float] | None = None
        for _, ga, gb in _merge_candidates(groups, frame_demands, min_iou):
            merged = tuple(sorted(ga + gb))
            trial = [g for g in groups if g not in (ga, gb)] + [merged]
            trial_qoe = _predicted_qoe(
                planner.time_s(trial), demand_list, target_fps, qoe_weights
            )
            if trial_qoe > best_qoe + 1e-12 and (
                best_merge is None or trial_qoe > best_merge[1]
            ):
                best_merge = (trial, trial_qoe)
        if best_merge is not None:
            groups, best_qoe = best_merge
            improved = True
    return _record(
        GroupingResult(plan=planner.plan(groups), policy="qoe-aware"),
        frame=frame,
    )


def _partitions(items: list[int]):
    """All set partitions of ``items`` (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        # first joins an existing block…
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        # …or starts its own.
        yield [[first]] + partition


def exhaustive_grouping(
    demands: Sequence[UserDemand],
    multicast_rate_fn: RateFn,
    max_users: int = 9,
    frame: int | None = None,
) -> GroupingResult:
    """Optimal partition by full enumeration (small N only).

    Bell(9) = 21147 partitions is the practical ceiling; beyond that the
    grouper refuses rather than silently taking minutes.
    """
    demand_list = list(demands)
    if len(demand_list) > max_users:
        raise ValueError(
            f"exhaustive grouping limited to {max_users} users "
            f"(got {len(demand_list)}); use greedy_similarity_grouping"
        )
    ids = [d.user_id for d in demand_list]
    planner = _PartitionPlanner(FrameDemands(demand_list), multicast_rate_fn)
    best: list[tuple[int, ...]] | None = None
    best_time = 0.0
    for partition in _partitions(ids):
        blocks = [tuple(sorted(block)) for block in partition]
        plan_time = planner.time_s(blocks)
        if best is None or plan_time < best_time:
            best, best_time = blocks, plan_time
    if best is None:  # unreachable: _partitions always yields once
        raise RuntimeError("exhaustive grouping evaluated no partition")
    return _record(
        GroupingResult(plan=planner.plan(best), policy="exhaustive"),
        frame=frame,
    )
