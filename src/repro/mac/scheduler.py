"""Frame transmission scheduling: unicast vs. viewport-similarity multicast.

Implements the paper's transmission-time model (§4.2).  For a multicast
group k the time to deliver one frame to every member is

    T_m(k) = S_m(k) / r_m  +  sum_i (S_i - S_m(k)) / r_i

where ``S_m(k)`` is the size of the group's overlapped (intersection) cells,
``r_m`` the multicast rate (set by the weakest member's MCS under the
group's beam), and ``S_i``/``r_i`` each member's total requested bytes and
unicast rate.  Groups are admitted subject to T_m(k) <= 1/F for the target
frame rate F.

Every plan of one frame sits over that frame's :class:`FrameDemands`: its
demands as distinct rows plus a memo of each group's airtime, so a
candidate merge costs one new T_m(k), priced over the rows' dicts and
cell masks in Python floats.
:func:`plan_time_s` scores a candidate partition with the fold
``FramePlan.total_time_s`` runs, without building the plan.
:func:`overlap_bytes`, :func:`multicast_frame_time`,
:func:`unicast_frame_time` and :func:`plan_time_reference` are the
set-and-dict scalar references it reproduces bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Iterable, Sequence

from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = [
    "UserDemand",
    "overlap_bytes",
    "unicast_frame_time",
    "multicast_frame_time",
    "plan_time_reference",
    "FrameDemands",
    "FramePlan",
    "plan_frame",
    "plan_time_s",
    "achievable_fps",
]

_C_PLANS = _metrics.counter(
    "mac.frame_plans_built", unit="plans", layer="mac",
    help="frame plans built by plan_frame or scored by plan_time_s "
         "(includes every candidate partition a grouping search evaluates)",
)
_C_GROUPS = _metrics.counter(
    "mac.multicast_groups_planned", unit="groups", layer="mac",
    help="multicast groups in frame plans built or scored",
)
_EV_PLAN = _trace.event_type(
    "mac.frame_plan", layer="mac",
    help="a frame delivery plan was built (grant decision: who shares a "
         "multicast beam, who goes solo)",
    fields=("users", "groups", "solo", "total_time_s", "user_ids", "frame"),
)


def _fold_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum: the one order frame planning adds in.

    From Python 3.12 the builtin ``sum`` compensates float rounding, so it
    is not the same number on every version.  This fold is, and it is
    exactly what ``np.cumsum(x)[-1]`` computes.
    """
    return float(reduce(operator.add, values, 0.0))


@dataclass(frozen=True)
class UserDemand:
    """One user's demand for one video frame.

    ``cell_bytes`` maps cell id -> compressed bytes this user needs from
    that cell (after the user's visibility/density reduction).  It must
    not change once the demand exists: ``total_bytes`` is computed once.
    """

    user_id: int
    cell_bytes: dict[int, float]
    unicast_rate_mbps: float

    def __post_init__(self) -> None:
        if not self.unicast_rate_mbps >= 0:  # NaN fails too
            raise ValueError(
                f"user {self.user_id}: unicast_rate_mbps must be "
                f"non-negative, got {self.unicast_rate_mbps}"
            )

    @cached_property
    def total_bytes(self) -> float:
        return _fold_sum(self.cell_bytes.values())


def overlap_bytes(demands: list[UserDemand]) -> float:
    """S_m(k): bytes of the cells *every* group member requests.

    For a shared cell, members may want different densities (distance
    optimization); the multicast carries the maximum requested density and
    members discard excess points locally, so the shared size is the
    per-cell max over members.
    """
    if not demands:
        return 0.0
    shared = set(demands[0].cell_bytes)
    for d in demands[1:]:
        shared &= set(d.cell_bytes)
    return _fold_sum(
        max(d.cell_bytes[c] for d in demands) for c in sorted(shared)
    )


def _transfer_time_s(nbytes: float, rate_mbps: float) -> float:
    """Seconds to move ``nbytes`` at ``rate_mbps`` (inf if the link is down)."""
    if nbytes <= 0:
        return 0.0
    if rate_mbps <= 0:
        return float("inf")
    return nbytes * 8.0 / (rate_mbps * 1e6)


def unicast_frame_time(demands: list[UserDemand]) -> float:
    """Serialized airtime to unicast every user's full demand."""
    return _fold_sum(
        _transfer_time_s(d.total_bytes, d.unicast_rate_mbps) for d in demands
    )


def multicast_frame_time(
    demands: list[UserDemand], multicast_rate_mbps: float
) -> float:
    """The paper's T_m(k) for one group.

    The shared cells go out once at the multicast rate; each member's
    residual cells follow via unicast at that member's own rate.
    """
    if not demands:
        return 0.0
    s_m = overlap_bytes(demands)
    t = _transfer_time_s(s_m, multicast_rate_mbps)
    shared = set(demands[0].cell_bytes)
    for d in demands[1:]:
        shared &= set(d.cell_bytes)
    for d in demands:
        residual = _fold_sum(
            b for c, b in d.cell_bytes.items() if c not in shared
        )
        t += _transfer_time_s(residual, d.unicast_rate_mbps)
    return float(t)


def plan_time_reference(
    demands: dict[int, UserDemand],
    groups: list[tuple[tuple[int, ...], float]],
    beam_switch_overhead_s: float = 0.0,
) -> float:
    """Scalar reference for :meth:`FramePlan.total_time_s`.

    Each group's T_m(k) in plan order, then each solo user's unicast in
    demand order, then one beam-switch overhead per transmission (one
    multicast plus one residual leg per member, one per solo user).
    """
    t = 0.0
    num_transmissions = 0
    for members, rate in groups:
        t += multicast_frame_time([demands[m] for m in members], rate)
        num_transmissions += 1 + len(members)
    grouped = {m for members, _ in groups for m in members}
    for u, d in demands.items():
        if u not in grouped:
            t += _transfer_time_s(d.total_bytes, d.unicast_rate_mbps)
            num_transmissions += 1
    return t + beam_switch_overhead_s * num_transmissions


class FrameDemands:
    """One frame's demands, shared by every plan of the frame.

    A row is one *distinct* ``cell_bytes`` mapping: users holding the same
    dict by reference share it, so a venue tick has one row per archetype
    however many users it admits.  A group is priced over its rows' dicts,
    summing in the order the scalar references add in: overlaps in sorted
    cell order, residuals and totals in insertion order, all left to
    right.  Group airtimes are memoised on ``(members, rate)``.

    Each row also has a cell mask, a Python int with bit ``c`` set for
    cell id ``c``, built the first time the row is priced in a multi-row
    group or its IoU is asked for.  A group's shared cells are the AND of
    its rows' masks; their set bits, lowest first, are the sorted cell
    order the overlap folds in.  Cell ids must be non-negative integers
    (Python or NumPy).  The mappings must not change while the frame is
    planned.
    """

    def __init__(self, demands: Iterable[UserDemand]) -> None:
        self.demands: dict[int, UserDemand] = {}
        for d in demands:
            if d.user_id in self.demands:
                raise ValueError(f"user {d.user_id} has two demands")
            self.demands[d.user_id] = d
        self.user_row: dict[int, int] = {}
        self.row_totals: list[float] = []
        # Serialized unicast airtime of each user's whole demand.
        self.unicast_s: dict[int, float] = {}
        # Each row's cell_bytes mapping; once built, its cell mask and its
        # (cell bit, bytes) pairs in insertion order.
        self.mappings: list[dict[int, float]] = []
        self._masks: list[int | None] = []
        self._bits: list[list[tuple[int, float]] | None] = []
        self._airtime: dict[tuple[tuple[int, ...], float], float] = {}
        row_of: dict[int, int] = {}  # id(cell_bytes) -> row
        for uid, d in self.demands.items():
            row = row_of.get(id(d.cell_bytes))
            if row is None:
                row = row_of[id(d.cell_bytes)] = len(self.mappings)
                self.mappings.append(d.cell_bytes)
                self.row_totals.append(d.total_bytes)
                self._masks.append(None)
                self._bits.append(None)
            self.user_row[uid] = row
            self.unicast_s[uid] = _transfer_time_s(
                self.row_totals[row], d.unicast_rate_mbps
            )

    def row_mask(self, row: int) -> int:
        """Row ``row``'s cell mask: bit ``c`` set for each cell id ``c``."""
        mask = self._masks[row]
        if mask is None:
            mask = 0
            bits = []
            try:
                for c, b in self.mappings[row].items():
                    # Not 1 << c: 1 << np.int64(70) is 0.
                    bit = 1 << operator.index(c)
                    mask |= bit
                    bits.append((bit, b))
            except ValueError:
                raise ValueError(
                    f"cell ids must be non-negative, got "
                    f"{min(self.mappings[row])}"
                ) from None
            self._masks[row] = mask
            self._bits[row] = bits
        return mask

    def unicast_time_s(self, members: Iterable[int]) -> float:
        """Bitwise :func:`unicast_frame_time` of the members' demands."""
        unicast_s = self.unicast_s
        return _fold_sum(unicast_s[u] for u in members)

    def group_time_s(self, members: tuple[int, ...], rate_mbps: float) -> float:
        """Bitwise :func:`multicast_frame_time` of the members' demands,
        computed once per ``(members, rate)`` in this frame."""
        key = (tuple(members), rate_mbps)
        t = self._airtime.get(key)
        if t is None:
            t = self._airtime[key] = self._multicast_time_s(*key)
        return t

    def _time_s(
        self,
        groups: list[tuple[tuple[int, ...], float]],
        solo: list[int],
        beam_switch_overhead_s: float,
    ) -> float:
        """The plan fold: memoised group airtimes in plan order, then solo
        unicasts in the order given, then the overhead term."""
        t = 0.0
        num_transmissions = len(solo)
        for members, rate in groups:
            t += self.group_time_s(members, rate)
            num_transmissions += 1 + len(members)
        unicast_s = self.unicast_s
        for u in solo:
            t += unicast_s[u]
        return t + beam_switch_overhead_s * num_transmissions

    def _rows(self, members: Iterable[int]) -> list[int]:
        user_row = self.user_row
        return sorted({user_row[u] for u in members})

    def _overlap(self, rows: list[int]) -> tuple[int, float]:
        """The rows' shared-cell mask and S_m(k): the per-cell max over the
        rows, folded left to right over the mask's set bits, lowest first
        (sorted cell order)."""
        if not rows:
            return 0, 0.0
        shared = self.row_mask(rows[0])
        for r in rows[1:]:
            shared &= self.row_mask(r)
        maps = [self.mappings[r] for r in rows]
        s_m = 0.0
        bits = shared
        while bits:
            low = bits & -bits
            c = low.bit_length() - 1
            s_m += max([m[c] for m in maps])
            bits ^= low
        return shared, float(s_m)

    def _multicast_time_s(
        self, members: tuple[int, ...], rate_mbps: float
    ) -> float:
        """Bitwise :func:`multicast_frame_time`: S_m(k) at the multicast
        rate, then each member's residual unicast in member order."""
        rows = self._rows(members)
        if len(rows) == 1:
            # One row shares all its cells and leaves no residual.
            cells = self.mappings[rows[0]]
            s_m = 0.0
            for c in sorted(cells):
                s_m += cells[c]
            return _transfer_time_s(float(s_m), rate_mbps)
        shared, s_m = self._overlap(rows)
        t = _transfer_time_s(s_m, rate_mbps)
        # Each row's residual: its whole total when nothing is shared,
        # else its cells outside the overlap folded in insertion order.
        # A zero residual adds 0.0 to a non-negative t, so it is skipped.
        left: dict[int, float] = {}
        for row in rows:
            if shared:
                rest = self._masks[row] ^ shared
                if not rest:
                    continue
                r = 0.0
                for bit, b in self._bits[row]:
                    if rest & bit:
                        r += b
            else:
                r = self.row_totals[row]
            if r > 0:
                left[row] = r
        user_row = self.user_row
        demands = self.demands
        for u in members:
            r = left.get(user_row[u])
            if r is not None:
                t += _transfer_time_s(r, demands[u].unicast_rate_mbps)
        return float(t)


def _covered_users(
    demands: dict[int, UserDemand],
    groups: list[tuple[tuple[int, ...], float]],
) -> set[int]:
    """The users the groups cover, after the checks every plan passes: a
    non-negative (not NaN) rate, members with a demand, each in one group."""
    covered: set[int] = set()
    for members, rate in groups:
        if not rate >= 0:  # NaN fails too
            raise ValueError(
                f"group {members}: multicast rate must be non-negative, "
                f"got {rate}"
            )
        for m in members:
            if m in covered:
                raise ValueError(f"user {m} appears in two groups")
            if m not in demands:
                raise KeyError(f"group member {m} has no demand")
            covered.add(m)
    return covered


@dataclass(frozen=True)
class FramePlan:
    """A complete delivery plan for one frame across all users.

    ``groups`` lists multicast groups (with their rates); users not covered
    by any group are served pure unicast.  The plan sits over its frame's
    :class:`FrameDemands` (built from ``demands`` when not given), whose
    airtime memo every plan of the frame shares.
    """

    demands: dict[int, UserDemand]
    groups: list[tuple[tuple[int, ...], float]] = field(default_factory=list)
    beam_switch_overhead_s: float = 0.0
    frame_demands: FrameDemands | None = field(
        default=None, repr=False, compare=False
    )
    # Set by __post_init__; the total on first total_time_s call, the
    # transmission units (per packetization config) on first delivery.
    _grouped: frozenset[int] = field(init=False, repr=False, compare=False)
    _solo: list[int] = field(init=False, repr=False, compare=False)
    _total: float | None = field(init=False, repr=False, compare=False)
    _units: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        covered = _covered_users(self.demands, self.groups)
        if self.frame_demands is None:
            object.__setattr__(
                self, "frame_demands", FrameDemands(self.demands.values())
            )
        elif self.frame_demands.demands is not self.demands:
            raise ValueError("frame_demands must hold this plan's demands")
        object.__setattr__(self, "_grouped", frozenset(covered))
        object.__setattr__(
            self, "_solo", [u for u in self.demands if u not in covered]
        )
        object.__setattr__(self, "_total", None)
        object.__setattr__(self, "_units", {})

    @property
    def grouped_users(self) -> frozenset[int]:
        return self._grouped

    @property
    def solo_users(self) -> list[int]:
        return list(self._solo)

    def total_time_s(self) -> float:
        """Airtime to deliver the frame to everyone under this plan.

        Bitwise :func:`plan_time_reference`: memoised group airtimes in
        plan order, then solo unicasts in demand order, then the overhead.
        """
        if self._total is None:
            object.__setattr__(
                self,
                "_total",
                self.frame_demands._time_s(
                    self.groups, self._solo, self.beam_switch_overhead_s
                ),
            )
        return self._total

    def achievable_fps(self, cap_fps: float = 30.0) -> float:
        """Frame rate this plan sustains (1 / total time, capped)."""
        return achievable_fps(self.total_time_s(), cap_fps)

    def satisfies(self, target_fps: float) -> bool:
        """The paper's admission constraint T_m(k) <= 1/F."""
        return self.total_time_s() <= 1.0 / target_fps


def _record_plan(
    frame_demands: FrameDemands,
    num_groups: int,
    num_solo: int,
    total_time_s: Callable[[], float],
    frame: int | None,
) -> None:
    """Count one built or scored plan and trace it as ``mac.frame_plan``
    (``total_time_s`` is asked only while a recorder is on)."""
    _C_PLANS.inc()
    _C_GROUPS.inc(num_groups)
    if _trace._RECORDER is not None:
        _EV_PLAN.emit(
            users=len(frame_demands.demands),
            groups=num_groups,
            solo=num_solo,
            total_time_s=total_time_s(),
            user_ids=sorted(frame_demands.demands),
            **_trace.correlation(frame=frame),
        )


def plan_frame(
    demands: Sequence[UserDemand] | FrameDemands,
    groups: list[tuple[tuple[int, ...], float]] | None = None,
    beam_switch_overhead_s: float = 0.0,
    frame: int | None = None,
) -> FramePlan:
    """Build a :class:`FramePlan` from a demand list or a frame's
    :class:`FrameDemands` (which the plan then shares with every other
    plan built over it).

    ``frame`` is a trace-only correlation field (the frame index the plan
    is for, when the caller knows it); it never changes the plan.
    """
    frame_demands = (
        demands if isinstance(demands, FrameDemands) else FrameDemands(demands)
    )
    plan = FramePlan(
        demands=frame_demands.demands,
        groups=groups or [],
        beam_switch_overhead_s=beam_switch_overhead_s,
        frame_demands=frame_demands,
    )
    _record_plan(
        frame_demands, len(plan.groups), len(plan._solo), plan.total_time_s,
        frame,
    )
    return plan


def plan_time_s(
    frame_demands: FrameDemands,
    groups: list[tuple[tuple[int, ...], float]],
) -> float:
    """``plan_frame(frame_demands, groups).total_time_s()`` without
    building the plan: the same checks, the same fold, bit for bit, and
    the same ``mac.frame_plans_built`` / ``mac.multicast_groups_planned``
    counts and ``mac.frame_plan`` event (with no ``frame``).  A grouping
    search scores its candidate partitions with it and builds a plan only
    for the one it keeps.
    """
    covered = _covered_users(frame_demands.demands, groups)
    solo = [u for u in frame_demands.demands if u not in covered]
    total = frame_demands._time_s(groups, solo, 0.0)
    _record_plan(frame_demands, len(groups), len(solo), lambda: total, None)
    return total


def achievable_fps(total_time_s: float, cap_fps: float) -> float:
    """Frame rate a plan of ``total_time_s`` airtime sustains
    (1 / total time, capped at ``cap_fps``)."""
    if total_time_s <= 0:
        return cap_fps
    return min(cap_fps, 1.0 / total_time_s)
