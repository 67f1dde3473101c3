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
demands as a bytes matrix and presence mask over the sorted cell
universe, plus a memo of each group's airtime, so a candidate merge costs
one new T_m(k).  :func:`overlap_bytes`, :func:`multicast_frame_time`,
:func:`unicast_frame_time` and :func:`plan_time_reference` are the
set-and-dict scalar references it reproduces bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
]

_C_PLANS = _metrics.counter(
    "mac.frame_plans_built", unit="plans", layer="mac",
    help="FramePlans constructed via plan_frame (includes candidate plans "
         "evaluated during grouping search)",
)
_C_GROUPS = _metrics.counter(
    "mac.multicast_groups_planned", unit="groups", layer="mac",
    help="multicast groups admitted into constructed frame plans",
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
        if self.unicast_rate_mbps < 0:
            raise ValueError("unicast_rate_mbps must be non-negative")

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


class _Matrix(NamedTuple):
    cells: np.ndarray  # (C,) the frame's sorted cell universe
    values: np.ndarray  # (R, C) float64 bytes per row, 0.0 where absent
    present: np.ndarray  # (R, C) bool presence mask
    order: np.ndarray  # (R, L) each row's columns in insertion order
    ordered: np.ndarray  # (R, L) each row's bytes in insertion order


class FrameDemands:
    """One frame's demands as arrays, shared by every plan of the frame.

    A row is one *distinct* ``cell_bytes`` mapping: users holding the same
    dict by reference share it, so a venue tick has one row per archetype
    however many users it admits.  Each row's bytes and presence sit over
    the frame's sorted cell universe, and its cells are also kept in the
    mapping's own insertion order, so every sum runs in the order the
    scalar references add in: overlaps in sorted cell order, residuals and
    totals in insertion order, all left to right.  Group airtimes are
    memoised on ``(members, rate)``.  The mappings must not change while
    the frame is planned.
    """

    def __init__(self, demands: Iterable[UserDemand]) -> None:
        self.demands: dict[int, UserDemand] = {d.user_id: d for d in demands}
        self.user_row: dict[int, int] = {}
        self.row_totals: list[float] = []
        # Serialized unicast airtime of each user's whole demand.
        self.unicast_s: dict[int, float] = {}
        self._mappings: list[dict[int, float]] = []
        self._airtime: dict[tuple[tuple[int, ...], float], float] = {}
        row_of: dict[int, int] = {}  # id(cell_bytes) -> row
        for uid, d in self.demands.items():
            row = row_of.get(id(d.cell_bytes))
            if row is None:
                row = row_of[id(d.cell_bytes)] = len(self._mappings)
                self._mappings.append(d.cell_bytes)
                self.row_totals.append(d.total_bytes)
            self.user_row[uid] = row
            self.unicast_s[uid] = _transfer_time_s(
                self.row_totals[row], d.unicast_rate_mbps
            )

    @cached_property
    def matrix(self) -> _Matrix:
        """The bytes/presence matrix, built on first use (unicast-only
        plans never need it)."""
        mappings = self._mappings
        lengths = np.array([len(m) for m in mappings], dtype=np.intp)
        total = int(lengths.sum())
        keys = np.fromiter(
            chain.from_iterable(mappings), dtype=np.int64, count=total
        )
        flat = np.fromiter(
            chain.from_iterable(m.values() for m in mappings),
            dtype=np.float64,
            count=total,
        )
        cells, columns = np.unique(keys, return_inverse=True)
        width = max(1, int(lengths.max(initial=0)))
        filled = np.arange(width) < lengths[:, None]
        order = np.zeros((len(mappings), width), dtype=np.intp)
        ordered = np.zeros((len(mappings), width))
        order[filled] = columns
        ordered[filled] = flat
        row_ids = np.repeat(np.arange(len(mappings)), lengths)
        values = np.zeros((len(mappings), len(cells)))
        present = np.zeros((len(mappings), len(cells)), dtype=bool)
        values[row_ids, columns] = flat
        present[row_ids, columns] = True
        return _Matrix(cells, values, present, order, ordered)

    def unicast_time_s(self, members: Iterable[int]) -> float:
        """Bitwise :func:`unicast_frame_time` of the members' demands."""
        unicast_s = self.unicast_s
        return _fold_sum(unicast_s[u] for u in members)

    def overlap_bytes(self, members: Iterable[int]) -> float:
        """Bitwise :func:`overlap_bytes` of the members' demands."""
        return self._overlap(self._rows(members))[1]

    def group_time_s(self, members: tuple[int, ...], rate_mbps: float) -> float:
        """Bitwise :func:`multicast_frame_time` of the members' demands,
        computed once per ``(members, rate)`` in this frame."""
        key = (tuple(members), rate_mbps)
        t = self._airtime.get(key)
        if t is None:
            t = self._airtime[key] = self._multicast_time_s(*key)
        return t

    def _rows(self, members: Iterable[int]) -> list[int]:
        user_row = self.user_row
        return sorted({user_row[u] for u in members})

    def _overlap(self, rows: list[int]) -> tuple[np.ndarray, float]:
        """The rows' shared-cell mask and S_m(k): their per-cell max on the
        shared cells, summed in sorted cell order (every other cell adds
        an exact 0.0)."""
        m = self.matrix
        if not rows or not m.cells.size:
            return np.zeros(m.cells.size, dtype=bool), 0.0
        shared = np.logical_and.reduce(m.present[rows])
        overlap = np.maximum.reduce(m.values[rows]) * shared
        return shared, float(np.add.accumulate(overlap)[-1])

    def _multicast_time_s(
        self, members: tuple[int, ...], rate_mbps: float
    ) -> float:
        rows = self._rows(members)
        shared, s_m = self._overlap(rows)
        t = _transfer_time_s(s_m, rate_mbps)
        if not shared.any():
            # Nothing shared: every row's residual is its whole total.
            residuals = [self.row_totals[r] for r in rows]
        else:
            # Each row summed outside the overlap in its own insertion
            # order, the overlap masked out by exact 0.0 factors.
            m = self.matrix
            residuals = np.add.accumulate(
                m.ordered[rows] * ~shared[m.order[rows]], axis=1
            )[:, -1].tolist()
        # A zero residual adds 0.0 to a non-negative t: skip it.
        left = {row: r for row, r in zip(rows, residuals) if r > 0}
        if left:
            user_row = self.user_row
            demands = self.demands
            for u in members:
                r = left.get(user_row[u])
                if r is not None:
                    t += _transfer_time_s(r, demands[u].unicast_rate_mbps)
        return float(t)


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
        covered: set[int] = set()
        for members, rate in self.groups:
            if rate < 0:
                raise ValueError("multicast rate must be non-negative")
            for m in members:
                if m in covered:
                    raise ValueError(f"user {m} appears in two groups")
                if m not in self.demands:
                    raise KeyError(f"group member {m} has no demand")
                covered.add(m)
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
            frame_demands = self.frame_demands
            t = 0.0
            num_transmissions = len(self._solo)
            for members, rate in self.groups:
                t += frame_demands.group_time_s(members, rate)
                num_transmissions += 1 + len(members)
            unicast_s = frame_demands.unicast_s
            for u in self._solo:
                t += unicast_s[u]
            object.__setattr__(
                self,
                "_total",
                t + self.beam_switch_overhead_s * num_transmissions,
            )
        return self._total

    def achievable_fps(self, cap_fps: float = 30.0) -> float:
        """Frame rate this plan sustains (1 / total time, capped)."""
        t = self.total_time_s()
        if t <= 0:
            return cap_fps
        return min(cap_fps, 1.0 / t)

    def satisfies(self, target_fps: float) -> bool:
        """The paper's admission constraint T_m(k) <= 1/F."""
        return self.total_time_s() <= 1.0 / target_fps


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
    _C_PLANS.inc()
    _C_GROUPS.inc(len(plan.groups))
    if _trace._RECORDER is not None:
        _EV_PLAN.emit(
            users=len(plan.demands),
            groups=len(plan.groups),
            solo=len(plan.solo_users),
            total_time_s=plan.total_time_s(),
            user_ids=sorted(plan.demands),
            **_trace.correlation(frame=frame),
        )
    return plan
