"""Multi-AP coordination with spatial reuse (paper §5, built out).

"To allow even more users to watch volumetric content at the same time,
there are opportunities to utilize multiple APs, each of which can serve a
specific multicast group separately.  Thanks to the directional nature of
mmWave links, multiple APs could serve different groups of clients
concurrently to achieve high spatial reuse."

This module implements that agenda item end to end:

* a :class:`MultiApDeployment` of several wall-mounted APs sharing one room;
* SINR-aware rate computation: when two APs transmit concurrently, each
  user's rate follows from the serving beam's RSS *minus* the other APs'
  leaked power (sidelobes + reflections are real interference here);
* :func:`assign_groups` — greedy user->AP assignment by best serving RSS,
  respecting the paper's per-AP multicast grouping;
* :func:`concurrent_frame_time` — delivery time when APs transmit in
  parallel (the max over APs of each AP's serialized schedule), to compare
  against a single AP's serialized time.

The paper's cited challenges are modeled, not ignored: inter-beam
interference enters through the SINR, and the coordination overhead is an
explicit parameter charged per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mac.scheduler import UserDemand
from ..mmwave.beams import combine_weights
from ..mmwave.channel import Channel
from ..mmwave.codebook import Codebook
from ..mmwave.sinr import app_rate_for_sinr_mbps, sinr_db

__all__ = [
    "MultiApDeployment",
    "ApAssignment",
    "assign_groups",
    "concurrent_frame_time",
    "coordinated_frame_time",
    "single_ap_frame_time",
]


@dataclass
class MultiApDeployment:
    """Several APs covering one room (channels share the room geometry)."""

    channels: list[Channel]
    codebooks: list[Codebook]
    # Control overhead of coordinating APs each frame (scheduling beacons,
    # trigger frames) — one of the paper's stated §5 costs.
    coordination_overhead_s: float = 0.0005

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("need at least one AP")
        if len(self.channels) != len(self.codebooks):
            raise ValueError("one codebook per AP")

    @property
    def num_aps(self) -> int:
        return len(self.channels)

    def best_beam_rss(
        self, ap_index: int, position: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """(weights, RSS) of AP ``ap_index``'s best codebook beam to a point."""
        channel = self.channels[ap_index]
        codebook = self.codebooks[ap_index]
        weight_matrix = codebook.weight_matrix
        rss = channel.rss_matrix_dbm(weight_matrix, position)
        best = int(np.argmax(rss))
        return codebook[best].weights, float(rss[best])


@dataclass(frozen=True)
class ApAssignment:
    """Users partitioned across APs, with per-AP multicast groups."""

    ap_users: tuple[tuple[int, ...], ...]  # per AP: assigned user indices
    serving_rss_dbm: dict[int, float]  # user -> RSS from their serving AP


def assign_groups(
    deployment: MultiApDeployment,
    positions: dict[int, np.ndarray],
    balance: bool = True,
) -> ApAssignment:
    """Assign each user to an AP: strongest serving beam, then load balance.

    Pure RSS association piles co-located viewers onto one AP and throws
    the spatial-reuse gain away, so with ``balance`` the users whose RSS
    penalty for switching is smallest are moved from the most- to the
    least-loaded AP until loads differ by at most one — a simple version of
    the coordination problem the paper's §5 raises.
    """
    all_rss = {
        user: [deployment.best_beam_rss(ap, pos)[1]
               for ap in range(deployment.num_aps)]
        for user, pos in positions.items()
    }
    ap_users: list[list[int]] = [[] for _ in range(deployment.num_aps)]
    for user, rss_list in all_rss.items():
        ap_users[int(np.argmax(rss_list))].append(user)

    if balance and deployment.num_aps > 1:
        for _ in range(len(positions)):
            sizes = [len(u) for u in ap_users]
            src = int(np.argmax(sizes))
            dst = int(np.argmin(sizes))
            if sizes[src] - sizes[dst] <= 1:
                break
            # Move the user losing the least RSS by switching src -> dst.
            mover = min(
                ap_users[src],
                key=lambda u: all_rss[u][src] - all_rss[u][dst],
            )
            ap_users[src].remove(mover)
            ap_users[dst].append(mover)

    serving = {}
    for ap, users in enumerate(ap_users):
        for u in users:
            serving[u] = all_rss[u][ap]
    return ApAssignment(
        ap_users=tuple(tuple(sorted(u)) for u in ap_users),
        serving_rss_dbm=serving,
    )


def _subgroup_beam(
    deployment: MultiApDeployment,
    ap: int,
    members: tuple[int, ...],
    positions: dict[int, np.ndarray],
) -> np.ndarray:
    """The beam AP ``ap`` uses for a member subset (multi-lobe for groups)."""
    per_user = [deployment.best_beam_rss(ap, positions[u]) for u in members]
    if len(members) == 1:
        return per_user[0][0]
    return combine_weights(
        [w for w, _ in per_user], [r for _, r in per_user]
    )


def _interference_at(
    deployment: MultiApDeployment,
    position: np.ndarray,
    active_beams: dict[int, np.ndarray],
    exclude_ap: int,
) -> list[float]:
    """Received power (dBm) of every other AP's active beam at a position."""
    out = []
    for ap, weights in active_beams.items():
        if ap == exclude_ap:
            continue
        out.append(deployment.channels[ap].rss_dbm(weights, position))
    return out


def _ap_schedule_time(
    deployment: MultiApDeployment,
    ap: int,
    users: tuple[int, ...],
    demands: dict[int, UserDemand],
    positions: dict[int, np.ndarray],
    active_beams: dict[int, np.ndarray],
    min_group_iou: float,
) -> float:
    """Serialized airtime for one AP to serve its users under interference.

    Within the AP the standard greedy viewport-similarity grouper decides
    the multicast subgroups; every rate is SINR-limited by the *other* APs'
    concurrent beams (approximated by their whole-assignment beams — the
    interference picture changes sub-frame, but its envelope does not).
    """
    from .grouping import greedy_similarity_grouping

    def user_rate(u: int) -> float:
        weights, _ = deployment.best_beam_rss(ap, positions[u])
        signal = deployment.channels[ap].rss_dbm(weights, positions[u])
        interference = _interference_at(
            deployment, positions[u], active_beams, exclude_ap=ap
        )
        return app_rate_for_sinr_mbps(sinr_db(signal, interference))

    ap_demands = [
        UserDemand(
            user_id=u,
            cell_bytes=demands[u].cell_bytes,
            unicast_rate_mbps=user_rate(u),
        )
        for u in users
    ]

    def multicast_rate(members: tuple[int, ...]) -> float:
        beam = _subgroup_beam(deployment, ap, members, positions)
        worst = np.inf
        for u in members:
            signal = deployment.channels[ap].rss_dbm(beam, positions[u])
            interference = _interference_at(
                deployment, positions[u], active_beams, exclude_ap=ap
            )
            worst = min(worst, sinr_db(signal, interference))
        return app_rate_for_sinr_mbps(float(worst))

    result = greedy_similarity_grouping(
        ap_demands, multicast_rate, min_iou=min_group_iou
    )
    return result.total_time_s


def concurrent_frame_time(
    deployment: MultiApDeployment,
    demands: dict[int, UserDemand],
    positions: dict[int, np.ndarray],
    assignment: ApAssignment | None = None,
    min_group_iou: float = 0.05,
) -> float:
    """Frame delivery time with all APs transmitting concurrently.

    Each AP runs its own similarity-grouped schedule over its assigned
    users; APs transmit in parallel (spatial reuse), so the frame finishes
    when the slowest AP does, plus the coordination overhead.
    """
    assignment = assignment or assign_groups(deployment, positions)
    active_beams: dict[int, np.ndarray] = {}
    for ap, users in enumerate(assignment.ap_users):
        if users:
            active_beams[ap] = _subgroup_beam(deployment, ap, users, positions)

    per_ap_times = [
        _ap_schedule_time(
            deployment, ap, users, demands, positions, active_beams,
            min_group_iou,
        )
        for ap, users in enumerate(assignment.ap_users)
        if users
    ]
    if not per_ap_times:
        return 0.0
    return float(max(per_ap_times) + deployment.coordination_overhead_s)


def coordinated_frame_time(
    deployment: MultiApDeployment,
    demands: dict[int, UserDemand],
    positions: dict[int, np.ndarray],
    assignment: ApAssignment | None = None,
    min_group_iou: float = 0.05,
) -> float:
    """Frame time under interference-aware AP coordination.

    The coordinator evaluates both operating modes and picks the faster:

    * **spatial reuse** — all APs transmit concurrently (SINR-limited);
    * **AP-TDMA** — APs take turns, each interference-free.

    Co-located audiences force TDMA (cross-beams would collapse SINR);
    separated clusters unlock concurrency — precisely the trade-off the
    paper's §5 flags as "interference management between multi-lobe beams".
    """
    assignment = assignment or assign_groups(deployment, positions)
    concurrent = concurrent_frame_time(
        deployment, demands, positions, assignment, min_group_iou
    )
    tdma = (
        sum(
            _ap_schedule_time(
                deployment, ap, users, demands, positions, {}, min_group_iou
            )
            for ap, users in enumerate(assignment.ap_users)
            if users
        )
        + deployment.coordination_overhead_s
    )
    return float(min(concurrent, tdma))


def single_ap_frame_time(
    deployment: MultiApDeployment,
    demands: dict[int, UserDemand],
    positions: dict[int, np.ndarray],
    ap: int = 0,
    min_group_iou: float = 0.05,
) -> float:
    """Baseline: one AP serves everyone with its similarity-grouped schedule."""
    users = tuple(sorted(demands))
    return _ap_schedule_time(
        deployment, ap, users, demands, positions, {}, min_group_iou
    )
