"""Block-ACK retransmission with a per-frame deadline budget.

Unicast 802.11ad delivery recovers losses with block acknowledgements: the
sender transmits a block of PDUs, collects a per-receiver bitmap, and
retransmits the union of missed PDUs, round after round, until everyone has
the block or the frame's deadline budget runs out.  The same mechanism
applied to a multicast group is the "ARQ-only multicast" baseline: every
round pays one feedback exchange *per member* (per-receiver ACKs do not
scale) and retransmits the union of all members' losses at the group rate,
so both the feedback overhead and the retransmission volume grow with group
size.

The round loop runs as a process on the :mod:`repro.sim` engine; each round
races its own completion against the frame deadline with
:func:`repro.sim.any_of`.  A round cut off by the deadline delivers nothing
(the block is only usable once acknowledged), and members still holding
losses at that point have missed the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import trace as _trace
from ..sim import Environment, Event, any_of

__all__ = [
    "ArqConfig",
    "ArqOutcome",
    "block_arq_process",
    "simulate_block_arq",
]

ROUND_DONE = "arq-round-done"

_EV_ARQ_ROUND = _trace.event_type(
    "net.arq_round", layer="net",
    help="one block-ACK round completed (union retransmission + feedback); "
         "cost_s = data_s (PDU airtime) + overhead_s (per-member feedback "
         "and turnaround)",
    fields=("round", "packets", "pending_receivers", "cost_s", "data_s",
            "overhead_s", "frame", "users"),
)
_EV_ARQ_DEADLINE = _trace.event_type(
    "net.arq_deadline", layer="net",
    help="the frame deadline cut an ARQ round short; the block stays "
         "unacknowledged and wasted_s of airtime bought nothing",
    fields=("round", "pending_receivers", "wasted_s", "frame", "users"),
)


@dataclass(frozen=True)
class ArqConfig:
    """Block-ACK parameters."""

    max_rounds: int = 8
    feedback_time_s: float = 100e-6  # one member's BAR/BA exchange per round
    round_trip_s: float = 200e-6  # per-round turnaround/scheduling latency

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.feedback_time_s < 0 or self.round_trip_s < 0:
            raise ValueError("ARQ latencies must be non-negative")


@dataclass(frozen=True)
class ArqOutcome:
    """Result of one block's delivery attempt to one or more receivers."""

    delivered: tuple[bool, ...]  # per receiver, in input order
    airtime_s: float  # medium time consumed, including feedback
    rounds: int  # completed rounds
    packets_sent: int  # data PDUs, including retransmissions
    residual_packets: tuple[int, ...]  # per receiver, still missing at stop

    @property
    def all_delivered(self) -> bool:
        return all(self.delivered)


def block_arq_process(
    env: Environment,
    rng: np.random.Generator,
    num_packets: int,
    pers: list[float],
    packet_time_s: float,
    config: ArqConfig,
    deadline_event: Event | None = None,
    frame: int | None = None,
    receivers: tuple[int, ...] | None = None,
):
    """Process: deliver ``num_packets`` to every receiver via block-ACK rounds.

    ``pers`` holds one per-packet loss probability per receiver, each in
    ``[0, 1]``.  Each round transmits the union of outstanding packets,
    then charges one feedback slot per receiver plus the round-trip
    turnaround.  ``deadline_event`` (shared across a frame's transmission
    units) cuts the loop short; the interrupted round is wasted airtime.

    Each receiver's outstanding packets are one Python-int mask (bit ``p``
    set while packet ``p`` is missing), so a round's union is the OR of
    the masks and every count is a ``bit_count()``.  A listening receiver
    with ``0 < per < 1`` draws ``rng.random(num_packets)`` once per round,
    in receiver order, and keeps the packets that failed again.

    ``frame`` and ``receivers`` are trace-only correlation fields (the frame
    index being delivered and the receiver user ids, when the caller knows
    them); they never influence the delivery outcome.

    Returns an :class:`ArqOutcome` (as the process's value).
    """
    num_receivers = len(pers)
    if num_receivers == 0:
        raise ValueError("need at least one receiver")
    for per in pers:
        if not 0.0 <= per <= 1.0:  # NaN fails too
            raise ValueError(f"per must be in [0, 1], got {per}")
    if num_packets == 0:
        return ArqOutcome(
            delivered=(True,) * num_receivers,
            airtime_s=0.0,
            rounds=0,
            packets_sent=0,
            residual_packets=(0,) * num_receivers,
        )
    if packet_time_s <= 0 or not np.isfinite(packet_time_s):
        # Dead link: nothing can be transmitted; fail without burning time.
        return ArqOutcome(
            delivered=(False,) * num_receivers,
            airtime_s=0.0,
            rounds=0,
            packets_sent=0,
            residual_packets=(num_packets,) * num_receivers,
        )

    needs = [(1 << num_packets) - 1] * num_receivers
    start = env.now
    rounds = 0
    packets_sent = 0
    overhead_s = num_receivers * config.feedback_time_s + config.round_trip_s
    while rounds < config.max_rounds:
        union = 0
        for need in needs:
            union |= need
        n_union = union.bit_count()
        if n_union == 0:
            break
        cost = n_union * packet_time_s + overhead_s
        round_start = env.now
        round_done = env.timeout(cost, value=ROUND_DONE)
        if deadline_event is not None:
            winner = yield any_of(env, [round_done, deadline_event])
        else:
            winner = yield round_done
        if winner != ROUND_DONE:
            # Deadline hit mid-round: the block was never acknowledged, so
            # the round delivers nothing and the frame is late.
            if _trace._RECORDER is not None:
                _EV_ARQ_DEADLINE.emit(
                    t=env.now,
                    round=rounds + 1,
                    pending_receivers=sum(1 for need in needs if need),
                    wasted_s=env.now - round_start,
                    **_trace.correlation(frame=frame, users=receivers),
                )
            break
        rounds += 1
        packets_sent += n_union
        for r, per in enumerate(pers):
            need = needs[r]
            if not need or per >= 1.0:
                continue  # nothing outstanding, or the receiver hears nothing
            if per <= 0.0:
                needs[r] = 0
                continue
            failures = np.packbits(
                rng.random(num_packets) < per, bitorder="little"
            )
            needs[r] = need & int.from_bytes(failures.tobytes(), "little")
        if _trace._RECORDER is not None:
            _EV_ARQ_ROUND.emit(
                t=env.now,
                round=rounds,
                packets=n_union,
                pending_receivers=sum(1 for need in needs if need),
                cost_s=cost,
                data_s=n_union * packet_time_s,
                overhead_s=overhead_s,
                **_trace.correlation(frame=frame, users=receivers),
            )
    residual = tuple(need.bit_count() for need in needs)
    return ArqOutcome(
        delivered=tuple(n == 0 for n in residual),
        airtime_s=env.now - start,
        rounds=rounds,
        packets_sent=packets_sent,
        residual_packets=residual,
    )


def simulate_block_arq(
    rng: np.random.Generator,
    num_packets: int,
    pers: list[float],
    packet_time_s: float,
    config: ArqConfig = ArqConfig(),
    deadline_s: float | None = None,
) -> ArqOutcome:
    """Run :func:`block_arq_process` to completion on a private clock."""
    env = Environment()
    deadline_event = (
        env.timeout(deadline_s, value="deadline") if deadline_s is not None else None
    )
    holder: dict[str, ArqOutcome] = {}

    def runner():
        holder["outcome"] = yield from block_arq_process(
            env, rng, num_packets, pers, packet_time_s, config, deadline_event
        )

    env.process(runner())
    env.run_until_empty()
    return holder["outcome"]
