"""Packet-level delivery of a frame plan: goodput + residual-loss outcomes.

The fluid scheduler (:mod:`repro.mac.scheduler`) prices a frame plan as
``bytes / rate`` — delivery always succeeds, loss only slows it down.  The
:class:`TransportSimulator` replaces that math with a packet-level pipeline
run as processes on the :mod:`repro.sim` engine:

1. each transmission unit (a group's shared cells, a member's residual
   cells, a solo user's frame) is packetized into MTU-sized PDUs, once
   per plan (:func:`~repro.net.packetization.plan_units`);
2. each PDU is lost independently with the link's per-packet error
   probability (:mod:`repro.net.errormodel`);
3. losses are recovered per the configured mode — block-ACK ARQ rounds
   (:mod:`repro.net.arq`) or proactive rateless FEC (:mod:`repro.net.fec`)
   — all racing one shared frame-deadline event;
4. the outcome is *effective goodput* (airtime actually burned, including
   feedback, retransmissions, and repair packets) plus *residual frame
   loss* (members whose frame did not completely arrive in time).

``mode="ideal"`` bypasses all of it and reproduces the fluid numbers
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mac.scheduler import FramePlan
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment, Event, any_of
from .arq import block_arq_process
from .config import TransportConfig
from .fec import sample_decodes, total_packets_needed
from .packetization import PacketizedUnit, plan_units

__all__ = ["FrameOutcome", "TransportSimulator", "DEADLINE", "TX_DONE"]

DEADLINE = "frame-deadline"
TX_DONE = "tx-done"

# -- observability (no-ops unless recording/metrics are enabled) -------------

_C_PACKETS = _metrics.counter(
    "net.packets_sent", unit="packets", layer="net",
    help="data PDUs put on the air, including retransmissions and FEC repair",
)
_C_WIRE_BYTES = _metrics.counter(
    "net.wire_bytes_sent", unit="bytes", layer="net",
    help="wire bytes transmitted (payload + per-PDU header overhead)",
)
_C_APP_BYTES = _metrics.counter(
    "net.app_bytes_delivered", unit="bytes", layer="net",
    help="application bytes of frames that completely arrived in time",
)
_C_FRAMES_OK = _metrics.counter(
    "net.user_frames_delivered", unit="frames", layer="net",
    help="per-user frame deliveries that completed before the deadline",
)
_C_FRAMES_LOST = _metrics.counter(
    "net.user_frames_lost", unit="frames", layer="net",
    help="per-user frame deliveries that missed the deadline (residual loss)",
)
_C_ARQ_ROUNDS = _metrics.counter(
    "net.arq_rounds", unit="rounds", layer="net",
    help="completed block-ACK retransmission rounds across all units",
)
_C_FEC_REPAIR = _metrics.counter(
    "net.fec_repair_packets", unit="packets", layer="net",
    help="repair PDUs sent beyond the k source PDUs of FEC-protected blocks",
)
_H_AIRTIME = _metrics.histogram(
    "net.frame_airtime_s",
    edges=(0.005, 0.01, 0.02, 1.0 / 30.0, 0.05, 0.1, 0.2, 0.5),
    unit="s", layer="net",
    help="airtime burned per delivered frame plan (feedback + repair included)",
)
_H_RETX = _metrics.histogram(
    "net.retx_overhead",
    edges=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0),
    unit="fraction", layer="net",
    help="extra airtime vs. the fluid model, as a fraction of the ideal time",
)

_EV_UNIT_TX = _trace.event_type(
    "net.unit_tx", layer="net",
    help="one transmission unit (multicast shared cells, residuals, or a solo "
         "frame) finished its delivery attempt",
    fields=("scheme", "packets", "receivers", "delivered", "airtime_s",
            "frame", "users"),
)
_EV_FEC_TX = _trace.event_type(
    "net.fec_tx", layer="net",
    help="one FEC-protected block was transmitted (possibly deadline-"
         "truncated); airtime_s = source_s (the k source PDUs) + repair_s "
         "(repair PDUs and truncation remainder)",
    fields=("k", "n_planned", "n_sent", "truncated", "airtime_s", "source_s",
            "repair_s", "frame", "users"),
)
_EV_BEAM_SWITCH = _trace.event_type(
    "net.beam_switch", layer="net",
    help="the radio paid one beam-switch overhead before a transmission "
         "unit (a MAC-layer cost the frame budget has to absorb)",
    fields=("overhead_s", "frame"),
)
_EV_FRAME_OUTCOME = _trace.event_type(
    "net.frame_outcome", layer="net",
    help="a full frame plan finished: airtime, residual loss, recovery cost",
    fields=("airtime_s", "users", "lost", "packets", "arq_rounds",
            "retx_overhead", "deadline_s", "frame", "delivered_users",
            "lost_users"),
)


def _record_outcome(
    outcome: "FrameOutcome",
    deadline_s: float | None = None,
    frame: int | None = None,
) -> None:
    """Fold one frame outcome into the metrics registry and the trace."""
    if _metrics.REGISTRY.enabled:
        ok = sum(outcome.delivered.values())
        _C_PACKETS.inc(outcome.packets_sent)
        _C_WIRE_BYTES.inc(outcome.wire_bytes_sent)
        _C_APP_BYTES.inc(outcome.app_bytes_delivered)
        _C_FRAMES_OK.inc(ok)
        _C_FRAMES_LOST.inc(len(outcome.delivered) - ok)
        _C_ARQ_ROUNDS.inc(outcome.arq_rounds)
        _H_AIRTIME.observe(outcome.airtime_s)
        _H_RETX.observe(outcome.retx_overhead)
    if _trace._RECORDER is not None:
        fields = dict(
            airtime_s=outcome.airtime_s,
            users=len(outcome.delivered),
            lost=sum(1 for ok in outcome.delivered.values() if not ok),
            packets=outcome.packets_sent,
            arq_rounds=outcome.arq_rounds,
            retx_overhead=outcome.retx_overhead,
            delivered_users=sorted(
                u for u, ok in outcome.delivered.items() if ok
            ),
            lost_users=sorted(
                u for u, ok in outcome.delivered.items() if not ok
            ),
        )
        if deadline_s is not None:
            fields["deadline_s"] = deadline_s
        fields.update(_trace.correlation(frame=frame))
        _EV_FRAME_OUTCOME.emit(**fields)


@dataclass
class FrameOutcome:
    """What actually happened to one frame's delivery."""

    airtime_s: float
    delivered: dict[int, bool]  # user id -> frame fully arrived in time
    app_bytes_delivered: float
    wire_bytes_sent: float
    packets_sent: int
    arq_rounds: int
    residual_loss: float  # fraction of users whose frame was lost
    retx_overhead: float  # extra airtime vs. the fluid model, as a fraction

    @property
    def delivered_fraction(self) -> float:
        if not self.delivered:
            return 1.0
        return sum(self.delivered.values()) / len(self.delivered)

    def effective_fps(self, cap_fps: float = 30.0) -> float:
        """Frame rate this delivery sustains, averaged over users.

        A user who got the frame sustains ``1 / airtime``; a user who lost
        it sustains 0 for this frame — the mean is
        ``delivered_fraction / airtime``.
        """
        frac = self.delivered_fraction
        if self.airtime_s <= 0:
            return cap_fps if frac > 0 else 0.0
        return min(cap_fps, frac / self.airtime_s)


class TransportSimulator:
    """Delivers :class:`~repro.mac.scheduler.FramePlan`\\ s over lossy links."""

    def __init__(
        self, config: TransportConfig, rng: np.random.Generator | None = None
    ) -> None:
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)

    def reseed(self, seed: int | None = None) -> None:
        """Reset the loss-sampling stream (for reproducible re-runs)."""
        self.rng = np.random.default_rng(
            self.config.seed if seed is None else seed
        )

    def link_per(self, rss_dbm: float | None = None, blocked: bool = False) -> float:
        """Per-packet loss for a link, via the configured error model."""
        return self.config.error_model.per(rss_dbm=rss_dbm, blocked=blocked)

    # -- delivery --------------------------------------------------------

    def frame_outcome(
        self,
        plan: FramePlan,
        pers: dict[int, float],
        target_fps: float = 30.0,
        frame: int | None = None,
    ) -> FrameOutcome:
        """Synchronously deliver one frame plan on a private clock."""
        env = Environment()
        holder: dict[str, FrameOutcome] = {}

        def runner():
            holder["outcome"] = yield from self.deliver(
                env, plan, pers, target_fps, frame=frame
            )

        env.process(runner())
        env.run_until_empty()
        return holder["outcome"]

    def deliver(
        self,
        env: Environment,
        plan: FramePlan,
        pers: dict[int, float],
        target_fps: float = 30.0,
        frame: int | None = None,
    ):
        """Process: deliver ``plan``; returns a :class:`FrameOutcome`.

        ``pers`` maps user id -> per-packet loss probability.  All of the
        plan's transmission units share one deadline budget of
        ``deadline_frames / target_fps`` seconds, serialized in plan order
        (multicast groups first, then their residuals, then solo users) —
        the packet-level analogue of the fluid model's summed airtime.

        ``frame`` is a trace-only correlation field: the frame index this
        plan carries, attached to every event the delivery emits so span
        reconstruction can join them without heuristics.  It never affects
        the outcome.
        """
        demands = plan.demands
        deadline_s = self.config.deadline_s(target_fps)
        if self.config.is_ideal:
            t = plan.total_time_s()
            ok = bool(np.isfinite(t))
            if ok and t > 0:
                yield env.timeout(t)
            delivered = {u: ok for u in demands}
            app = sum(d.total_bytes for d in demands.values()) if ok else 0.0
            outcome = FrameOutcome(
                airtime_s=t if ok else 0.0,
                delivered=delivered,
                app_bytes_delivered=app,
                wire_bytes_sent=app,
                packets_sent=0,
                arq_rounds=0,
                residual_loss=0.0 if ok else 1.0,
                retx_overhead=0.0,
            )
            _record_outcome(outcome, deadline_s=deadline_s, frame=frame)
            return outcome

        start = env.now
        deadline_event = env.timeout(deadline_s, value=DEADLINE)
        stats = _DeliveryStats()
        delivered: dict[int, bool] = {}
        overhead_s = plan.beam_switch_overhead_s

        units = plan_units(plan, self.config.packetization)
        arq, fec = self._arq_unit, self._fec_unit
        multicast = arq if self.config.multicast_scheme() == "arq" else fec
        unicast = arq if self.config.unicast_scheme() == "arq" else fec
        for (members, rate), (shared_unit, residual_units) in zip(
            plan.groups, units.groups
        ):
            yield from self._beam_switch(env, overhead_s, frame)
            ok = yield from multicast(
                env, shared_unit, rate, [pers.get(m, 0.0) for m in members],
                deadline_event, stats, frame=frame, members=tuple(members),
            )
            for m, shared_ok, residual_unit in zip(members, ok, residual_units):
                if not shared_ok or residual_unit is None:
                    # Without its shared cells the frame is unusable: the
                    # member's NACK suppresses the pointless residual leg.
                    delivered[m] = bool(shared_ok)
                    continue
                yield from self._beam_switch(env, overhead_s, frame)
                ok_m = yield from unicast(
                    env, residual_unit, demands[m].unicast_rate_mbps,
                    [pers.get(m, 0.0)], deadline_event, stats,
                    frame=frame, members=(m,),
                )
                delivered[m] = ok_m[0]

        for u, unit in zip(plan.solo_users, units.solos):
            yield from self._beam_switch(env, overhead_s, frame)
            ok_u = yield from unicast(
                env, unit, demands[u].unicast_rate_mbps, [pers.get(u, 0.0)],
                deadline_event, stats, frame=frame, members=(u,),
            )
            delivered[u] = ok_u[0]

        airtime = env.now - start
        num_users = len(demands)
        losses = sum(1 for ok in delivered.values() if not ok)
        app_delivered = sum(
            demands[u].total_bytes for u, ok in delivered.items() if ok
        )
        ideal_t = plan.total_time_s()
        if np.isfinite(ideal_t) and ideal_t > 0:
            retx_overhead = max(0.0, airtime / ideal_t - 1.0)
        else:
            retx_overhead = 0.0
        outcome = FrameOutcome(
            airtime_s=airtime,
            delivered=delivered,
            app_bytes_delivered=app_delivered,
            wire_bytes_sent=stats.wire_bytes,
            packets_sent=stats.packets,
            arq_rounds=stats.arq_rounds,
            residual_loss=(losses / num_users) if num_users else 0.0,
            retx_overhead=retx_overhead,
        )
        _record_outcome(outcome, deadline_s=deadline_s, frame=frame)
        return outcome

    # -- transmission units ---------------------------------------------

    @staticmethod
    def _beam_switch(env: Environment, overhead_s: float, frame: int | None):
        """Process: pay one beam-switch overhead (nothing when it is 0)."""
        if overhead_s > 0:
            yield env.timeout(overhead_s)
            if _trace._RECORDER is not None:
                _EV_BEAM_SWITCH.emit(
                    t=env.now,
                    overhead_s=overhead_s,
                    **_trace.correlation(frame=frame),
                )

    def _arq_unit(
        self,
        env: Environment,
        unit: PacketizedUnit,
        rate_mbps: float,
        member_pers: list[float],
        deadline_event: Event,
        stats: "_DeliveryStats",
        frame: int | None = None,
        members: tuple[int, ...] | None = None,
    ):
        if unit.num_packets == 0:
            return (True,) * len(member_pers)
        packet_time = _packet_time_s(unit, rate_mbps)
        unit_start = env.now
        outcome = yield env.process(
            block_arq_process(
                env,
                self.rng,
                unit.num_packets,
                member_pers,
                packet_time,
                self.config.arq,
                deadline_event,
                frame=frame,
                receivers=members,
            )
        )
        stats.packets += outcome.packets_sent
        stats.wire_bytes += outcome.packets_sent * _mean_packet_bytes(unit)
        stats.arq_rounds += outcome.rounds
        if _trace._RECORDER is not None:
            _EV_UNIT_TX.emit(
                t=env.now,
                scheme="arq",
                packets=outcome.packets_sent,
                receivers=len(member_pers),
                delivered=sum(outcome.delivered),
                airtime_s=env.now - unit_start,
                **_trace.correlation(frame=frame, users=members),
            )
        return outcome.delivered

    def _fec_unit(
        self,
        env: Environment,
        unit: PacketizedUnit,
        rate_mbps: float,
        member_pers: list[float],
        deadline_event: Event,
        stats: "_DeliveryStats",
        frame: int | None = None,
        members: tuple[int, ...] | None = None,
    ):
        k = unit.num_packets
        if k == 0:
            return (True,) * len(member_pers)
        packet_time = _packet_time_s(unit, rate_mbps)
        if not np.isfinite(packet_time):
            return (False,) * len(member_pers)
        # The weakest member sets the repair budget.
        n = total_packets_needed(k, max(member_pers), self.config.fec)
        airtime = n * packet_time
        unit_start = env.now
        winner = yield any_of(
            env, [env.timeout(airtime, value=TX_DONE), deadline_event]
        )
        if winner == TX_DONE:
            n_sent = n
        else:
            # Deadline truncated the block; decoding degrades gracefully
            # with however many PDUs made it out.
            n_sent = int(n * (env.now - unit_start) / airtime) if airtime > 0 else 0
        stats.packets += n_sent
        stats.wire_bytes += n_sent * _mean_packet_bytes(unit)
        _C_FEC_REPAIR.inc(max(0, n_sent - k))
        decoded = sample_decodes(self.rng, k, n_sent, member_pers, self.config.fec)
        if _trace._RECORDER is not None:
            elapsed = env.now - unit_start
            source_s = min(n_sent, k) * packet_time
            corr = _trace.correlation(frame=frame, users=members)
            _EV_FEC_TX.emit(
                t=env.now,
                k=k,
                n_planned=n,
                n_sent=n_sent,
                truncated=winner != TX_DONE,
                airtime_s=elapsed,
                source_s=source_s,
                repair_s=elapsed - source_s,
                **corr,
            )
            _EV_UNIT_TX.emit(
                t=env.now,
                scheme="fec",
                packets=n_sent,
                receivers=len(member_pers),
                delivered=sum(decoded),
                airtime_s=elapsed,
                **corr,
            )
        return decoded


@dataclass
class _DeliveryStats:
    packets: int = 0
    wire_bytes: float = 0.0
    arq_rounds: int = 0


def _mean_packet_bytes(unit: PacketizedUnit) -> float:
    if unit.num_packets == 0:
        return 0.0
    return unit.wire_bytes / unit.num_packets


def _packet_time_s(unit: PacketizedUnit, rate_mbps: float) -> float:
    if rate_mbps <= 0:
        return float("inf")
    return _mean_packet_bytes(unit) * 8.0 / (rate_mbps * 1e6)
