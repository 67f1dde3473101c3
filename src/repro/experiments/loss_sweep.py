"""Loss sweep: FEC-protected multicast vs. ARQ-only under packet loss.

The cross-layer agenda's delivery question: when blockage-induced packet
loss hits a multicast group, which recovery discipline keeps the frame
rate?  This runner fixes a fully-overlapped multicast group (every member
wants the same cells — the best case for multicast, per Fig. 2) and sweeps
the per-packet loss probability, delivering the same frames through each
transport mode:

* ``ideal``  — the fluid no-loss model (reference ceiling);
* ``arq``    — block-ACK multicast: per-member feedback every round and
  retransmission of the *union* of losses, all inside the frame deadline;
* ``fec``    — rateless-style FEC sized for the weakest member, no feedback;
* ``hybrid`` — FEC for multicast, ARQ for unicast residuals (none here, so
  it tracks ``fec``; it separates from it under partial overlap).

The group's base transmission occupies ``airtime_fraction`` of the frame
interval, so ARQ has ``1 - airtime_fraction`` of headroom for recovery
rounds: plenty at 1-2% loss, hopeless at 5%+ where the union of six
members' losses no longer fits before the deadline — the collapse the
benchmark asserts, and the reason per-receiver ARQ does not scale to
multicast.
"""

from __future__ import annotations

from ..core.qoe import QOE_SAMPLE
from ..mac.scheduler import UserDemand, plan_frame
from ..net import TransportConfig, TransportSimulator, packetize_cells
from ..obs import trace as _trace
from ..pointcloud import QUALITIES
from ..runner import Experiment, RunSpec, register
from .common import DEFAULT_SEED, format_table

__all__ = [
    "LOSS_SWEEP_MODES",
    "DEFAULT_LOSS_POINTS",
    "run_one",
    "by_mode",
    "goodput_ratio",
]

LOSS_SWEEP_MODES = ("ideal", "arq", "fec", "hybrid")
DEFAULT_LOSS_POINTS = (0.0, 0.01, 0.02, 0.05, 0.10, 0.20)


def _build_plan(
    num_users: int,
    quality: str,
    target_fps: float,
    num_cells: int,
    multicast_rate_mbps: float,
):
    """A fully-overlapped multicast group: everyone wants the same cells.

    Every user holds the one ``cell_bytes`` dict by reference, so the
    frame prices it as one row.
    """
    frame_bytes = QUALITIES[quality].bitrate_mbps * 1e6 / 8.0 / target_fps
    cell_bytes = {c: frame_bytes / num_cells for c in range(num_cells)}
    demands = [
        UserDemand(
            user_id=u,
            cell_bytes=cell_bytes,
            unicast_rate_mbps=multicast_rate_mbps,
        )
        for u in range(num_users)
    ]
    return plan_frame(
        demands, groups=[(tuple(range(num_users)), multicast_rate_mbps)]
    )


def run_one(spec: RunSpec) -> dict:
    """One transport mode across every loss point (independent sims).

    The multicast rate is set so the group's base (no-recovery) wire time
    fills ``airtime_fraction`` of a frame interval — the operating point a
    well-run admission controller targets.  Goodput counts only application
    bytes of frames that *completely* arrived within the frame deadline,
    divided by all airtime spent (including feedback, retransmissions and
    repair packets); effective FPS is the per-user mean delivered frame
    rate.  Deterministic for a fixed seed.
    """
    mode = spec.get("mode")
    if mode not in LOSS_SWEEP_MODES:
        raise ValueError(f"unknown transport mode {mode!r}")
    loss_points = tuple(float(p) for p in spec.get("loss_points"))
    num_users = int(spec.get("num_users"))
    num_frames = int(spec.get("num_frames"))
    quality = str(spec.get("quality"))
    target_fps = float(spec.get("target_fps"))
    airtime_fraction = float(spec.get("airtime_fraction"))
    num_cells = int(spec.get("num_cells"))
    if not 0.0 < airtime_fraction <= 1.0:
        raise ValueError("airtime_fraction must be in (0, 1]")

    # Size the multicast rate from the packetized (wire) frame so the base
    # transmission time is exactly airtime_fraction / target_fps.
    probe = _build_plan(num_users, quality, target_fps, num_cells, 1.0)
    shared_unit = packetize_cells(
        probe.demands[0].cell_bytes, TransportConfig().packetization
    )
    rate_mbps = (
        shared_unit.wire_bytes * 8.0 * target_fps / airtime_fraction / 1e6
    )
    plan = _build_plan(num_users, quality, target_fps, num_cells, rate_mbps)

    points = []
    for p in loss_points:
        sim = TransportSimulator(TransportConfig.preset(mode, base_per=p))
        sim.reseed(spec.seed)
        pers = {u: p for u in range(num_users)}
        airtime = 0.0
        delivered_bytes = 0.0
        delivered_frames = 0
        fps_sum = 0.0
        for frame in range(num_frames):
            outcome = sim.frame_outcome(
                plan, pers, target_fps=target_fps, frame=frame
            )
            airtime += outcome.airtime_s
            delivered_bytes += outcome.app_bytes_delivered
            delivered_frames += sum(outcome.delivered.values())
            frame_fps = outcome.effective_fps(cap_fps=target_fps)
            fps_sum += frame_fps
            if _trace._RECORDER is not None:
                QOE_SAMPLE.emit(
                    user=-1, fps=frame_fps, **_trace.correlation(frame=frame)
                )
        points.append(
            {
                "loss": p,
                "goodput_mbps": (
                    delivered_bytes * 8.0 / airtime / 1e6 if airtime > 0 else 0.0
                ),
                "effective_fps": fps_sum / num_frames,
                "frame_delivery_rate": delivered_frames / (num_frames * num_users),
            }
        )
    return {"mode": mode, "points": points}


def _decompose(params: dict) -> list[RunSpec]:
    for mode in params["modes"]:
        if mode not in LOSS_SWEEP_MODES:
            raise ValueError(f"unknown transport mode {mode!r}")
    if not 0.0 < params["airtime_fraction"] <= 1.0:
        raise ValueError("airtime_fraction must be in (0, 1]")
    return [
        RunSpec.make(
            "loss_sweep",
            seed=params["seed"],
            mode=mode,
            loss_points=params["loss_points"],
            num_users=params["num_users"],
            num_frames=params["num_frames"],
            quality=params["quality"],
            target_fps=params["target_fps"],
            airtime_fraction=params["airtime_fraction"],
            num_cells=params["num_cells"],
        )
        for mode in params["modes"]
    ]


def _merge(params: dict, runs: list) -> dict:
    return {
        "modes": list(params["modes"]),
        "loss_points": [float(p) for p in params["loss_points"]],
        "target_fps": float(params["target_fps"]),
        "per_mode": [result for _, result in runs],
    }


def by_mode(merged: dict, metric: str) -> dict[str, dict[float, float]]:
    """Per mode: loss point -> one point metric, e.g. ``goodput_mbps``."""
    return {
        entry["mode"]: {
            float(pt["loss"]): float(pt[metric]) for pt in entry["points"]
        }
        for entry in merged["per_mode"]
    }


def goodput_ratio(
    merged: dict, loss: float, over: str = "fec", under: str = "arq"
) -> float:
    """Goodput of one mode over another at a loss point (inf if under=0)."""
    goodput = by_mode(merged, "goodput_mbps")
    top = goodput[over][loss]
    bottom = goodput[under][loss]
    if bottom <= 0:
        return float("inf") if top > 0 else 1.0
    return top / bottom


def _format(merged: dict) -> str:
    modes = merged["modes"]
    goodput = by_mode(merged, "goodput_mbps")
    fps = by_mode(merged, "effective_fps")
    headers = ["loss"] + [f"{mode} Mbps|fps" for mode in modes]
    rows = [
        [f"{p * 100:.0f}%"]
        + [f"{goodput[mode][p]:7.1f}|{fps[mode][p]:4.1f}" for mode in modes]
        for p in merged["loss_points"]
    ]
    lines = [format_table(headers, rows)]
    if {"arq", "fec"} <= set(modes):
        for p in merged["loss_points"]:
            if p >= 0.05:
                ratio = goodput_ratio(merged, p)
                shown = "inf" if ratio == float("inf") else f"{ratio:.1f}x"
                lines.append(f"fec/arq goodput at {p * 100:.0f}% loss: {shown}")
    return "\n".join(lines)


EXPERIMENT = register(
    Experiment(
        name="loss_sweep",
        title="Loss sweep — transport goodput vs. packet loss",
        run_one=run_one,
        decompose=_decompose,
        merge=_merge,
        format_result=_format,
        default_params={
            "modes": LOSS_SWEEP_MODES,
            "loss_points": DEFAULT_LOSS_POINTS,
            "num_users": 6,
            "num_frames": 30,
            "quality": "high",
            "target_fps": 30.0,
            "airtime_fraction": 0.8,
            "num_cells": 64,
            "seed": DEFAULT_SEED,
        },
        small_params={"num_frames": 6},
    )
)

