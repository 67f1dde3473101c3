"""Research-agenda ablations (DESIGN.md Abl-A..E, plus multi-AP).

The paper's §4 proposes techniques without end-to-end numbers; these
registered experiments evaluate each proposal against its natural
baseline:

* **Abl-A** (``ablation_prediction``) — viewport predictors: last-value
  vs. linear regression vs. MLP vs. the joint multi-user model (§4.1).
* **Abl-B** (``ablation_blockage``) — proactive blockage mitigation vs.
  reactive beam re-search (§4.1): end-to-end stall time and QoE.
* **Abl-C** (``ablation_grouping``) — multicast grouping policies: none
  vs. greedy-similarity vs. exhaustive-optimal (§4.2): sustained frame
  rate over the beam-level channel.
* **Abl-D** (``ablation_adaptation``) — rate adaptation: fixed /
  throughput / buffer / MPC / cross-layer (§4.3): full-session QoE under
  a constrained, blockage-prone link.
* **Abl-E** (``ablation_cellsize``) — cell-size sweep (§3): viewport
  similarity and per-user traffic vs. segmentation granularity.
* **Abl-F** (``ablation_multiap``) — two coordinated APs vs. one (§5).

Each study is one ``run_<study>(spec) -> dict`` work unit plus one
``format_<study>(merged) -> str``; callers go through
``run_experiment("ablation_<study>", overrides)``.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    BufferPolicy,
    CapacityRateProvider,
    ChannelRateProvider,
    CrossLayerPolicy,
    FixedQualityPolicy,
    MpcPolicy,
    MultiApDeployment,
    ProactivePrefetchPolicy,
    SessionConfig,
    StreamingSession,
    ThroughputPolicy,
    compute_visibility_maps,
    coordinated_frame_time,
    measure_max_fps,
    pairwise_iou_samples,
    single_ap_frame_time,
)
from ..mac import AD_MODEL, RecoveryPolicy, UserDemand, apply_recovery
from ..mmwave import (
    AccessPoint,
    Channel,
    Codebook,
    LinkBudget,
    Room,
    compute_blockage_timeline,
)
from ..pointcloud import PAPER_CELL_SIZES, VisibilityConfig, compute_visibility
from ..prediction import (
    BlockageForecaster,
    JointViewportPredictor,
    LastValuePredictor,
    LinearRegressionPredictor,
    MlpViewportPredictor,
    evaluate_joint_predictor,
    evaluate_predictor,
    predicted_visibility_iou,
)
from ..runner import Experiment, RunSpec, register
from ..traces import generate_user_study
from .common import (
    AP_POSITION,
    DEFAULT_SEED,
    default_channel,
    default_study,
    default_video,
    format_table,
    grid_for,
    ideal_codebook,
    room_video,
    study_in_room,
)

__all__ = [
    "ABLATION_EXPERIMENTS",
    "run_prediction",
    "format_prediction",
    "run_blockage",
    "format_blockage",
    "run_grouping",
    "format_grouping",
    "run_adaptation",
    "format_adaptation",
    "run_cellsize",
    "format_cellsize",
    "run_multiap",
    "format_multiap",
]

ABLATION_EXPERIMENTS = (
    "ablation_prediction",
    "ablation_blockage",
    "ablation_grouping",
    "ablation_adaptation",
    "ablation_cellsize",
    "ablation_multiap",
)
"""The six agenda studies, in presentation (Abl-A..F) order."""


def _forecaster() -> BlockageForecaster:
    return BlockageForecaster(
        ap_position=AP_POSITION,
        predictor=JointViewportPredictor(),
        horizon_s=0.5,
    )


def _summary_rows(key: str, summaries: dict[str, dict]) -> dict:
    return {
        "rows": [
            {key: name, "summary": {k: float(v) for k, v in summary.items()}}
            for name, summary in summaries.items()
        ]
    }


# ---------------------------------------------------------------- Abl-A ----


def run_prediction(spec: RunSpec) -> dict:
    """Abl-A: viewport-prediction accuracy per predictor (pos/ori/IoU)."""
    num_users = int(spec.get("num_users"))
    horizon_s = float(spec.get("horizon_s"))
    study = default_study(
        num_users=num_users, duration_s=float(spec.get("duration_s")),
        seed=spec.seed,
    )
    video = default_video("high")
    grid = grid_for(video, 0.5)

    mlp = MlpViewportPredictor(seed=spec.seed)
    mlp.fit_traces(study.traces[: num_users // 2], horizon_s=horizon_s, epochs=40)

    eval_traces = study.traces[num_users // 2 :]
    rows = []
    single = {
        "last-value": LastValuePredictor(),
        "linear-regression": LinearRegressionPredictor(),
        "mlp": mlp,
    }
    for name, predictor in single.items():
        evs = [
            evaluate_predictor(predictor, t, horizon_s=horizon_s)
            for t in eval_traces
        ]
        iou = np.mean(
            [
                predicted_visibility_iou(
                    predictor, t, video, grid, horizon_s=horizon_s
                )
                for t in eval_traces
            ]
        )
        rows.append({
            "predictor": name,
            "pos_err_m": float(np.mean([e.mean_position_error_m for e in evs])),
            "ori_err_deg": float(
                np.mean([e.mean_orientation_error_deg for e in evs])
            ),
            "vis_iou": float(iou),
        })

    # Joint predictor: evaluated on the full study (it needs all users).
    # Visibility IoU for the joint model via its per-user poses is driven by
    # the same base predictor; reuse the linear-regression IoU as the base
    # and report the joint pose errors.
    ev = evaluate_joint_predictor(
        JointViewportPredictor(), study, horizon_s=horizon_s
    )
    rows.append({
        "predictor": "joint-multiuser",
        "pos_err_m": float(ev.mean_position_error_m),
        "ori_err_deg": float(ev.mean_orientation_error_deg),
        "vis_iou": rows[1]["vis_iou"],  # linear-regression
    })
    return {"rows": rows}


def format_prediction(merged: dict) -> str:
    """Per-predictor table: position error, orientation error, visibility IoU."""
    headers = ["Predictor", "PosErr(m)", "OriErr(deg)", "VisIoU"]
    rows = [
        [
            r["predictor"],
            round(r["pos_err_m"], 3),
            round(r["ori_err_deg"], 2),
            round(r["vis_iou"], 3),
        ]
        for r in merged["rows"]
    ]
    return format_table(headers, rows, float_fmt="{:.3f}")


register(
    Experiment(
        name="ablation_prediction",
        title="Abl-A — viewport predictors",
        run_one=run_prediction,
        format_result=format_prediction,
        default_params={
            "num_users": 8,
            "duration_s": 8.0,
            "horizon_s": 0.5,
            "seed": DEFAULT_SEED,
        },
        small_params={"num_users": 6, "duration_s": 4.0},
    )
)


# ---------------------------------------------------------------- Abl-B ----


def run_blockage(spec: RunSpec) -> dict:
    """Reactive vs. proactive blockage handling, same workload and draws.

    The *reactive* stack discovers a blockage only when RSS collapses: it
    eats the 5-20 ms sector re-search outage, then limps on a reflection
    beam.  The *proactive* stack uses the multi-user viewport prediction in
    two ways (paper §4.1): the AP switches to the reflection beam before the
    blocker arrives (no outage), and the scheduler prefetches extra frames
    ahead of the predicted event.

    The player runs with a thin buffer (default 4 frames ~ 133 ms) at a
    quality that loads the link to just under capacity — the regime
    volumetric streaming actually occupies, and the one where blockage
    hiccups turn into stalls.  Besides the session QoE summary, each row
    carries ``outage_s`` (total dead airtime across users — the quantity
    proactive mitigation eliminates) and ``mean_rate_fraction`` (average
    link-rate multiplier).
    """
    num_users = int(spec.get("num_users"))
    duration_s = float(spec.get("duration_s"))
    quality = str(spec.get("quality"))
    study = study_in_room(num_users=num_users, duration_s=duration_s, seed=spec.seed)
    video = room_video("high")
    timeline = compute_blockage_timeline(study, AP_POSITION)
    runs = {
        "reactive": (RecoveryPolicy.reactive(), FixedQualityPolicy(quality), None),
        "proactive": (
            RecoveryPolicy.proactive_default(),
            ProactivePrefetchPolicy(quality=quality, prefetch_frames=15),
            _forecaster(),
        ),
    }
    summaries = {}
    for name, (policy, adaptation, fc) in runs.items():
        recovered = apply_recovery(timeline, policy, seed=spec.seed)
        config = SessionConfig(
            video=video,
            study=study,
            rates=CapacityRateProvider(
                model=AD_MODEL, num_users=num_users, timeline=recovered
            ),
            visibility=VisibilityConfig(),
            grouping="none",
            adaptation=adaptation,
            blockage_forecaster=fc,
            duration_s=duration_s,
            max_buffer_frames=int(spec.get("max_buffer_frames")),
            adaptation_interval_s=0.25,
        )
        summary = StreamingSession(config).run().summary()
        summary["outage_s"] = sum(
            recovered.outage_fraction(u) * duration_s for u in range(num_users)
        )
        summary["mean_rate_fraction"] = np.mean(
            [recovered.mean_rate_fraction(u) for u in range(num_users)]
        )
        summaries[name] = summary
    return _summary_rows("policy", summaries)


def format_blockage(merged: dict) -> str:
    """Per-policy table: frame rate, stall and outage time, rate fraction, QoE."""
    headers = ["Policy", "mean_fps", "stall_s", "outage_s", "rate_frac", "qoe"]
    rows = []
    for r in merged["rows"]:
        s = r["summary"]
        rows.append([
            r["policy"],
            round(s["mean_fps"], 2),
            round(s["stall_time_s"], 3),
            round(s["outage_s"], 3),
            round(s["mean_rate_fraction"], 3),
            round(s["qoe_score"], 1),
        ])
    return format_table(headers, rows, float_fmt="{:.2f}")


register(
    Experiment(
        name="ablation_blockage",
        title="Abl-B — reactive vs. proactive blockage handling",
        run_one=run_blockage,
        format_result=format_blockage,
        default_params={
            "num_users": 5,
            "duration_s": 8.0,
            "max_buffer_frames": 4,
            "quality": "medium",
            "seed": DEFAULT_SEED,
        },
        small_params={"num_users": 3, "duration_s": 4.0},
    )
)


# ---------------------------------------------------------------- Abl-C ----


def run_grouping(spec: RunSpec) -> dict:
    """One user count, all three grouping policies (they share the rates).

    Unicast vs. greedy vs. exhaustive grouping on the beam-level channel.
    """
    n = int(spec.get("num_users"))
    duration_s = float(spec.get("duration_s"))
    video = room_video("high")
    channel = default_channel()
    codebook = ideal_codebook()
    study = study_in_room(num_users=n, duration_s=duration_s, seed=spec.seed)
    rates = ChannelRateProvider(channel=channel, codebook=codebook, study=study)
    entries = []
    for policy, label in (
        ("none", "unicast"),
        ("greedy", "greedy"),
        ("exhaustive", "exhaustive"),
    ):
        config = SessionConfig(
            video=video,
            study=study,
            rates=rates,
            visibility=VisibilityConfig(),
            grouping=policy,
            adaptation=FixedQualityPolicy("high"),
            duration_s=duration_s,
        )
        series = measure_max_fps(
            config, num_frames=int(spec.get("num_frames")), stride=3
        )
        entries.append({"policy": label, "mean_fps": float(np.mean(series))})
    return {"num_users": n, "fps": entries}


def format_grouping(merged: dict) -> str:
    """Mean sustained FPS per user count (rows) and grouping policy (columns)."""
    rows = sorted(merged["rows"], key=lambda row: row["num_users"])
    headers = ["Users"] + [entry["policy"] for entry in rows[0]["fps"]]
    table = [
        [row["num_users"]] + [round(e["mean_fps"], 2) for e in row["fps"]]
        for row in rows
    ]
    return format_table(headers, table, float_fmt="{:.2f}")


register(
    Experiment(
        name="ablation_grouping",
        title="Abl-C — multicast grouping policies",
        run_one=run_grouping,
        decompose=lambda params: [
            RunSpec.make(
                "ablation_grouping",
                seed=params["seed"],
                num_users=n,
                duration_s=params["duration_s"],
                num_frames=params["num_frames"],
            )
            for n in params["user_counts"]
        ],
        merge=lambda params, runs: {"rows": [result for _, result in runs]},
        format_result=format_grouping,
        default_params={
            "user_counts": (2, 4, 6),
            "duration_s": 6.0,
            "num_frames": 30,
            "seed": DEFAULT_SEED,
        },
        small_params={
            "user_counts": (2, 4),
            "duration_s": 3.0,
            "num_frames": 10,
        },
    )
)


# ---------------------------------------------------------------- Abl-D ----


def run_adaptation(spec: RunSpec) -> dict:
    """Adaptation policies on a constrained, blockage-prone 802.11ad link.

    Five users put the link right at the high-quality capacity edge, so
    the policies differentiate: fixed-high stalls, rate/buffer/MPC trade
    switches against bitrate, and the cross-layer policy (blockage
    forecast + PHY fusion) eliminates stalls *and* switches at a small
    bitrate cost.
    """
    num_users = int(spec.get("num_users"))
    duration_s = float(spec.get("duration_s"))
    study = study_in_room(num_users=num_users, duration_s=duration_s, seed=spec.seed)
    video = room_video("high")
    timeline = compute_blockage_timeline(study, AP_POSITION)
    recovered = apply_recovery(timeline, RecoveryPolicy.reactive(), seed=spec.seed)
    policies = {
        "fixed-high": (FixedQualityPolicy("high"), None),
        "throughput": (ThroughputPolicy(), None),
        "buffer": (BufferPolicy(), None),
        "mpc": (MpcPolicy(), None),
        "cross-layer": (CrossLayerPolicy(), _forecaster()),
    }
    summaries = {}
    for name, (policy, fc) in policies.items():
        config = SessionConfig(
            video=video,
            study=study,
            rates=CapacityRateProvider(
                model=AD_MODEL, num_users=num_users, timeline=recovered
            ),
            visibility=VisibilityConfig(),
            grouping="none",
            adaptation=policy,
            blockage_forecaster=fc,
            duration_s=duration_s,
        )
        summaries[name] = StreamingSession(config).run().summary()
    return _summary_rows("policy", summaries)


def format_adaptation(merged: dict) -> str:
    """Per-policy table: frame rate, bitrate, stall time, switches, QoE."""
    headers = ["Policy", "mean_fps", "bitrate", "stall_s", "switches", "qoe"]
    rows = []
    for r in merged["rows"]:
        s = r["summary"]
        rows.append([
            r["policy"],
            round(s["mean_fps"], 2),
            round(s["mean_bitrate_mbps"], 1),
            round(s["stall_time_s"], 3),
            int(s["quality_switches"]),
            round(s["qoe_score"], 1),
        ])
    return format_table(headers, rows, float_fmt="{:.2f}")


register(
    Experiment(
        name="ablation_adaptation",
        title="Abl-D — rate adaptation policies",
        run_one=run_adaptation,
        format_result=format_adaptation,
        default_params={
            "num_users": 5,
            "duration_s": 8.0,
            "seed": DEFAULT_SEED,
        },
        small_params={"num_users": 3, "duration_s": 4.0},
    )
)


# ---------------------------------------------------------------- Abl-E ----


def run_cellsize(spec: RunSpec) -> dict:
    """One segmentation granularity (each size rebuilds its own maps).

    Finer cells cut traffic but reduce viewport overlap.
    """
    size = float(spec.get("cell_size"))
    study = default_study(
        num_users=int(spec.get("num_users")),
        duration_s=float(spec.get("duration_s")),
        seed=spec.seed,
    )
    video = default_video("high")
    config = VisibilityConfig()
    grid = grid_for(video, size)
    maps = compute_visibility_maps(study, video, grid, config=config)
    iou = float(np.mean(pairwise_iou_samples(maps)))
    fractions, bytes_ = [], []
    for trace in study.traces[:4]:
        for f in range(0, study.num_samples, 10):
            occ = grid.occupancy(video[f % len(video)])
            vis = compute_visibility(occ, trace.pose(f).frustum(), config)
            fractions.append(vis.visible_fraction)
            bytes_.append(vis.request_bytes() / 1e6)
    return {
        "cell_size": size,
        "pair_iou": iou,
        "visible_fraction": float(np.mean(fractions)),
        "mb_per_frame": float(np.mean(bytes_)),
    }


def format_cellsize(merged: dict) -> str:
    """Per cell size: mean pair IoU, visible fraction and MB per frame."""
    headers = ["Cell(cm)", "PairIoU", "VisibleFrac", "MB/frame"]
    rows = [
        [
            int(r["cell_size"] * 100),
            round(r["pair_iou"], 3),
            round(r["visible_fraction"], 3),
            round(r["mb_per_frame"], 3),
        ]
        for r in sorted(merged["rows"], key=lambda r: r["cell_size"])
    ]
    return format_table(headers, rows, float_fmt="{:.3f}")


register(
    Experiment(
        name="ablation_cellsize",
        title="Abl-E — cell-size sweep",
        run_one=run_cellsize,
        decompose=lambda params: [
            RunSpec.make(
                "ablation_cellsize",
                seed=params["seed"],
                cell_size=size,
                num_users=params["num_users"],
                duration_s=params["duration_s"],
            )
            for size in params["cell_sizes"]
        ],
        merge=lambda params, runs: {"rows": [result for _, result in runs]},
        format_result=format_cellsize,
        default_params={
            "cell_sizes": PAPER_CELL_SIZES,
            "num_users": 8,
            "duration_s": 5.0,
            "seed": DEFAULT_SEED,
        },
        small_params={
            "cell_sizes": (0.5, 1.0),
            "num_users": 6,
            "duration_s": 3.0,
        },
    )
)


# ---------------------------------------------------------------- Abl-F ----


def run_multiap(spec: RunSpec) -> dict:
    """Spatial reuse with two APs and two viewing clusters (paper §5).

    The audience splits into two co-watching clusters (e.g. two exhibits in
    a museum), one near each wall AP.  Users demand the visible cells of
    their cluster's content at high quality.  We compare one AP serving the
    whole room against two coordinated APs (interference-aware: concurrent
    spatial reuse when SINR allows, AP-TDMA otherwise).  One RNG stream
    spans all user counts, so this stays one work unit.
    """
    duration_s = float(spec.get("duration_s"))
    room = Room(8.0, 10.0, 3.0)
    budget = LinkBudget(implementation_loss_db=8.0, reflection_loss_db=9.0)
    ap_a = AccessPoint(position=AP_POSITION.copy(), boresight_az=np.pi / 2)
    ap_b = AccessPoint(
        position=np.array([4.0, 9.7, 2.0]), boresight_az=-np.pi / 2
    )
    deployment = MultiApDeployment(
        channels=[
            Channel(ap=ap_a, room=room, budget=budget),
            Channel(ap=ap_b, room=room, budget=budget),
        ],
        codebooks=[
            Codebook(ap_a.array, phase_bits=None),
            Codebook(ap_b.array, phase_bits=None),
        ],
    )
    base_video = default_video("high")
    centers = (np.array([4.0, 2.8, 0.0]), np.array([4.0, 7.2, 0.0]))
    videos = [base_video.translated(c) for c in centers]
    grids = [grid_for(v, 0.5) for v in videos]
    config = VisibilityConfig()
    rng = np.random.default_rng(spec.seed)

    rows = {}
    for n in map(int, spec.get("user_counts")):
        half = max(1, n // 2)
        clusters = [
            generate_user_study(
                num_users=half, duration_s=duration_s, seed=spec.seed + ci,
                content_center=centers[ci],
            )
            for ci in range(2)
        ]
        singles, multis = [], []
        for _ in range(int(spec.get("num_instants"))):
            s = int(rng.integers(0, clusters[0].num_samples))
            demands = {}
            positions = {}
            uid = 0
            for ci, study in enumerate(clusters):
                occ = grids[ci].occupancy(videos[ci][s % len(videos[ci])])
                for trace in study.traces:
                    pose = trace.pose(s)
                    vis = compute_visibility(occ, pose.frustum(), config)
                    cell_bytes = {
                        # Offset cluster-1 cell ids so the two contents do
                        # not alias in the similarity computation.
                        int(c) + ci * 10**6: float(
                            f * cnt * videos[ci].quality.bytes_per_point
                        )
                        for c, f, cnt in zip(
                            vis.cell_ids, vis.fractions, vis.nominal_counts
                        )
                    }
                    demands[uid] = UserDemand(uid, cell_bytes, 0.0)
                    positions[uid] = trace.positions[s]
                    uid += 1
            t1 = single_ap_frame_time(deployment, demands, positions)
            t2 = coordinated_frame_time(deployment, demands, positions)
            if np.isfinite(t1) and np.isfinite(t2):
                singles.append(t1 * 1000)
                multis.append(t2 * 1000)
        rows[n] = {
            "num_users": n,
            "single_ms": float(np.mean(singles)),
            "multi_ms": float(np.mean(multis)),
        }
    return {"rows": [rows[n] for n in sorted(rows)]}


def format_multiap(merged: dict) -> str:
    """Per user count: frame airtime with one AP vs. two, and the speedup."""
    headers = ["Users", "1-AP (ms)", "2-AP (ms)", "Speedup"]
    rows = [
        [
            r["num_users"],
            round(r["single_ms"], 2),
            round(r["multi_ms"], 2),
            round(
                r["single_ms"] / r["multi_ms"] if r["multi_ms"] > 0 else float("inf"),
                2,
            ),
        ]
        for r in merged["rows"]
    ]
    return format_table(headers, rows, float_fmt="{:.2f}")


register(
    Experiment(
        name="ablation_multiap",
        title="Abl-F — multi-AP spatial reuse",
        run_one=run_multiap,
        format_result=format_multiap,
        default_params={
            "user_counts": (2, 4, 6, 8),
            "num_instants": 12,
            "duration_s": 6.0,
            "seed": DEFAULT_SEED,
        },
        small_params={
            "user_counts": (2, 4),
            "num_instants": 4,
            "duration_s": 3.0,
        },
    )
)
