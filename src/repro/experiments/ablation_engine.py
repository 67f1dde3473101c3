"""Runner experiments behind the ablation engine.

Two registered experiments back :mod:`repro.ablation`:

* ``ablation_session`` — one closed-loop multi-user streaming session
  with *every* cross-layer component exposed as a RunSpec parameter
  (predictor, grouping, custom beams, blockage mitigation, transport
  mode, adaptation policy) under lossy, capacity-constrained conditions.
  One spec per variant; this is the engine's default scenario.
* ``ablation_importance`` — the whole study as a single experiment: its
  ``decompose`` emits the engine-generated run matrix (baseline +
  leave-one-out + optional pairwise) and its ``merge`` folds the
  per-variant results into the canonical importance report.  Registering
  the study itself buys the golden-result suite, the serial/parallel
  bit-identity tests, and ``repro run ablation_importance`` for free.

The session regime deliberately stresses every component at once: enough
users to contend for airtime, a lossy link (so FEC matters), blockage
events (so mitigation matters), and head motion (so prediction and
grouping matter).  Ablating adaptation *raises* raw bitrate while
inflating stalls — exactly why the engine scores multiple metrics with
explicit polarity instead of a single scalar.
"""

from __future__ import annotations

from ..core import (
    CapacityRateProvider,
    CrossLayerPolicy,
    FixedQualityPolicy,
    SessionConfig,
    StreamingSession,
    UtilityOptimalPolicy,
)
from ..mac import AD_MODEL, RecoveryPolicy, apply_recovery
from ..mmwave import compute_blockage_timeline
from ..net import TransportConfig
from ..pointcloud import VisibilityConfig
from ..prediction import (
    BlockageForecaster,
    JointViewportPredictor,
    LastValuePredictor,
    LinearRegressionPredictor,
)
from ..runner import Experiment, RunSpec, register
from .common import AP_POSITION, DEFAULT_SEED, room_video, study_in_room

__all__ = [
    "run_one",
    "PREDICTORS",
    "SESSION_EXPERIMENT",
    "IMPORTANCE_EXPERIMENT",
]

# Session predictor choices (the per-user interface the session drives);
# the blockage forecaster wraps its own joint predictor around the same
# base family.
PREDICTORS = {
    "last-value": LastValuePredictor,
    "linear-regression": LinearRegressionPredictor,
}

# When custom multicast beams are ablated, a group transmission falls back
# to stock single-user beams and pays the group-minimum-MCS penalty; the
# capacity model expresses that as a multicast rate fraction below 1.0.
_STOCK_BEAM_RATE_FRACTION = 0.75

_ADAPTATIONS = ("cross-layer", "fixed-high", "utility-optimal")
_TRANSPORT_MODES = ("ideal", "arq", "fec", "hybrid")


def run_one(spec: RunSpec) -> dict:
    """Execute one full cross-layer session variant and summarize it."""
    num_users = int(spec.get("num_users"))
    duration_s = float(spec.get("duration_s"))
    seed = spec.seed
    predictor = str(spec.get("predictor"))
    if predictor not in PREDICTORS:
        raise ValueError(
            f"unknown predictor {predictor!r}; choose from "
            f"{sorted(PREDICTORS)}"
        )
    adaptation = str(spec.get("adaptation"))
    if adaptation not in _ADAPTATIONS:
        raise ValueError(
            f"unknown adaptation {adaptation!r}; choose from {_ADAPTATIONS}"
        )
    transport_mode = str(spec.get("transport_mode"))
    if transport_mode not in _TRANSPORT_MODES:
        raise ValueError(
            f"unknown transport mode {transport_mode!r}; choose from "
            f"{_TRANSPORT_MODES}"
        )

    study = study_in_room(num_users=num_users, duration_s=duration_s, seed=seed)
    video = room_video("high")

    # Blockage mitigation on: proactive recovery (reflector fallback) plus
    # a joint blockage forecaster; off: reactive-only re-search, no
    # forecaster.
    timeline = compute_blockage_timeline(study, AP_POSITION)
    mitigate = bool(spec.get("blockage_mitigation"))
    policy = (
        RecoveryPolicy.proactive_default() if mitigate else RecoveryPolicy.reactive()
    )
    recovered = apply_recovery(timeline, policy, seed=seed)

    rates = CapacityRateProvider(
        model=AD_MODEL,
        num_users=num_users,
        timeline=recovered,
        multicast_rate_fraction=(
            1.0 if bool(spec.get("custom_beams")) else _STOCK_BEAM_RATE_FRACTION
        ),
    )

    base_predictor = PREDICTORS[predictor]()
    forecaster = None
    if mitigate:
        forecaster = BlockageForecaster(
            ap_position=AP_POSITION,
            predictor=JointViewportPredictor(base=PREDICTORS[predictor]()),
            horizon_s=float(spec.get("horizon_s")),
        )

    if adaptation == "cross-layer":
        adaptation_policy: object = CrossLayerPolicy()
    elif adaptation == "utility-optimal":
        adaptation_policy = UtilityOptimalPolicy()
    else:
        adaptation_policy = FixedQualityPolicy("high")
    transport = TransportConfig(mode=transport_mode, seed=seed).with_base_per(
        float(spec.get("loss_rate"))
    )
    config = SessionConfig(
        video=video,
        study=study,
        rates=rates,
        visibility=VisibilityConfig(),
        grouping=str(spec.get("grouping")),
        adaptation=adaptation_policy,
        predictor=base_predictor,
        blockage_forecaster=forecaster,
        duration_s=duration_s,
        max_buffer_frames=int(spec.get("max_buffer_frames")),
        adaptation_interval_s=float(spec.get("adaptation_interval_s")),
        transport=transport,
    )
    report = StreamingSession(config).run()
    summary = report.summary()
    played = sum(user.frames_played for user in report.users)
    on_time = sum(user.frames_on_time for user in report.users)
    summary["late_fraction"] = 1.0 - (on_time / played if played else 0.0)
    return summary


def _format(merged) -> str:
    return (
        f"users {merged['users']}, qoe {merged['qoe_score']:.1f}, "
        f"fps {merged['mean_fps']:.1f}, "
        f"bitrate {merged['mean_bitrate_mbps']:.1f} Mbps, "
        f"stall {merged['stall_time_s']:.1f} s, "
        f"late {merged['late_fraction'] * 100:.1f}%"
    )


SESSION_EXPERIMENT = register(
    Experiment(
        name="ablation_session",
        title="Ablation session — full cross-layer session, every toggle a parameter",
        run_one=run_one,
        format_result=_format,
        default_params={
            "num_users": 6,
            "duration_s": 8.0,
            "loss_rate": 0.15,
            "max_buffer_frames": 4,
            "adaptation_interval_s": 0.25,
            "horizon_s": 0.5,
            "predictor": "linear-regression",
            "grouping": "greedy",
            "custom_beams": True,
            "blockage_mitigation": True,
            "transport_mode": "hybrid",
            "adaptation": "cross-layer",
            "seed": DEFAULT_SEED,
        },
        # Still discriminates every component (nonzero leave-one-out
        # deltas) while running ~2x faster than the default workload.
        small_params={
            "duration_s": 4.0,
            "loss_rate": 0.2,
        },
    )
)


# ------------------------------------------------- ablation_importance ----
#
# The study-as-an-experiment: decompose emits the engine's run matrix and
# merge rebuilds the matrix from the params (both sides derive it from the
# same config, so the spec chunking can never drift) and folds the chunk
# results into the canonical importance report.


def _study_config(params):
    from ..ablation.engine import AblationStudy

    study = AblationStudy()
    components = params["components"]
    config = study.configure(
        scenario=str(params["scenario"]),
        components="all" if components == "all" else tuple(components),
        pairwise=bool(params["pairwise"]),
        scale=str(params["study_scale"]),
        seed=int(params["seed"]),
    )
    return study, config


def _importance_decompose(params) -> list[RunSpec]:
    study, config = _study_config(params)
    return [spec for run in study.generate_runs(config) for spec in run.specs]


def _importance_merge(params, runs) -> dict:
    from ..ablation.engine import AblationResult, fold_variants

    study, config = _study_config(params)
    run_list = study.generate_runs(config)
    merged, metrics = fold_variants(config, run_list, runs)
    result = AblationResult(
        config=config,
        runs=tuple(run_list),
        merged=merged,
        metrics=metrics,
        cached_units=0,
        total_units=len(runs),
    )
    return study.build_report(result)


def _importance_format(merged) -> str:
    from ..ablation.engine import format_report

    return format_report(merged)


IMPORTANCE_EXPERIMENT = register(
    Experiment(
        name="ablation_importance",
        title="Ablation importance — component run matrix + ranked importance report",
        run_one=run_one,  # matrix units are ablation_session specs
        decompose=_importance_decompose,
        merge=_importance_merge,
        format_result=_importance_format,
        default_params={
            "scenario": "session",
            "components": "all",
            "pairwise": False,
            "study_scale": "default",
            "seed": DEFAULT_SEED,
        },
        small_params={
            "study_scale": "small",
        },
    )
)
