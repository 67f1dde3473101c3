"""Table 1: multi-user streaming performance, vanilla vs. ViVo.

Reproduces the paper's scaling experiment: the maximum achievable frame
rate (capped at 30 FPS) when 1-3 users share 802.11ac or 1-7 users share
802.11ad, streaming the soldier video at 330K/430K/550K points per frame,
with the vanilla full-cloud player and the visibility-optimized ViVo
player.  Also reports the per-user transport data rate column.
"""

from __future__ import annotations

import numpy as np

from ..core import CapacityRateProvider, FixedQualityPolicy, SessionConfig, measure_max_fps
from ..mac import AC_MODEL, AD_MODEL, WlanCapacityModel
from ..pointcloud import QUALITY_ORDER, VisibilityConfig
from ..runner import Experiment, RunSpec, register
from .common import DEFAULT_SEED, default_study, default_video, format_table

__all__ = ["run_one", "row", "PAPER_TABLE1"]

# users per network in the paper's table (3 on 802.11ac, 7 on 802.11ad).
_MAX_USERS = {"802.11ac": 3, "802.11ad": 7}
_MODELS = {"802.11ac": AC_MODEL, "802.11ad": AD_MODEL}

# The paper's measured values, for side-by-side comparison in EXPERIMENTS.md.
# network -> users -> (per-user Mbps, vanilla (low, med, high), vivo (...)).
PAPER_TABLE1: dict[str, dict[int, tuple]] = {
    "802.11ac": {
        1: (374, (30.0, 30.0, 30.0), (30.0, 30.0, 30.0)),
        2: (180, (21.5, 17.4, 14.1), (30.0, 28.5, 21.9)),
        3: (112, (13.6, 10.9, 8.4), (19.2, 17.7, 13.6)),
    },
    "802.11ad": {
        1: (1270, (30.0, 30.0, 30.0), (30.0, 30.0, 30.0)),
        2: (575, (30.0, 30.0, 30.0), (30.0, 30.0, 30.0)),
        3: (382, (30.0, 30.0, 30.0), (30.0, 30.0, 30.0)),
        4: (298, (30.0, 29.3, 21.8), (30.0, 30.0, 30.0)),
        5: (231, (27.4, 21.6, 18.0), (30.0, 30.0, 29.3)),
        6: (175, (19.8, 16.5, 13.2), (30.0, 27.5, 21.2)),
        7: (144, (16.8, 13.5, 11.2), (27.0, 22.9, 17.2)),
    },
}


def _fps_for(
    model: WlanCapacityModel,
    num_users: int,
    quality: str,
    vivo: bool,
    num_frames: int,
    seed: int,
) -> float:
    video = default_video(quality)
    study = default_study(num_users=num_users, duration_s=6.0, seed=seed)
    config = SessionConfig(
        video=video,
        study=study,
        rates=CapacityRateProvider(model=model, num_users=num_users),
        visibility=VisibilityConfig() if vivo else VisibilityConfig.vanilla(),
        grouping="none",
        adaptation=FixedQualityPolicy(quality),
    )
    fps = measure_max_fps(config, num_frames=num_frames, stride=3)
    return float(np.mean(fps))


def run_one(spec: RunSpec) -> dict:
    """One table row: (network, user count) at every quality, both players."""
    network = spec.get("network")
    if network not in _MODELS:
        raise ValueError(f"unknown network {network!r}")
    model = _MODELS[network]
    n = int(spec.get("num_users"))
    num_frames = int(spec.get("num_frames"))
    vanilla = [
        _fps_for(model, n, q, vivo=False, num_frames=num_frames, seed=spec.seed)
        for q in QUALITY_ORDER
    ]
    vivo = [
        _fps_for(model, n, q, vivo=True, num_frames=num_frames, seed=spec.seed)
        for q in QUALITY_ORDER
    ]
    return {
        "network": network,
        "num_users": n,
        "per_user_rate_mbps": float(model.per_user_mbps(n)),
        "vanilla_fps": vanilla,
        "vivo_fps": vivo,
    }


def _decompose(params: dict) -> list[RunSpec]:
    unknown = [n for n in params["networks"] if n not in _MODELS]
    if unknown:
        raise ValueError(
            f"unknown network(s) {unknown}; valid networks: {sorted(_MODELS)}"
        )
    return [
        RunSpec.make(
            "table1",
            seed=params["seed"],
            network=network,
            num_users=n,
            num_frames=params["num_frames"],
        )
        for network in params["networks"]
        for n in range(1, _MAX_USERS[network] + 1)
    ]


def _merge(params: dict, runs: list) -> dict:
    return {"rows": [result for _, result in runs]}


def row(merged: dict, network: str, num_users: int) -> dict:
    """The row for ``network`` x ``num_users`` (KeyError if there is none)."""
    for r in merged["rows"]:
        if r["network"] == network and r["num_users"] == num_users:
            return r
    raise KeyError(f"no row for {network} x {num_users}")


def _format(merged: dict) -> str:
    headers = [
        "Network", "Users", "Mbps/user",
        "V-330K", "V-430K", "V-550K",
        "ViVo-330K", "ViVo-430K", "ViVo-550K",
    ]
    rows = [
        [r["network"], r["num_users"], round(r["per_user_rate_mbps"], 0),
         *[round(f, 1) for f in r["vanilla_fps"]],
         *[round(f, 1) for f in r["vivo_fps"]]]
        for r in merged["rows"]
    ]
    return format_table(headers, rows)


EXPERIMENT = register(
    Experiment(
        name="table1",
        title="Table 1 — multi-user FPS, vanilla vs. ViVo",
        run_one=run_one,
        decompose=_decompose,
        merge=_merge,
        format_result=_format,
        default_params={
            "num_frames": 45,
            "networks": ("802.11ac", "802.11ad"),
            "seed": DEFAULT_SEED,
        },
        small_params={"num_frames": 6, "networks": ("802.11ac",)},
    )
)

