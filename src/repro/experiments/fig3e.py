"""Fig. 3e: normalized throughput of unicast vs. multicast (default beams)
vs. multicast with customized multi-lobe beams, for two users.

For each sampled instant, both users demand the frame their viewport
selects (50 cm cells, high quality); the three schemes deliver it:

* **unicast** — each user's full demand at their own best-beam rate;
* **multicast (default)** — shared cells once at the best *common codebook
  beam*'s rate (the group-min MCS), residuals via unicast;
* **multicast (custom)** — same, but the multicast rate comes from the
  multi-lobe beam design.

Throughput = total payload bytes / airtime, normalized to the best scheme
per instant.  The paper's findings, which the benchmark asserts: default-
beam multicast can be *worse* than unicast (unbalanced RSS drags the common
MCS down), while custom-beam multicast consistently wins.
"""

from __future__ import annotations

import numpy as np

from ..mac import UserDemand, multicast_frame_time, unicast_frame_time
from ..mmwave import multicast_common_rss_dbm
from ..mmwave.mcs import app_rate_mbps
from ..pointcloud import CellGrid, VisibilityConfig, compute_visibility_batch
from ..geometry import AABB, Frustum
from ..runner import Experiment, RunSpec, register
from .common import (
    CONTENT_CENTER,
    DEFAULT_SEED,
    default_channel,
    default_video,
    ideal_codebook,
    study_in_room,
)

__all__ = [
    "run_one",
    "normalized_throughput",
    "mean_throughput",
    "default_worse_than_unicast_fraction",
    "SCHEMES",
]

SCHEMES = ("unicast", "multicast-default", "multicast-custom")


def run_one(spec: RunSpec) -> dict:
    """One unit: the member/instant RNG stream spans the whole sweep."""
    return _compute(
        num_instants=int(spec.get("num_instants")),
        num_users=int(spec.get("num_users")),
        duration_s=float(spec.get("duration_s")),
        cell_size=float(spec.get("cell_size")),
        seed=spec.seed,
    )


def normalized_throughput(merged: dict) -> dict[str, np.ndarray]:
    """Per-instant normalized throughput for each scheme."""
    return {
        s["scheme"]: np.array(s["normalized"], dtype=np.float64)
        for s in merged["schemes"]
    }


def mean_throughput(merged: dict) -> dict[str, float]:
    """Mean normalized throughput per scheme, in ``SCHEMES`` order."""
    normalized = normalized_throughput(merged)
    return {s: float(np.mean(normalized[s])) for s in SCHEMES}


def default_worse_than_unicast_fraction(merged: dict) -> float:
    """How often default-beam multicast loses to plain unicast."""
    normalized = normalized_throughput(merged)
    return float(
        np.mean(normalized["multicast-default"] < normalized["unicast"] - 1e-12)
    )


def _format(merged: dict) -> str:
    lines = [
        f"{scheme:20s} {mean:.3f}"
        for scheme, mean in mean_throughput(merged).items()
    ]
    lines.append(
        "default multicast worse than unicast at "
        f"{default_worse_than_unicast_fraction(merged) * 100:.0f}% of instants"
    )
    return "\n".join(lines)


EXPERIMENT = register(
    Experiment(
        name="fig3e",
        title="Fig. 3e — normalized throughput",
        run_one=run_one,
        format_result=_format,
        default_params={
            "num_instants": 60,
            "num_users": 8,
            "duration_s": 10.0,
            "cell_size": 0.5,
            "seed": DEFAULT_SEED,
        },
        small_params={"num_instants": 10},
    )
)


def _compute(
    num_instants: int,
    num_users: int,
    duration_s: float,
    cell_size: float,
    seed: int,
) -> dict:
    study = study_in_room(num_users=num_users, duration_s=duration_s, seed=seed)
    channel = default_channel()
    codebook = ideal_codebook()
    weight_matrix = codebook.weight_matrix
    video = default_video("high")
    # Trace positions live in room coordinates; shift the content-centered
    # video bounds to the room center where the users actually look.
    bounds = video.bounds
    room_bounds = AABB(bounds.lo + CONTENT_CENTER, bounds.hi + CONTENT_CENTER)
    grid = CellGrid.covering(room_bounds, cell_size, margin=0.05)
    config = VisibilityConfig()
    bytes_of = lambda p: float(p * video.quality.bytes_per_point)  # noqa: E731
    rng = np.random.default_rng(seed)

    results: dict[str, list[float]] = {s: [] for s in SCHEMES}
    for _ in range(num_instants):
        s = int(rng.integers(0, study.num_samples))
        members = tuple(int(m) for m in rng.choice(num_users, size=2, replace=False))
        frame_index = s % len(video)
        occ = grid.occupancy(video[frame_index].transformed(CONTENT_CENTER))

        visible = compute_visibility_batch(
            occ, Frustum.many(study.traces[u].pose(s) for u in members), config
        )
        demands = []
        positions = []
        for u, vis in zip(members, visible):
            cell_bytes = vis.cell_bytes(bytes_of)
            pos = study.traces[u].positions[s]
            rss_all = channel.rss_matrix_dbm(weight_matrix, pos)
            best = int(np.argmax(rss_all))
            rate = app_rate_mbps(float(rss_all[best]))
            demands.append(
                UserDemand(user_id=u, cell_bytes=cell_bytes, unicast_rate_mbps=rate)
            )
            positions.append(pos)

        total_bytes = sum(d.total_bytes for d in demands)
        if total_bytes <= 0:
            continue

        # Scheme 1: unicast.
        t_uni = unicast_frame_time(demands)

        # Scheme 2: multicast at the default common beam's rate.  Scheme 3:
        # multicast with the custom multi-lobe beam (falling back to the
        # default beam when it is already better).
        default, custom = multicast_common_rss_dbm(channel, codebook, positions)
        rate_default = app_rate_mbps(default)
        t_default = multicast_frame_time(demands, rate_default)
        rate_custom = max(rate_default, app_rate_mbps(custom))
        t_custom = multicast_frame_time(demands, rate_custom)

        throughputs = {
            "unicast": total_bytes / t_uni if t_uni > 0 else 0.0,
            "multicast-default": total_bytes / t_default if t_default > 0 else 0.0,
            "multicast-custom": total_bytes / t_custom if t_custom > 0 else 0.0,
        }
        best_tp = max(throughputs.values())
        if best_tp <= 0:
            continue
        for scheme in SCHEMES:
            results[scheme].append(throughputs[scheme] / best_tp)

    return {
        "schemes": [
            {"scheme": scheme, "normalized": [float(x) for x in results[scheme]]}
            for scheme in SCHEMES
        ]
    }
