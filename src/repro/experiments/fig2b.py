"""Fig. 2b: CDFs of viewport IoU across device, cell size, and group size.

Four curves, as in the paper:

* ``HM(2)-Seg(100cm)`` — headset pairs, 100 cm cells;
* ``HM(2)-Seg(50cm)``  — headset pairs, 50 cm cells;
* ``PH(2)-Seg(50cm)``  — phone pairs, 50 cm cells;
* ``HM(3)-Seg(50cm)``  — headset triples, 50 cm cells.

Expected orderings (the paper's findings, asserted by the benchmark):
coarser cells -> higher IoU; phones -> higher IoU than headsets; larger
groups -> lower IoU.
"""

from __future__ import annotations

import numpy as np

from ..core import compute_visibility_maps, group_iou_samples, pairwise_iou_samples
from ..pointcloud import VisibilityConfig
from ..runner import Experiment, RunSpec, register
from ..traces import Device
from .common import DEFAULT_SEED, default_study, default_video, grid_for

__all__ = ["run_one", "curve_samples", "mean_iou", "FIG2B_CURVES"]

FIG2B_CURVES = (
    "HM(2)-Seg(100cm)",
    "HM(2)-Seg(50cm)",
    "PH(2)-Seg(50cm)",
    "HM(3)-Seg(50cm)",
)

# curve -> (device, cell size m, group size).  Each curve is one runner
# work unit; the visibility maps it needs are rebuilt inside the unit, so
# units are independent and fan out cleanly.
_CURVE_DEFS: dict[str, tuple[Device, float, int]] = {
    "HM(2)-Seg(100cm)": (Device.HEADSET, 1.0, 2),
    "HM(2)-Seg(50cm)": (Device.HEADSET, 0.5, 2),
    "PH(2)-Seg(50cm)": (Device.PHONE, 0.5, 2),
    "HM(3)-Seg(50cm)": (Device.HEADSET, 0.5, 3),
}


def run_one(spec: RunSpec) -> dict:
    """One CDF curve: build that curve's maps and draw its IoU samples."""
    curve = spec.get("curve")
    if curve not in _CURVE_DEFS:
        raise ValueError(f"unknown fig2b curve {curve!r}")
    device, cell_size, group_size = _CURVE_DEFS[curve]
    study = default_study(
        num_users=int(spec.get("num_users")),
        duration_s=float(spec.get("duration_s")),
        seed=spec.seed,
    )
    video = default_video("high")
    config = VisibilityConfig()
    ids = [t.user_id for t in study.by_device(device)]
    maps = compute_visibility_maps(
        study, video, grid_for(video, cell_size), users=ids, config=config
    )
    if group_size == 2:
        samples = pairwise_iou_samples(maps)
    else:
        samples = group_iou_samples(
            maps,
            group_size=group_size,
            max_groups=int(spec.get("max_groups")),
            seed=spec.seed,
        )
    return {"curve": curve, "samples": [float(x) for x in samples]}


def _decompose(params: dict) -> list[RunSpec]:
    return [
        RunSpec.make(
            "fig2b",
            seed=params["seed"],
            curve=curve,
            num_users=params["num_users"],
            duration_s=params["duration_s"],
            max_groups=params["max_groups"],
        )
        for curve in FIG2B_CURVES
    ]


def _merge(params: dict, runs: list) -> dict:
    return {
        "curves": [
            {"curve": result["curve"], "samples": result["samples"]}
            for _, result in runs
        ]
    }


def curve_samples(merged: dict) -> dict[str, np.ndarray]:
    """IoU sample set per curve (feed to ``empirical_cdf`` for plotting)."""
    return {
        c["curve"]: np.array(c["samples"], dtype=np.float64)
        for c in merged["curves"]
    }


def mean_iou(merged: dict) -> dict[str, float]:
    """Mean IoU per curve."""
    return {
        curve: float(np.mean(samples))
        for curve, samples in curve_samples(merged).items()
    }


def _format(merged: dict) -> str:
    samples = curve_samples(merged)
    means = mean_iou(merged)
    return "\n".join(
        f"{curve:18s} mean {means[curve]:.3f} "
        f"median {np.median(samples[curve]):.3f}"
        for curve in FIG2B_CURVES
    )


EXPERIMENT = register(
    Experiment(
        name="fig2b",
        title="Fig. 2b — IoU distributions",
        run_one=run_one,
        decompose=_decompose,
        merge=_merge,
        format_result=_format,
        default_params={
            "num_users": 32,
            "duration_s": 10.0,
            "max_groups": 60,
            "seed": DEFAULT_SEED,
        },
        small_params={"num_users": 12, "duration_s": 3.0, "max_groups": 30},
    )
)

