"""Synthetic user-study motion statistics, per viewing device.

The paper's user study splits participants into smartphone (PH) and
headset (HM) viewers and observes that "headset users move relatively
more freely".  This experiment generates the synthetic study and reports
each device group's mean translational speed, position spread, angular
speed and viewing distance — the table that substantiates that claim.
"""

from __future__ import annotations

from ..runner import Experiment, RunSpec, register
from ..traces import Device, generate_user_study, study_statistics
from .common import DEFAULT_SEED, format_table

__all__ = ["run_one"]


def run_one(spec: RunSpec) -> dict:
    """One unit: ``{device code: that device's mean motion statistics}``."""
    study = generate_user_study(
        num_users=int(spec.get("num_users")),
        duration_s=float(spec.get("duration_s")),
        seed=spec.seed,
    )
    return {device.value: stats for device, stats in study_statistics(study).items()}


def _format(merged: dict) -> str:
    headers = ["Device", "users", "speed(m/s)", "spread(m)", "ang(deg/s)",
               "dist(m)"]
    rows = []
    # Walk the enum (PH, then HM): merged results come back with sorted keys.
    for device in Device:
        s = merged.get(device.value)
        if s is None:
            continue
        rows.append([
            device.value,
            int(s["users"]),
            round(s["mean_speed_mps"], 3),
            round(s["position_spread_m"], 3),
            round(s["mean_angular_speed_dps"], 1),
            round(s["mean_viewing_distance_m"], 2),
        ])
    return format_table(headers, rows, float_fmt="{:.3f}")


EXPERIMENT = register(
    Experiment(
        name="study",
        title="Synthetic user-study motion statistics",
        run_one=run_one,
        format_result=_format,
        default_params={"num_users": 32, "duration_s": 10.0, "seed": DEFAULT_SEED},
        small_params={"num_users": 8},
    )
)
