"""Synthetic ``repro.bench/2`` points for the bench, diff and report tests.

Every end-to-end metric carries the unit, direction and bound the
repository's ``BENCHMARK.json`` declares, so the points validate.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)

DEFAULT_VALUES = {
    "wall_ref": 60.0,
    "setup_s": 0.3,
    "peak_rss_mb": 85.0,
    "sim_fps": 27.5,
    "ok_frac": 1.0,
}


def end_to_end_metrics(**values):
    """The declared end-to-end metrics; ``values`` override the defaults."""
    return {
        spec["name"]: {
            "value": values.get(spec["name"], DEFAULT_VALUES[spec["name"]]),
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
        }
        for spec in BENCHMARK["end_to_end"]
    }


def workload(failed=0, **values):
    """One workload's two passes: end-to-end and two per-layer metrics."""
    return {
        "end_to_end": {
            "attempted": 10,
            "failed": failed,
            "metrics": end_to_end_metrics(**values),
        },
        "per_layer": {
            "attempted": 11,
            "failed": 0,
            "metrics": {
                "sim.run.calls": {"value": 24, "unit": "count"},
                "sim.run.self_s": {"value": 1.5, "unit": "s"},
            },
        },
    }


def kernel(name, speedup, min_speedup=2.0):
    return {
        "name": name,
        "scalar_wall_s": 1.0,
        "vectorized_wall_s": 1.0 / speedup,
        "speedup": speedup,
        "min_speedup": min_speedup,
    }


def bench_point(workloads=None, kernels=None):
    """A ``repro.bench/2`` point with the given sections.

    ``workloads`` maps a name to :func:`workload` output; ``kernels`` is a
    list of ``(name, speedup)`` pairs, each floored at 2.0.
    """
    doc = {"schema": "repro.bench/2"}
    if workloads is not None:
        doc["workloads"] = workloads
    if kernels is not None:
        doc["kernels"] = [kernel(name, speedup) for name, speedup in kernels]
    return doc
