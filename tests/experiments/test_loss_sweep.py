"""Loss-sweep experiment runner (small parameters)."""

import pytest

from repro.experiments import loss_sweep
from repro.runner import get_experiment, run_experiment


def _tiny(**overrides):
    params = dict(
        num_frames=4, num_users=3, num_cells=8, loss_points=(0.0, 0.05)
    )
    params.update(overrides)
    return run_experiment("loss_sweep", params)


def test_shapes_and_ranges():
    result = _tiny()
    assert tuple(result["modes"]) == ("ideal", "arq", "fec", "hybrid")
    assert tuple(result["loss_points"]) == (0.0, 0.05)
    goodput = loss_sweep.by_mode(result, "goodput_mbps")
    fps = loss_sweep.by_mode(result, "effective_fps")
    delivery = loss_sweep.by_mode(result, "frame_delivery_rate")
    for mode in result["modes"]:
        for p in result["loss_points"]:
            assert goodput[mode][p] >= 0.0
            assert 0.0 <= fps[mode][p] <= 30.0
            assert 0.0 <= delivery[mode][p] <= 1.0


def test_ideal_ignores_loss():
    result = _tiny()
    goodput = loss_sweep.by_mode(result, "goodput_mbps")
    assert goodput["ideal"][0.0] == goodput["ideal"][0.05]
    delivery = loss_sweep.by_mode(result, "frame_delivery_rate")
    assert delivery["ideal"][0.05] == 1.0


def test_deterministic():
    assert loss_sweep.by_mode(_tiny(), "goodput_mbps") == loss_sweep.by_mode(
        _tiny(), "goodput_mbps"
    )


def test_goodput_ratio():
    result = _tiny()
    assert loss_sweep.goodput_ratio(result, 0.0, over="ideal", under="ideal") == 1.0
    ratio = loss_sweep.goodput_ratio(result, 0.05)
    assert ratio >= 1.0  # FEC never does worse than ARQ at 5% here


def test_mode_subset_and_validation():
    result = run_experiment(
        "loss_sweep",
        {
            "modes": ("fec",),
            "loss_points": (0.1,),
            "num_frames": 2,
            "num_users": 2,
            "num_cells": 4,
        },
    )
    assert tuple(result["modes"]) == ("fec",)
    with pytest.raises(ValueError):
        run_experiment("loss_sweep", {"modes": ("smoke-signals",)})
    with pytest.raises(ValueError):
        run_experiment("loss_sweep", {"airtime_fraction": 0.0})


def test_format_renders_table():
    text = get_experiment("loss_sweep").format_result(_tiny())
    assert "loss" in text and "fec Mbps|fps" in text
