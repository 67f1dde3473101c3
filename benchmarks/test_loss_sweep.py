"""Benchmark: transport loss sweep — FEC multicast vs. ARQ-only collapse.

The delivery-layer argument for the paper's FEC recommendation: block-ACK
ARQ retransmits the *union* of all members' losses and burns a feedback
slot per member per round, so a multicast group operating near its airtime
budget blows through the frame deadline as soon as per-packet loss is more
than a couple percent.  Rateless FEC sized for the weakest member needs no
feedback and only ~p extra packets, so it keeps the frame rate.
"""

import pytest

from repro.experiments.loss_sweep import by_mode
from repro.runner import get_experiment, run_experiment


@pytest.mark.repro
def test_loss_sweep(benchmark, print_result):
    merged = benchmark.pedantic(
        run_experiment, args=("loss_sweep", {"num_frames": 20}), rounds=1, iterations=1
    )
    print_result(
        "Loss sweep: goodput (Mbps) | frame rate by mode",
        get_experiment("loss_sweep").format_result(merged),
    )
    goodput = by_mode(merged, "goodput_mbps")
    fps = by_mode(merged, "effective_fps")
    delivery = by_mode(merged, "frame_delivery_rate")

    # Lossless sanity: every mode sustains the target frame rate, and the
    # ideal fluid model is the ceiling.
    for mode in merged["modes"]:
        assert fps[mode][0.0] == pytest.approx(30.0)
        assert goodput["ideal"][0.0] >= goodput[mode][0.0]

    # Mild loss (1-2%): ARQ's spare airtime absorbs the retransmissions.
    assert fps["arq"][0.02] >= 25.0
    assert delivery["arq"][0.02] >= 0.9

    # The headline: at >=5% loss ARQ-only multicast collapses while FEC
    # retains >=2x its goodput (here: ARQ delivers nothing at all).
    for p in (0.05, 0.10):
        fec = goodput["fec"][p]
        arq = goodput["arq"][p]
        assert fec > 0
        assert fec >= 2.0 * arq
        assert fps["fec"][p] >= 25.0
        assert fps["arq"][p] <= 5.0

    # Hybrid uses FEC for the (fully shared) multicast leg, so it matches
    # FEC here; the ideal ceiling is never beaten.
    for p in merged["loss_points"]:
        assert goodput["hybrid"][p] == pytest.approx(goodput["fec"][p])


@pytest.mark.repro
def test_loss_sweep_deterministic():
    overrides = {"num_frames": 8, "loss_points": (0.0, 0.05, 0.1)}
    a = run_experiment("loss_sweep", overrides)
    b = run_experiment("loss_sweep", overrides)
    for metric in ("goodput_mbps", "effective_fps", "frame_delivery_rate"):
        assert by_mode(a, metric) == by_mode(b, metric)
