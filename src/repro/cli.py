"""Command-line entry point: regenerate any paper experiment from a shell.

    python -m repro table1
    python -m repro fig2a fig2b
    python -m repro fig3b --instants 200
    python -m repro ablations
    python -m repro all
    python -m repro lint                      # repo-specific static analysis
    python -m repro run table1 --parallel 4   # parallel runner + result cache
    python -m repro figures --parallel 4      # every registered figure/table
    python -m repro trace loss_sweep          # JSONL timeline, streamed to disk
    python -m repro obs analyze t.jsonl       # per-frame latency attribution
    python -m repro obs check t.jsonl --spec slo.json   # SLO gating
    python -m repro obs diff a.json b.json    # run-to-run regression diff
    python -m repro obs report a.json         # self-contained HTML report
    python -m repro bench loss_sweep          # BENCH_<n>.json perf point
    python -m repro bench --kernels --compare BENCH_2.json  # speedup gate
    python -m repro ablation --parallel 4     # component importance ranking

Each command prints the same formatted rows the benchmarks assert on.
``lint`` forwards to :mod:`repro.analysis` (same as
``python -m repro.analysis``); ``run`` and ``figures`` forward to the
deterministic parallel runner in :mod:`repro.runner.cli`; ``trace`` and
``obs`` forward to the observability layer in :mod:`repro.obs.cli`;
``bench`` forwards to the perf-trajectory harness in
:mod:`repro.obs.bench`; ``ablation`` forwards to the component-ablation
engine in :mod:`repro.ablation.cli`.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _print_header(title: str) -> None:
    print(f"\n===== {title} " + "=" * max(0, 60 - len(title)))


def _run_table1(args) -> None:
    from .experiments import run_table1

    _print_header("Table 1 — multi-user FPS, vanilla vs. ViVo")
    print(run_table1(num_frames=args.frames).format())


def _run_fig2a(args) -> None:
    from .experiments import run_fig2a

    _print_header("Fig. 2a — pairwise IoU over time")
    result = run_fig2a(num_users=16, num_frames=300)
    print(f"stable pair {result.stable_pair}: mean IoU {result.stable_mean:.3f}")
    print(
        f"converging pair {result.converging_pair}: "
        f"{np.mean(result.converging_iou[:60]):.2f} -> "
        f"{np.mean(result.converging_iou[-60:]):.2f}"
    )


def _run_fig2b(args) -> None:
    from .experiments import FIG2B_CURVES, run_fig2b

    _print_header("Fig. 2b — IoU distributions")
    result = run_fig2b()
    for curve in FIG2B_CURVES:
        samples = result.samples[curve]
        print(
            f"{curve:18s} mean {np.mean(samples):.3f} "
            f"median {np.median(samples):.3f}"
        )


def _run_fig3b(args) -> None:
    from .experiments import run_fig3b

    _print_header("Fig. 3b — default-codebook multicast coverage")
    result = run_fig3b(num_instants=args.instants)
    for k, cov in sorted(result.summary().items()):
        print(f"{k} user(s): coverage@-68dBm = {cov:.3f}")


def _run_fig3d(args) -> None:
    from .experiments import run_fig3d

    _print_header("Fig. 3d — default vs. custom multicast beams")
    result = run_fig3d(num_instants=args.instants)
    print(f"mean improvement  : {result.mean_improvement_db():+.2f} dB")
    print(f"median improvement: {result.median_improvement_db():+.2f} dB")
    print(f"custom-beam wins  : {result.win_fraction() * 100:.0f}%")


def _run_fig3e(args) -> None:
    from .experiments import SCHEMES, run_fig3e

    _print_header("Fig. 3e — normalized throughput")
    result = run_fig3e(num_instants=min(args.instants, 100))
    for scheme in SCHEMES:
        print(f"{scheme:20s} {result.mean(scheme):.3f}")
    print(
        "default multicast worse than unicast at "
        f"{result.default_worse_than_unicast_fraction() * 100:.0f}% of instants"
    )


def _run_scaling(args) -> None:
    from .experiments import run_scaling

    _print_header("Scaling — max users at ~30 FPS (550K quality)")
    print(run_scaling(num_frames=args.frames).format())


def _run_ablations(args) -> None:
    from .experiments.ablations import ABLATION_EXPERIMENTS
    from .runner import get_experiment, run_experiment

    for name in ABLATION_EXPERIMENTS:
        experiment = get_experiment(name)
        _print_header(experiment.title)
        print(experiment.format_result(run_experiment(name)))


def _run_loss_sweep(args) -> None:
    from .experiments import LOSS_SWEEP_MODES, run_loss_sweep

    _print_header("Loss sweep — transport goodput vs. packet loss")
    modes = (
        LOSS_SWEEP_MODES
        if args.transport == "all"
        else (args.transport,)
    )
    result = run_loss_sweep(modes=modes)
    print(result.format())
    if {"arq", "fec"} <= set(modes):
        for p in result.loss_points:
            if p >= 0.05:
                ratio = result.goodput_ratio(p)
                shown = "inf" if ratio == float("inf") else f"{ratio:.1f}x"
                print(f"fec/arq goodput at {p * 100:.0f}% loss: {shown}")


def _run_study(args) -> None:
    from .experiments import format_table
    from .traces import Device, generate_user_study
    from .traces.analytics import study_statistics

    _print_header("Synthetic user-study motion statistics")
    study = generate_user_study(num_users=args.users, duration_s=10.0)
    stats = study_statistics(study)
    headers = ["Device", "users", "speed(m/s)", "spread(m)", "ang(deg/s)",
               "dist(m)"]
    rows = [
        [
            device.value,
            int(s["users"]),
            round(s["mean_speed_mps"], 3),
            round(s["position_spread_m"], 3),
            round(s["mean_angular_speed_dps"], 1),
            round(s["mean_viewing_distance_m"], 2),
        ]
        for device, s in stats.items()
    ]
    print(format_table(headers, rows, float_fmt="{:.3f}"))


COMMANDS = {
    "table1": _run_table1,
    "fig2a": _run_fig2a,
    "fig2b": _run_fig2b,
    "fig3b": _run_fig3b,
    "fig3d": _run_fig3d,
    "fig3e": _run_fig3e,
    "scaling": _run_scaling,
    "ablations": _run_ablations,
    "loss_sweep": _run_loss_sweep,
    "study": _run_study,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` (returns a process exit status)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] in ("run", "figures"):
        from .runner.cli import main as runner_main

        return runner_main(argv)
    if argv and argv[0] == "trace":
        from .obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "obs":
        from .obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "bench":
        from .obs.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "scenario":
        from .scenario.cli import main as scenario_main

        return scenario_main(argv[1:])
    if argv and argv[0] == "ablation":
        from .ablation.cli import main as ablation_main

        return ablation_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the HotNets '21 paper's tables and figures.",
        epilog="`python -m repro lint [paths...]` runs repro.analysis.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*COMMANDS, "all"],
        help="which experiment(s) to run",
    )
    parser.add_argument(
        "--frames", type=int, default=45, help="frames per Table 1 cell"
    )
    parser.add_argument(
        "--instants", type=int, default=150, help="sampled instants for Fig 3"
    )
    parser.add_argument(
        "--users", type=int, default=32, help="study size for the study command"
    )
    parser.add_argument(
        "--transport",
        choices=["ideal", "arq", "fec", "hybrid", "all"],
        default="all",
        help="transport mode(s) for the loss_sweep command",
    )
    args = parser.parse_args(argv)

    chosen = list(COMMANDS) if "all" in args.experiments else args.experiments
    t0 = time.perf_counter()
    for name in chosen:
        COMMANDS[name](args)
    print(f"\ndone in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
