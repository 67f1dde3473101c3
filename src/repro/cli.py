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
    python -m repro bench                     # BENCH_<n>.json perf point
    python -m repro bench --kernels --compare BENCH_3.json  # speedup gate
    python -m repro ablation --parallel 4     # component importance ranking

Each experiment command runs the registered experiment of that name
(``ablations``: the six agenda studies) with ``run_experiment``, serial
and uncached, and prints its title and ``format_result`` — the block
``repro run <name> --no-cache`` prints.  ``--frames``, ``--instants`` and
``--transport`` override ``num_frames``, ``num_instants`` and ``modes``
where an experiment has them.
``lint`` forwards to :mod:`repro.analysis` (same as
``python -m repro.analysis``); ``run`` and ``figures`` forward to the
deterministic parallel runner in :mod:`repro.runner.cli`; ``trace`` and
``obs`` forward to the observability layer in :mod:`repro.obs.cli`;
``bench`` forwards to :mod:`repro.obs.bench`, which runs the
``BENCHMARK.json`` workloads and kernel timings into a trajectory point; ``ablation`` forwards to the component-ablation
engine in :mod:`repro.ablation.cli`.
"""

from __future__ import annotations

import argparse
import sys
import time

# Command names in `all` order; each runs the registered experiment of the
# same name, except `ablations` (the six agenda studies) and `study`.
_NAMES = (
    "table1",
    "fig2a",
    "fig2b",
    "fig3b",
    "fig3d",
    "fig3e",
    "scaling",
    "ablations",
    "loss_sweep",
    "study",
)


def _run_study(args) -> None:
    from .experiments import format_table
    from .runner import banner
    from .traces import generate_user_study
    from .traces.analytics import study_statistics

    print(banner("Synthetic user-study motion statistics"))
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


def _print_experiments(command: str, args) -> None:
    """Run each registered experiment behind ``command``, serial and uncached.

    A set ``--frames`` / ``--instants`` / ``--transport`` flag overrides
    ``num_frames`` / ``num_instants`` / ``modes`` of every experiment that
    declares that parameter; unset flags leave the registered defaults.
    """
    from .experiments.ablations import ABLATION_EXPERIMENTS
    from .experiments.loss_sweep import LOSS_SWEEP_MODES
    from .runner import banner, get_experiment, run_experiment

    flags = {"num_frames": args.frames, "num_instants": args.instants}
    if args.transport is not None:
        flags["modes"] = (
            LOSS_SWEEP_MODES if args.transport == "all" else (args.transport,)
        )
    names = ABLATION_EXPERIMENTS if command == "ablations" else (command,)
    for name in names:
        experiment = get_experiment(name)
        overrides = {
            key: value
            for key, value in flags.items()
            if value is not None and key in experiment.default_params
        }
        print(banner(experiment.title or experiment.name))
        print(experiment.format_result(run_experiment(name, overrides)))


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
        choices=[*_NAMES, "all"],
        help="which experiment(s) to run",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="override num_frames of each selected experiment that has it",
    )
    parser.add_argument(
        "--instants",
        type=int,
        default=None,
        help="override num_instants of each selected experiment that has it",
    )
    parser.add_argument(
        "--users", type=int, default=32, help="study size for the study command"
    )
    parser.add_argument(
        "--transport",
        choices=["ideal", "arq", "fec", "hybrid", "all"],
        default=None,
        help="override the transport modes of loss_sweep ('all' = every mode)",
    )
    args = parser.parse_args(argv)

    chosen = _NAMES if "all" in args.experiments else args.experiments
    t0 = time.perf_counter()
    for name in chosen:
        if name == "study":
            _run_study(args)
        else:
            _print_experiments(name, args)
    print(f"\ndone in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
