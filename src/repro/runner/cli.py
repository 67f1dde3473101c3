"""The parallel experiment CLI: ``repro run`` and ``repro figures``.

    python -m repro run table1 loss_sweep --parallel 4
    python -m repro run all --scale small
    python -m repro figures --parallel 4 --timings timings.json

Both commands decompose every selected experiment into its
:class:`~repro.runner.spec.RunSpec` work units, execute them on **one
shared pool** (so a long unit of one experiment overlaps the short units
of another), then merge and print each experiment in registration order —
the output is independent of ``--parallel`` by construction.

Results are cached on disk (``.repro-cache`` or ``$REPRO_CACHE_DIR``)
keyed by the hash of (spec, package version); ``--no-cache`` bypasses the
cache, ``--clear-cache`` empties it first.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ..obs import metrics as obs_metrics
from .cache import ResultCache
from .executor import run_specs_iter
from .progress import ProgressPrinter, TimingSummary, banner
from .registry import experiment_names, get_experiment, resolve_params

__all__ = ["main"]


def _parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}",
        description=(
            "Regenerate every registered figure/table."
            if command == "figures"
            else "Run selected experiments through the parallel runner."
        ),
    )
    if command == "run":
        parser.add_argument(
            "experiments",
            nargs="+",
            metavar="EXPERIMENT",
            help="registered experiment name(s), or 'all'",
        )
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    parser.add_argument(
        "--scale",
        choices=["default", "small"],
        default="default",
        help="parameter scale: full paper configs or quick small configs",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="compute everything fresh and persist nothing",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="drop all cached results before running",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache directory (default .repro-cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--timings",
        default=None,
        metavar="PATH",
        help="write the timing summary as JSON (for CI artifacts)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "collect the observability metrics of every work unit and write "
            "the merged snapshot as JSON (skips cache reads)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-unit progress lines"
    )
    return parser


def _select_names(command: str, requested: list[str] | None) -> list[str]:
    names = experiment_names()
    if command == "figures" or (requested and "all" in requested):
        return names
    unknown = [n for n in (requested or []) if n not in names]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s): {', '.join(unknown)}\n"
            f"registered: {', '.join(names)}"
        )
    return list(dict.fromkeys(requested or []))


def main(argv: list[str]) -> int:
    """Entry point for ``repro run`` / ``repro figures`` (exit status)."""
    command = argv[0]
    args = _parser(command).parse_args(argv[1:])
    names = _select_names(command, getattr(args, "experiments", None))

    summary = TimingSummary(workers=args.parallel)
    overrides = {"seed": args.seed} if args.seed is not None else None
    with summary.profiler.phase("plan"):
        plans = []
        for name in names:
            experiment = get_experiment(name)
            params = resolve_params(experiment, overrides, scale=args.scale)
            plans.append(
                (experiment, params, list(experiment.decompose(params)))
            )

        cache = None if args.no_cache else ResultCache(root=args.cache_dir)
        if args.clear_cache and cache is not None:
            cache.clear()

    all_specs = [spec for _, _, specs in plans for spec in specs]
    collect_metrics = args.metrics_out is not None
    with summary.profiler.phase("execute"):
        # Stream reports in spec order and fold metrics snapshots into one
        # merged snapshot as they arrive (merge_snapshots is an in-order
        # left fold, so folding incrementally is identical to merging the
        # full list) — per-unit snapshots are dropped immediately instead
        # of riding along until the end of the run.
        reports = []
        merged_metrics: dict | None = {} if collect_metrics else None
        counted: set = set()
        for r in run_specs_iter(
            all_specs,
            workers=args.parallel,
            cache=cache,
            progress=ProgressPrinter(quiet=args.quiet),
            collect_metrics=collect_metrics,
        ):
            if collect_metrics and r.metrics is not None:
                # Duplicate specs fan one report out to several positions;
                # fold each executed unit's snapshot once, in
                # first-appearance order.
                if r.spec not in counted:
                    counted.add(r.spec)
                    merged_metrics = obs_metrics.merge_snapshots(
                        [merged_metrics, r.metrics]
                    )
                r = replace(r, metrics=None)
            reports.append(r)
    summary.add(reports)

    with summary.profiler.phase("merge"):
        offset = 0
        rendered = []
        for experiment, params, specs in plans:
            chunk = reports[offset : offset + len(specs)]
            offset += len(specs)
            merged = experiment.merge(
                params, [(r.spec, r.result) for r in chunk]
            )
            title = experiment.title or experiment.name
            rendered.append((title, experiment.format_result(merged)))
    summary.finish()

    for title, body in rendered:
        print(banner(title))
        print(body)

    print()
    print(summary.format())
    if args.timings:
        path = summary.write_json(args.timings)
        print(f"timings written to {path}")
    if args.metrics_out:
        path = obs_metrics.write_snapshot(args.metrics_out, merged_metrics)
        print(f"metrics written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
