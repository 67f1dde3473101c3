"""The parallel experiment CLI: ``repro run`` and ``repro figures``.

    python -m repro run table1 loss_sweep --parallel 4
    python -m repro run all --scale small
    python -m repro run loss_sweep --set modes=fec --set num_frames=6
    python -m repro figures --parallel 4 --timings timings.json

Both commands decompose every selected experiment into its
:class:`~repro.runner.spec.RunSpec` work units, execute them on **one
shared pool** (so a long unit of one experiment overlaps the short units
of another), then merge and print each experiment in registration order —
the output is independent of ``--parallel`` by construction.

Results are cached on disk (``.repro-cache`` or ``$REPRO_CACHE_DIR``)
keyed by the hash of (spec, package version); ``--no-cache`` bypasses the
cache, ``--clear-cache`` empties it first.

``repro run --set KEY=VALUE`` (repeatable) overrides ``KEY`` in every
selected experiment that declares it, parsed by the type of that
experiment's default: ``int``, ``float``, ``str``, ``bool``
(``true``/``false``), or a comma-separated tuple of the first item's type.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Any

from ..obs import metrics as obs_metrics
from .cache import ResultCache
from .executor import run_specs_iter
from .progress import ProgressPrinter, TimingSummary, banner
from .registry import Experiment, experiment_names, get_experiment, resolve_params

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
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help=(
                "override parameter KEY of each selected experiment that "
                "declares it (repeatable; tuples take comma-separated items)"
            ),
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


def _select_names(
    parser: argparse.ArgumentParser, command: str, requested: list[str] | None
) -> list[str]:
    names = experiment_names()
    if command == "figures" or (requested and "all" in requested):
        return names
    unknown = [n for n in (requested or []) if n not in names]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"registered: {', '.join(sorted(names))}"
        )
    return list(dict.fromkeys(requested or []))


def _parse_value(text: str, default: Any) -> Any:
    """``text`` read as the type of ``default`` (ValueError if it does not parse)."""
    if isinstance(default, tuple):
        if not default:
            raise ValueError("an empty default has no item type")
        return tuple(_parse_value(item, default[0]) for item in text.split(","))
    if isinstance(default, bool):  # before int: bool is an int subclass
        if text not in ("true", "false"):
            raise ValueError("expected true or false")
        return text == "true"
    return type(default)(text)


def _overrides(
    parser: argparse.ArgumentParser,
    experiments: list[Experiment],
    items: list[str],
    seed: int | None,
) -> list[dict[str, Any]]:
    """Per-experiment overrides from ``--set`` items and ``--seed``.

    Each ``KEY=VALUE`` applies to every experiment whose defaults declare
    ``KEY``; a malformed item, a key no experiment declares, or a value
    that does not parse is an argparse error.
    """
    pairs = []
    for item in items:
        key, sep, text = item.partition("=")
        if not sep:
            parser.error(f"--set {item!r}: expected KEY=VALUE")
        pairs.append((key, text))
    declared = set().union(*(e.default_params for e in experiments))
    unknown = sorted({key for key, _ in pairs} - declared)
    if unknown:
        parser.error(
            f"--set: no selected experiment declares {', '.join(unknown)}"
        )

    per_experiment = []
    for experiment in experiments:
        defaults = experiment.default_params
        overrides = {}
        for key, text in pairs:
            if key not in defaults:
                continue
            try:
                overrides[key] = _parse_value(text, defaults[key])
            except ValueError as exc:
                parser.error(
                    f"--set {key}={text}: not a valid value for "
                    f"{experiment.name}'s {key} (default {defaults[key]!r}): {exc}"
                )
        if seed is not None:
            overrides["seed"] = seed
        per_experiment.append(overrides)
    return per_experiment


def main(argv: list[str]) -> int:
    """Entry point for ``repro run`` / ``repro figures`` (exit status)."""
    command = argv[0]
    parser = _parser(command)
    args = parser.parse_args(argv[1:])
    names = _select_names(parser, command, getattr(args, "experiments", None))
    experiments = [get_experiment(name) for name in names]
    overrides = _overrides(
        parser, experiments, getattr(args, "set", []), args.seed
    )

    summary = TimingSummary(workers=args.parallel)
    with summary.profiler.phase("plan"):
        plans = []
        for experiment, experiment_overrides in zip(experiments, overrides):
            try:
                params = resolve_params(
                    experiment, experiment_overrides, scale=args.scale
                )
            except ValueError as exc:
                parser.error(str(exc))
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
