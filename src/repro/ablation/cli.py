"""The ``repro ablation`` CLI verb.

    python -m repro ablation                             # full session study
    python -m repro ablation --components grouping,fec --parallel 2
    python -m repro ablation --pairwise --output report.json
    python -m repro ablation --scenario venue --scale small
    python -m repro ablation --list

Generates the baseline + leave-one-out (+ ``--pairwise``) run matrix for
the selected scenario, executes it through the cached parallel runner,
prints the ranked importance table, and (with ``--output``) writes the
canonical-JSON report — byte-identical across ``--parallel`` settings
and across cache hits and misses.
"""

from __future__ import annotations

import argparse
import sys

from ..runner.cache import ResultCache
from ..runner.progress import ProgressPrinter
from .components import COMPONENTS, get_component
from .engine import AblationStudy, format_report, write_report
from .scenarios import SCENARIOS, get_scenario, scenario_names

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro ablation",
        description=(
            "Declarative component-ablation study: baseline + leave-one-out "
            "run matrix, cached parallel execution, ranked importance report."
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=list(scenario_names()),
        default="session",
        help="where to ablate: the closed-loop session or the small venue",
    )
    parser.add_argument(
        "--components",
        default="all",
        metavar="NAMES",
        help="comma-separated component names, or 'all' (default)",
    )
    parser.add_argument(
        "--pairwise",
        action="store_true",
        help="also run every component pair and report interaction terms",
    )
    parser.add_argument(
        "--scale",
        choices=["default", "small"],
        default="default",
        help="workload scale: full ablation configs or quick small configs",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the study seed"
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the canonical-JSON importance report here",
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
        "--quiet", action="store_true", help="suppress per-unit progress lines"
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list components and scenarios",
    )
    return parser


def _parse_components(raw: str) -> str | tuple[str, ...]:
    if raw.strip() == "all":
        return "all"
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    if not names:
        raise SystemExit("--components must name at least one component")
    return names


def _print_listing() -> None:
    print("components:")
    for name in sorted(COMPONENTS):
        comp = get_component(name)
        scenarios = ", ".join(
            s for s in sorted(SCENARIOS) if name in SCENARIOS[s].component_names()
        )
        print(f"  {name:12s} [{scenarios}] {comp.title}")
    print("scenarios:")
    for name in sorted(SCENARIOS):
        scen = get_scenario(name)
        print(
            f"  {name:12s} experiment={scen.experiment} "
            f"components={','.join(scen.component_names())}"
        )


def main(argv: list[str]) -> int:
    """Entry point for ``repro ablation`` (returns an exit status)."""
    args = _parser().parse_args(argv)
    if args.list:
        _print_listing()
        return 0

    study = AblationStudy()
    try:
        config = study.configure(
            scenario=args.scenario,
            components=_parse_components(args.components),
            pairwise=args.pairwise,
            scale=args.scale,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        # A KeyError's str() is the repr of its message; print the message.
        raise SystemExit(exc.args[0]) from exc

    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    if args.clear_cache and cache is not None:
        cache.clear()

    runs = study.generate_runs(config)
    if not args.quiet:
        units = sum(len(run.specs) for run in runs)
        print(
            f"ablation matrix: {len(runs)} variants "
            f"({units} work units) in scenario {config.scenario!r}"
        )
    result = study.execute(
        config,
        runs,
        workers=args.parallel,
        cache=cache,
        progress=ProgressPrinter(quiet=args.quiet),
    )
    report = study.build_report(result)

    print(format_report(report))
    if not args.quiet:
        print(
            f"{result.cached_units}/{result.total_units} work units "
            "served from cache"
        )
    if args.output:
        write_report(report, args.output)
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
