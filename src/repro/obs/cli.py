"""``repro trace`` / ``repro obs`` — record and analyze trace timelines.

    python -m repro trace loss_sweep
    python -m repro trace table1 --scale small --out table1.jsonl
    python -m repro trace loss_sweep --layer net --event net.arq_round
    python -m repro obs analyze loss_sweep-trace.jsonl
    python -m repro obs check loss_sweep-trace.jsonl --spec slo.json

``trace`` runs every work unit of the selected experiment **serially** (a
timeline interleaved across worker processes would be meaningless), with
the trace recorder and the metrics registry enabled, writing the
JSON-lines timeline to disk as events are emitted, then prints the
experiment's normal formatted result plus a per-layer event summary.
``--layer``/``--event`` (repeatable) restrict which events are *written*
— filtered events still take their ``seq``, so the filters cannot perturb
anything.  Tracing is result-neutral: the printed result is bit-identical
to an untraced ``repro run`` of the same specs (asserted by
``tests/obs/test_equivalence.py``).

``obs analyze`` folds a recorded timeline into per-frame span groups in
one bounded-memory pass and prints the deadline critical-path blame table
(:mod:`repro.obs.analyze`); ``obs check`` gates a timeline against a
declarative SLO spec (:mod:`repro.obs.slo`), exiting non-zero on
violation.

Each JSONL record carries the sim time ``t``, a global ``seq`` (total
order; sim time restarts at 0 for every private transport clock), the
``layer`` (sim/net/mac/core), the ``event`` name, a ``unit`` context field
naming the work unit, and the event's own fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import metrics
from .trace import streaming_recording

__all__ = ["main", "obs_main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro trace`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run one experiment serially with the structured trace recorder "
            "enabled and write a sim-time-ordered JSONL timeline."
        ),
    )
    parser.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help="a registered experiment name (see `python -m repro run all`)",
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
        "--out",
        default=None,
        metavar="PATH",
        help="trace output path (default: <experiment>-trace.jsonl)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also write the run's metrics snapshot as JSON",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the formatted experiment result (still prints the summary)",
    )
    parser.add_argument(
        "--layer",
        action="append",
        default=None,
        metavar="LAYER",
        help="only write events from this layer (repeatable; e.g. net, mac)",
    )
    parser.add_argument(
        "--event",
        action="append",
        default=None,
        metavar="NAME",
        help="only write events of this type (repeatable; "
             "e.g. net.arq_round)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro trace`` (returns a process exit status)."""
    from ..runner.progress import banner
    from ..runner.registry import get_experiment, resolve_params

    args = build_parser().parse_args(argv)
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as err:
        raise SystemExit(err.args[0]) from None
    overrides = {"seed": args.seed} if args.seed is not None else None
    params = resolve_params(experiment, overrides, scale=args.scale)
    specs = list(experiment.decompose(params))
    out_path = Path(args.out or f"{experiment.name}-trace.jsonl")

    was_enabled = metrics.REGISTRY.enabled
    metrics.reset()
    metrics.enable()
    try:
        with streaming_recording(
            out_path, layers=args.layer, events=args.event
        ) as recorder:
            runs = []
            for spec in specs:
                recorder.clear_context()
                recorder.set_context(unit=spec.key())
                runs.append((spec, experiment.run_one(spec)))
            recorder.clear_context()
        snap = metrics.snapshot()
    finally:
        if not was_enabled:
            metrics.disable()

    merged = experiment.merge(params, runs)
    if not args.quiet:
        title = experiment.title or experiment.name
        print(banner(title))
        print(experiment.format_result(merged))
        print()

    per_layer = ", ".join(
        f"{layer} {count}" for layer, count in recorder.layer_counts().items()
    )
    filtered = (
        f" ({recorder.recorded - len(recorder)} filtered out)"
        if len(recorder) != recorder.recorded
        else ""
    )
    print(
        f"trace: {len(recorder)} event(s) from {len(specs)} unit(s) "
        f"written to {out_path}{filtered}"
    )
    print(f"layers: {per_layer or '(none)'}")
    if args.metrics_out:
        metrics.write_snapshot(args.metrics_out, snap)
        print(f"metrics written to {args.metrics_out}")
    return 0


def build_obs_parser() -> argparse.ArgumentParser:
    """The ``repro obs`` argument parser (analyze / check subcommands)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description=(
            "Analyze recorded trace timelines: deadline critical-path "
            "attribution, SLO gating, run diffs and reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser(
        "analyze",
        help="per-frame latency attribution and blame table",
        description=(
            "Fold a trace into per-frame span groups in one pass and "
            "attribute each frame's end-to-end latency to named layer "
            "segments."
        ),
    )
    analyze_p.add_argument(
        "trace", metavar="TRACE", help="a repro trace JSONL file"
    )
    analyze_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full canonical report as JSON",
    )
    analyze_p.add_argument(
        "--top",
        type=int,
        default=5,
        help="worst frames to list (default: 5)",
    )
    analyze_p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human-readable report (JSON output only)",
    )

    check_p = sub.add_parser(
        "check",
        help="gate a trace against a declarative SLO spec",
        description=(
            "Evaluate every SLO in the spec file against the trace; exit "
            "non-zero when any bound is violated."
        ),
    )
    check_p.add_argument(
        "trace", metavar="TRACE", help="a repro trace JSONL file"
    )
    check_p.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="JSON SLO spec ({'slos': [{'metric': ..., 'max'|'min': ...}]})",
    )
    check_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the per-SLO results as JSON",
    )

    diff_p = sub.add_parser(
        "diff",
        help="regression-diff the artifacts of two runs",
        description=(
            "Compare two runs' canonical observability artifacts (analyze "
            "reports, plus optional metrics / SLO / bench docs) and emit a "
            "canonical repro.obs.diff/1 regression report."
        ),
    )
    diff_p.add_argument(
        "run_a", metavar="ANALYZE_A", help="run A's analyze report JSON"
    )
    diff_p.add_argument(
        "run_b", metavar="ANALYZE_B", help="run B's analyze report JSON"
    )
    for side in ("a", "b"):
        diff_p.add_argument(
            f"--metrics-{side}", default=None, metavar="PATH",
            help=f"run {side.upper()}'s metrics snapshot JSON",
        )
        diff_p.add_argument(
            f"--slo-{side}", default=None, metavar="PATH",
            help=f"run {side.upper()}'s SLO results JSON (repro.obs.slo/1)",
        )
        diff_p.add_argument(
            f"--bench-{side}", default=None, metavar="PATH",
            help=f"run {side.upper()}'s BENCH_<n>.json (repro.bench/1 or /2)",
        )
    diff_p.add_argument(
        "--tolerance", type=float, default=0.0, metavar="FRACTION",
        help="relative slack for continuous regressions (problem "
             "airtime); counts regress on any increase, bench metrics on "
             "the baseline's bounds (default: 0)",
    )
    diff_p.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the canonical diff document as JSON",
    )
    diff_p.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero when the diff lists any regression",
    )
    diff_p.add_argument(
        "--quiet", action="store_true",
        help="suppress the human-readable diff (JSON output only)",
    )

    report_p = sub.add_parser(
        "report",
        help="render a self-contained markdown/HTML run report",
        description=(
            "Render one run's observability artifacts (analyze report, "
            "optional SLO results and BENCH_<n>.json trajectory) as a "
            "self-contained markdown or HTML document."
        ),
    )
    report_p.add_argument(
        "analyze", metavar="ANALYZE", help="the run's analyze report JSON"
    )
    report_p.add_argument(
        "--slo", default=None, metavar="PATH",
        help="the run's SLO results JSON (repro.obs.slo/1)",
    )
    report_p.add_argument(
        "--bench-dir", default=None, metavar="DIR",
        help="directory of BENCH_<n>.json trajectory points to sparkline",
    )
    report_p.add_argument(
        "--title", default="repro run report", help="document title"
    )
    report_p.add_argument(
        "--format", choices=["md", "html"], default="html",
        help="output format (default: html)",
    )
    report_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="output path (default: obs_report.<format>)",
    )
    return parser


def _write_canonical(path_arg: str, doc: dict) -> Path:
    path = Path(path_arg)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return path


def _diff_main(args: argparse.Namespace) -> int:
    from .bench import load_bench
    from .diff import build_diff, format_diff, load_json_artifact

    def _load(path, expect=None, load=None):
        if path is None:
            return None
        try:
            if load is not None:
                return load(path)
            return load_json_artifact(path, expect)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read artifact: {exc}") from None

    try:
        report = build_diff(
            _load(args.run_a, "repro.obs.analyze"),
            _load(args.run_b, "repro.obs.analyze"),
            metrics_a=_load(args.metrics_a),
            metrics_b=_load(args.metrics_b),
            slo_a=_load(args.slo_a, "repro.obs.slo"),
            slo_b=_load(args.slo_b, "repro.obs.slo"),
            bench_a=_load(args.bench_a, load=load_bench),
            bench_b=_load(args.bench_b, load=load_bench),
            tolerance=args.tolerance,
            label_a=args.run_a,
            label_b=args.run_b,
        )
    except ValueError as exc:
        raise SystemExit(f"cannot diff: {exc}") from None
    if not args.quiet:
        print(format_diff(report))
    if args.json:
        print(f"diff written to {_write_canonical(args.json, report)}")
    if args.fail_on_regression and report["regressions"]:
        return 1
    return 0


def _report_main(args: argparse.Namespace) -> int:
    from .diff import load_json_artifact
    from .report import load_bench_trajectory, render_html, render_markdown

    try:
        analyze_doc = load_json_artifact(args.analyze, "repro.obs.analyze")
        slo_doc = (
            load_json_artifact(args.slo, "repro.obs.slo")
            if args.slo else None
        )
        trajectory = (
            load_bench_trajectory(args.bench_dir) if args.bench_dir else ()
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read artifact: {exc}") from None

    render = render_html if args.format == "html" else render_markdown
    text = render(
        analyze_doc, slo=slo_doc, trajectory=trajectory, title=args.title
    )
    out = Path(args.out or f"obs_report.{args.format}")
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"report written to {out}")
    return 0


def obs_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro obs`` (returns a process exit status)."""
    from .analyze import format_report
    from .slo import evaluate_spec, format_results, load_spec, results_jsonable
    from .stream import fold_trace, stream_analyze

    args = build_obs_parser().parse_args(argv)
    if args.command == "diff":
        return _diff_main(args)
    if args.command == "report":
        return _report_main(args)

    if args.command == "analyze":
        try:
            report = stream_analyze(args.trace, top=args.top)
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"cannot read trace {args.trace}: {exc}"
            ) from None
        if not args.quiet:
            print(format_report(report))
        if args.json:
            print(f"report written to {_write_canonical(args.json, report)}")
        return 0

    # args.command == "check"
    try:
        entries = load_spec(args.spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read spec {args.spec}: {exc}") from None
    try:
        acc = fold_trace(args.trace, top=0)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {args.trace}: {exc}") from None
    results = evaluate_spec(entries, acc)
    print(format_results(results))
    if args.json:
        path = Path(args.json)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(results_jsonable(results), sort_keys=True, indent=1)
            + "\n",
            encoding="utf-8",
        )
        print(f"results written to {path}")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
