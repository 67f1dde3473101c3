"""CLI for the analyzer: ``python -m repro.analysis`` / ``repro lint``.

One pass over the given files and directories runs every rule family:
the per-module conventions (D1xx/U2xx/S3xx/H4xx/H5xx) and the
whole-program invariants over the call graph (R5xx/G6xx/P7xx).

Exit status is 0 when no unsuppressed finding remains, 1 otherwise, 2 for
usage errors (an unknown ``--select`` entry, a path that does not exist
or holds no ``.py`` file, a malformed baseline) — so the CI lint job
fails a PR that introduces a violation.  ``--format json|sarif`` prints a
machine-readable document instead of the text listing (or writes it to
``--output`` and prints the summary).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import apply_baseline, load_baseline, write_baseline
from .project.model import iter_python_files
from .report import analyze
from .rules import ALL_RULES, rules_by_family
from .sarif import render


def _default_target() -> Path:
    """Lint the installed ``repro`` package when no path is given."""
    return Path(__file__).resolve().parents[1]


def _list_rules() -> str:
    lines = []
    for family, rules in sorted(rules_by_family().items()):
        lines.append(f"{family}:")
        for rule in rules:
            lines.append(f"  {rule.rule_id}  {rule.summary}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Repo-specific static analysis in one pass: determinism, "
            "unit-suffix, sim-process and API-hygiene lints plus "
            "whole-program RNG-provenance, shared-state and cache-purity "
            "analysis."
        ),
        epilog="Suppress a finding in place with `# repro: noqa[RULE]`.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        metavar="FILE",
        help="write the json/sarif document to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids or family names to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        metavar="FILE",
        help="JSON baseline: findings listed there are suppressed",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        metavar="FILE",
        help="write current unsuppressed findings to FILE and exit 0",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print noqa'd/baselined findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and summary, then exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print only the summary line"
    )
    return parser


def _usage_error(parser: argparse.ArgumentParser, message: str):
    """Exit 2 with a one-line error on stderr."""
    parser.exit(2, f"{parser.prog}: error: {message}\n")


def _select_rules(parser: argparse.ArgumentParser, spec: str | None):
    if spec is None:
        return None
    wanted = {part.strip().lower() for part in spec.split(",") if part.strip()}
    unknown = wanted - {r.rule_id.lower() for r in ALL_RULES} - set(
        rules_by_family()
    )
    if unknown:
        _usage_error(
            parser,
            f"unknown rule/family in --select: {', '.join(sorted(unknown))}",
        )
    return [
        rule
        for rule in ALL_RULES
        if rule.rule_id.lower() in wanted or rule.family in wanted
    ]


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro lint`` (returns a process exit status)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rules = _select_rules(parser, args.select)
    paths = args.paths or [_default_target()]
    for path in paths:
        if not path.exists():
            _usage_error(parser, f"{path}: no such file or directory")
        if not iter_python_files([path]):
            _usage_error(parser, f"{path}: no Python files to lint")
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as err:
            _usage_error(parser, str(err))

    report = analyze(paths, rules)
    if baseline is not None:
        report.findings = apply_baseline(report.findings, baseline)
    findings = report.findings

    if args.write_baseline is not None:
        count = write_baseline(args.write_baseline, findings)
        print(f"wrote {count} finding(s) to {args.write_baseline}")
        return 0

    active = report.active()
    suppressed = len(findings) - len(active)
    summary = f"{len(active)} finding(s)"
    if suppressed:
        summary += f", {suppressed} suppressed"

    if args.fmt != "text":
        text = render(args.fmt, report)
        if args.output is None:
            sys.stdout.write(text)
        else:
            args.output.write_text(text, encoding="utf-8")
            print(f"{summary}; wrote {args.fmt} report to {args.output}")
        return 1 if active else 0

    if not args.quiet:
        for finding in findings if args.show_suppressed else active:
            print(finding.format())
    print(summary)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
