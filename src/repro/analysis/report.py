"""One lint pass: build the project model, run every rule, report.

:func:`analyze` parses each module once into the project model, resolves
the call graph and the reachability closures, runs every registered rule
(per-module conventions and reachability-based invariants alike) over
every module, and returns a :class:`Report` whose JSON form is
**byte-identical** across repeated runs and across file discovery orders:
every collection is sorted and nothing reads a clock, the environment, or
unsorted hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .findings import Finding
from .project.context import ProjectContext
from .project.model import ProjectModel, build_project
from .rules import ALL_RULES
from .sarif import rule_metadata
from .visitor import Rule

__all__ = ["Report", "analyze", "analyze_source"]


@dataclass
class Report:
    """Everything one lint pass produced."""

    findings: list[Finding] = field(default_factory=list)
    modules: int = 0
    entry_points: list[dict[str, str]] = field(default_factory=list)
    certified: list[dict[str, str]] = field(default_factory=list)

    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    def project(self) -> dict[str, Any]:
        """The whole-program section of the JSON and SARIF documents."""
        return {
            "modules": self.modules,
            "entry_points": self.entry_points,
            "certified": self.certified,
        }

    def to_jsonable(self) -> dict[str, Any]:
        """The canonical JSON document (``repro lint --format json``)."""
        return {
            "version": 1,
            "tool": "repro-lint",
            "rules": rule_metadata(),
            "project": self.project(),
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule,
                    "severity": f.severity,
                    "suppressed": f.suppressed,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }


def _run(model: ProjectModel, rules: Sequence[type[Rule]] | None) -> Report:
    ctx = ProjectContext.build(model)
    for module in model.sorted_modules():
        for rule_cls in ALL_RULES if rules is None else rules:
            rule_cls(ctx, module).run()
    certified = sorted({tuple(sorted(item.items())) for item in ctx.certified})
    return Report(
        findings=sorted([*ctx.findings, *model.errors.values()]),
        modules=len(model.modules),
        entry_points=[
            {"qualname": e.qualname, "kind": e.kind, "via": e.via}
            for e in ctx.entry_points
        ],
        certified=[dict(item) for item in certified],
    )


def analyze(
    paths: Iterable[Path | str], rules: Sequence[type[Rule]] | None = None
) -> Report:
    """Lint files, package directories and plain directories in one pass
    with the full (or given) rule set."""
    return _run(build_project(paths), rules)


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[type[Rule]] | None = None,
) -> list[Finding]:
    """Findings for one in-memory module (a one-module project)."""
    model = ProjectModel()
    model.add_source(Path(path).stem, path, source)
    return _run(model, rules).findings
