"""Machine-readable lint output: SARIF 2.1.0 and the JSON rendering.

Both documents are deterministic — findings arrive sorted, rule metadata
is sorted by id, and paths are repo-relative POSIX — so the rendered
documents are **byte-identical** across runs and across file discovery
orders.  The SARIF form is what CI uploads as an artifact (and what
code-scanning UIs ingest); the JSON form
(:meth:`repro.analysis.report.Report.to_jsonable`) is the stable
integration surface for scripts.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .rules import ALL_RULES

if TYPE_CHECKING:
    from .report import Report

__all__ = ["rule_metadata", "to_sarif", "render"]

_TOOL_NAME = "repro-lint"
_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_SARIF_VERSION = "2.1.0"


def rule_metadata() -> list[dict[str, str]]:
    """Identity metadata for every registered rule, sorted by id."""
    return [
        {
            "id": rule.rule_id,
            "family": rule.family,
            "severity": rule.severity,
            "summary": rule.summary,
        }
        for rule in sorted(ALL_RULES, key=lambda r: r.rule_id)
    ]


def _level(severity: str) -> str:
    return severity if severity in ("error", "warning") else "note"


def to_sarif(report: Report) -> dict[str, Any]:
    """A single-run SARIF 2.1.0 log for one lint pass."""
    results = []
    for f in report.findings:
        result: dict[str, Any] = {
            "ruleId": f.rule,
            "level": _level(f.severity),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    }
                }
            ],
        }
        if f.suppressed:
            result["suppressions"] = [{"kind": "inSource"}]
        results.append(result)

    run: dict[str, Any] = {
        "tool": {
            "driver": {
                "name": _TOOL_NAME,
                "informationUri": "https://example.invalid/repro-lint",
                "rules": [
                    {
                        "id": meta["id"],
                        "shortDescription": {"text": meta["summary"]},
                        "defaultConfiguration": {
                            "level": _level(meta["severity"])
                        },
                        "properties": {"family": meta["family"]},
                    }
                    for meta in rule_metadata()
                ],
            }
        },
        "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
        "columnKind": "utf16CodeUnits",
        "results": results,
        "properties": {"project": report.project()},
    }
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [run],
    }


def render(fmt: str, report: Report) -> str:
    """Serialize a report as ``json`` or ``sarif`` text (trailing newline)."""
    if fmt == "json":
        doc = report.to_jsonable()
    elif fmt == "sarif":
        doc = to_sarif(report)
    else:
        raise ValueError(f"unknown machine format: {fmt!r}")
    return json.dumps(doc, indent=2) + "\n"
