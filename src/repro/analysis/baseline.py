"""Baseline files: accept today's findings, fail only on new ones.

A baseline is a JSON list of ``{"path", "rule", "line"}`` records.  It lets
the lint gate land before every legacy violation is fixed: known findings
are demoted to suppressed, anything new still fails.  The repo's goal state
is an *empty* baseline — the tree itself lints clean.

Paths are normalized to **repo-relative POSIX** form on both write and
load, so a baseline written from the repo root still matches findings
produced from a subdirectory, an absolute invocation, or Windows
separators — and the file itself is byte-stable across machines.
"""

from __future__ import annotations

import json
from pathlib import Path, PurePosixPath, PureWindowsPath
from typing import Iterable

from .findings import Finding
from .paths import repo_relative

__all__ = ["load_baseline", "write_baseline", "apply_baseline"]


def _norm_path(path: str) -> str:
    """Canonical repo-relative POSIX form of a finding/baseline path."""
    # Normalize separators first so a Windows-written baseline loads
    # anywhere, then strip the repo prefix from absolute/cwd-relative
    # paths.  Already-relative POSIX paths that exist under the repo root
    # pass through unchanged.
    text = str(PureWindowsPath(path).as_posix()) if "\\" in path else path
    pure = PurePosixPath(text)
    if not pure.is_absolute() and not Path(text).exists():
        # A repo-relative record loaded from elsewhere: keep verbatim.
        return str(pure)
    return repo_relative(text)


def _norm_key(key: tuple[str, str, int]) -> tuple[str, str, int]:
    path, rule, line = key
    return (_norm_path(path), rule, line)


def load_baseline(path: Path | str) -> set[tuple[str, str, int]]:
    """Read baseline keys; a missing file is an empty baseline.

    Raises ``ValueError`` naming the file (and the record index) when the
    file is not a JSON list of ``{"path", "rule", "line"}`` records.
    """
    path = Path(path)
    if not path.exists():
        return set()
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as err:
        raise ValueError(f"baseline {path}: not valid JSON ({err})") from None
    if not isinstance(records, list):
        raise ValueError(f"baseline {path} must be a JSON list")
    keys: set[tuple[str, str, int]] = set()
    for index, record in enumerate(records):
        try:
            key = (str(record["path"]), str(record["rule"]), int(record["line"]))
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(
                f"baseline {path}: record {index} is not a "
                f"{{path, rule, line}} object ({type(err).__name__}: {err})"
            ) from None
        keys.add(_norm_key(key))
    return keys


def write_baseline(path: Path | str, findings: Iterable[Finding]) -> int:
    """Persist the unsuppressed findings as the new baseline; returns count."""
    records = sorted(
        {
            (_norm_path(f.path), f.rule, f.line)
            for f in findings
            if not f.suppressed
        }
    )
    Path(path).write_text(
        json.dumps(
            [
                {"path": rec_path, "rule": rule, "line": line}
                for rec_path, rule, line in records
            ],
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return len(records)


def apply_baseline(
    findings: Iterable[Finding], baseline: set[tuple[str, str, int]]
) -> list[Finding]:
    """Mark findings present in the baseline as suppressed."""
    return [
        f.as_suppressed() if _norm_key(f.key()) in baseline else f
        for f in findings
    ]
