"""Per-run progress lines and the end-of-run timing summary.

The CLI surfaces one line per completed work unit (spec key, elapsed time,
cache status) and closes with a per-experiment timing table; ``--timings``
additionally writes the summary as JSON so CI can archive it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

from ..obs.profile import PhaseProfiler
from .executor import RunReport

__all__ = ["ProgressPrinter", "TimingSummary", "banner"]


def banner(title: str) -> str:
    """The ``===== title =====`` line that opens each printed result block."""
    return f"\n===== {title} " + "=" * max(0, 60 - len(title))


class ProgressPrinter:
    """Callable progress hook: ``[ 3/13] table1[...]@7  0.42s``."""

    def __init__(self, stream: TextIO | None = None, quiet: bool = False) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.quiet = quiet

    def __call__(self, report: RunReport, completed: int, total: int) -> None:
        if self.quiet:
            return
        width = len(str(total))
        status = "cached" if report.cached else f"{report.elapsed_s:.2f}s"
        print(
            f"[{completed:{width}d}/{total}] {report.spec.key()}  {status}",
            file=self.stream,
            flush=True,
        )


@dataclass
class TimingSummary:
    """Wall/CPU accounting across every work unit of a runner invocation."""

    workers: int = 1
    started_at: float = field(default_factory=time.perf_counter)
    reports: list[RunReport] = field(default_factory=list)
    wall_s: float = 0.0
    # Where the non-compute wall time goes: plan / execute / merge phases,
    # accumulated by the CLI via ``profiler.phase(...)``.
    profiler: PhaseProfiler = field(default_factory=PhaseProfiler)

    def add(self, reports: list[RunReport]) -> None:
        self.reports.extend(reports)

    def finish(self) -> None:
        self.wall_s = time.perf_counter() - self.started_at

    def by_experiment(self) -> dict[str, dict[str, Any]]:
        rows: dict[str, dict[str, Any]] = {}
        for report in self.reports:
            row = rows.setdefault(
                report.spec.experiment,
                {"runs": 0, "cached": 0, "compute_s": 0.0},
            )
            row["runs"] += 1
            row["cached"] += int(report.cached)
            row["compute_s"] += report.elapsed_s
        return rows

    @property
    def compute_s(self) -> float:
        """Summed per-unit compute time (= serial cost of the cache misses)."""
        return sum(r.elapsed_s for r in self.reports)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of work units served from the result cache (0.0-1.0)."""
        if not self.reports:
            return 0.0
        return sum(1 for r in self.reports if r.cached) / len(self.reports)

    def format(self) -> str:
        from ..experiments.common import format_table

        rows = [
            [name, row["runs"], row["cached"], round(row["compute_s"], 2)]
            for name, row in self.by_experiment().items()
        ]
        table = format_table(["Experiment", "runs", "cached", "compute(s)"], rows)
        lines = (
            f"{table}\n"
            f"total: {len(self.reports)} run(s), "
            f"compute {self.compute_s:.2f}s, wall {self.wall_s:.2f}s "
            f"({self.workers} worker(s))"
        )
        if self.profiler.names():
            lines += f"\n{self.profiler.format()}"
        return lines

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "wall_s": round(self.wall_s, 6),
            "compute_s": round(self.compute_s, 6),
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "phases": self.profiler.to_jsonable(),
            "experiments": self.by_experiment(),
            "runs": [
                {
                    "spec": r.spec.to_jsonable(),
                    "elapsed_s": round(r.elapsed_s, 6),
                    "cached": r.cached,
                }
                for r in self.reports
            ],
        }

    def write_json(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_jsonable(), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        return path
