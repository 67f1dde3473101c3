"""Finding records produced by the lint rules."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Orders by (path, line, col, rule) so reports and baselines are stable
    across runs regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    suppressed: bool = field(default=False, compare=False)
    # The rule's declared severity ("error" for E000/E001 parse failures);
    # carried into the JSON/SARIF serializations.
    severity: str = field(default="warning", compare=False)

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"

    def key(self) -> tuple[str, str, int]:
        """Identity used by baselines: where and what, ignoring the column."""
        return (self.path, self.rule, self.line)

    def as_suppressed(self) -> "Finding":
        return replace(self, suppressed=True)
