"""The rule base class and AST name helpers shared by every rule family.

Each :class:`Rule` runs once per module of the project model: it sees the
module's :class:`~repro.analysis.project.model.ModuleInfo` (tree, import
aliases, ``# repro: noqa`` map) and the whole-program
:class:`~repro.analysis.project.context.ProjectContext` (call graph and
reachability), and emits findings through the context's one sink.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, ClassVar, Iterable

if TYPE_CHECKING:
    from .project.context import ProjectContext
    from .project.model import ModuleInfo

__all__ = ["Rule", "collect_noqa", "dotted_name", "final_attr"]

# ``# repro: noqa`` suppresses every rule on the line; ``# repro: noqa[D101]``
# (comma-separated ids allowed) suppresses just those rules.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")


def collect_noqa(lines: Iterable[str]) -> dict[int, frozenset[str] | None]:
    """Map 1-based line numbers to suppressed rule ids (None = all rules)."""
    noqa: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        ids = match.group(1)
        if ids is None:
            noqa[lineno] = None
        else:
            noqa[lineno] = frozenset(
                part.strip().upper() for part in ids.split(",") if part.strip()
            )
    return noqa


def dotted_name(node: ast.expr) -> str | None:
    """The source-level dotted path of a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def final_attr(node: ast.expr) -> str | None:
    """The last segment of a Name/Attribute/Call name (``a.b.c()`` -> c)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class Rule(ast.NodeVisitor):
    """One lint rule: identity metadata plus a check over one module.

    Subclasses set ``rule_id`` (family letter + number), ``family``,
    ``severity`` and ``summary``, then either implement ``visit_*``
    methods (the default :meth:`run` walks the module tree) or override
    :meth:`run`, calling :meth:`report` for each violation.  A fresh
    instance runs per module, so per-module state can live on ``self``.
    """

    rule_id: ClassVar[str] = "X000"
    family: ClassVar[str] = "misc"
    summary: ClassVar[str] = ""
    severity: ClassVar[str] = "warning"

    def __init__(self, ctx: ProjectContext, module: ModuleInfo) -> None:
        self.ctx = ctx
        self.module = module

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.add(self.module, node, self.rule_id, message, self.severity)

    def run(self) -> None:
        self.visit(self.module.tree)
