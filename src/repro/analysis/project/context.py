"""The state every rule runs against, and the one findings sink."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..findings import Finding
from .callgraph import build_call_graph
from .entrypoints import EntryPoint, find_entry_points
from .model import ModuleInfo, ProjectModel

__all__ = ["ProjectContext", "format_chain"]


def format_chain(chain: tuple[str, ...]) -> str:
    """Render a reachability chain for a finding message."""
    return " -> ".join(chain)


@dataclass
class ProjectContext:
    """Model + reachability closures over its call graph + findings sink."""

    model: ProjectModel
    entry_points: list[EntryPoint]
    # qualname -> shortest chain from an entry of the given closure
    worker_chains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    cache_chains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    import_chains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)
    # Import-time-only mutators the shared-state rules certified as safe.
    certified: list[dict] = field(default_factory=list)
    _seen: set[tuple[str, int, int, str]] = field(default_factory=set)

    @classmethod
    def build(cls, model: ProjectModel) -> ProjectContext:
        """Resolve the call graph, the entry points and their closures:
        every entry point (worker), the spec-keyed cache boundary
        (``run_one`` and shard engines), and module scope (import time)."""
        graph = build_call_graph(model)
        entries = find_entry_points(model)
        return cls(
            model=model,
            entry_points=entries,
            worker_chains=graph.reachable([e.qualname for e in entries]),
            cache_chains=graph.reachable(
                [e.qualname for e in entries if e.kind in ("run_one", "shard")]
            ),
            import_chains=graph.reachable(
                [module.scope_node for module in model.sorted_modules()]
            ),
        )

    def add(
        self,
        module: ModuleInfo,
        node: ast.AST,
        rule_id: str,
        message: str,
        severity: str,
    ) -> None:
        """Record one finding, applying ``# repro: noqa`` and keeping only
        the first finding per (path, line, col, rule)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        key = (module.relpath, line, col, rule_id)
        if key in self._seen:
            return
        self._seen.add(key)
        ids = module.noqa.get(line, frozenset())
        self.findings.append(
            Finding(
                path=module.relpath,
                line=line,
                col=col,
                rule=rule_id,
                message=message,
                suppressed=ids is None or rule_id.upper() in ids,
                severity=severity,
            )
        )
