"""Shared-state safety rules (G6xx).

Module-level mutable containers (``runner/registry.py:_REGISTRY``,
``obs/trace.py:EVENT_TYPES``, …) are how the repo registers experiments,
trace event types, and metrics.  Mutating one **at import time** is safe: imports
are once-per-process and idempotent, so every worker rebuilds the same
table from the same module body.  Mutating one from *worker-reachable*
code after import is a silent cross-process divergence hazard — the
parent's copy and each worker's copy drift independently, and nothing
merges them back.

- **G601** — worker-reachable mutation of a module-level mutable
  container (subscript store/delete or a mutating method call), resolved
  across modules through import aliases;
- **G602** — worker-reachable ``global`` rebinding of a module-level
  name (the rebound value exists only in whichever process ran it).

Functions that mutate module containers but are reachable *only* from
module scope are certified import-time-safe and listed in the report's
``certified`` section instead of being flagged.
"""

from __future__ import annotations

import ast

from ..project.context import format_chain
from ..project.model import FunctionInfo, GlobalInfo, ModuleInfo, ProjectModel
from ..visitor import Rule, dotted_name

__all__ = ["STATE_RULES"]

# Methods that mutate the builtin containers in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "pop",
        "popleft",
        "popitem",
        "setdefault",
        "clear",
        "extend",
        "extendleft",
        "insert",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)


def _container_global(
    model: ProjectModel, module: ModuleInfo, expr: ast.expr
) -> GlobalInfo | None:
    """Resolve an expression to a module-level *container* global."""
    dotted = dotted_name(expr)
    if dotted is None:
        return None
    symbol = model.resolve(module, dotted)
    if symbol is None or symbol.kind != "global":
        return None
    info = model.global_by_qualname(symbol.qualname)
    if info is not None and info.kind == "container":
        return info
    return None


def _mutations(
    model: ProjectModel, module: ModuleInfo, func: FunctionInfo
) -> list[tuple[ast.AST, GlobalInfo, str]]:
    """(site, global, how) for every container mutation in ``func``'s own
    body (nested defs are separate call-graph nodes, checked on their own)."""
    out: list[tuple[ast.AST, GlobalInfo, str]] = []
    for node in func.own_nodes():
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            if isinstance(node, ast.AugAssign):
                targets, how = [node.target], "subscript store"
            elif isinstance(node, ast.Assign):
                targets, how = node.targets, "subscript store"
            else:
                targets, how = node.targets, "subscript delete"
            for target in targets:
                if isinstance(target, ast.Subscript):
                    info = _container_global(model, module, target.value)
                    if info is not None:
                        out.append((node, info, how))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                info = _container_global(model, module, node.func.value)
                if info is not None:
                    out.append((node, info, f".{node.func.attr}() call"))
    return out


class ContainerMutationRule(Rule):
    """G601: flags worker-reachable mutation of module-level containers."""

    rule_id = "G601"
    family = "shared-state"
    severity = "error"
    summary = (
        "no worker-reachable mutation of module-level mutable containers "
        "(import-time registration is certified safe)"
    )

    def run(self) -> None:
        ctx, module = self.ctx, self.module
        for key in sorted(module.functions):
            func = module.functions[key]
            sites = _mutations(ctx.model, module, func)
            chain = ctx.worker_chains.get(func.qualname)
            for site, info, how in sites:
                if chain is not None:
                    self.report(
                        site,
                        f"worker-reachable code mutates module-level "
                        f"container `{info.qualname}` ({how}) — reachable "
                        f"via {format_chain(chain)}; post-import mutation "
                        "diverges silently across processes (each worker "
                        "owns a copy); register at import time or pass "
                        "state explicitly",
                    )
                elif func.qualname in ctx.import_chains:
                    ctx.certified.append(
                        {
                            "function": func.qualname,
                            "global": info.qualname,
                            "how": how,
                            "why": "reachable from module scope only "
                            "(import-time registration)",
                        }
                    )


class GlobalRebindRule(Rule):
    """G602: flags worker-reachable ``global`` rebinding."""

    rule_id = "G602"
    family = "shared-state"
    severity = "error"
    summary = "no worker-reachable `global` rebinding of module-level names"

    def run(self) -> None:
        module = self.module
        for key in sorted(module.functions):
            func = module.functions[key]
            chain = self.ctx.worker_chains.get(func.qualname)
            if chain is None:
                continue
            for stmt, name in func.global_rebinds():
                self.report(
                    stmt,
                    f"worker-reachable `{func.qualname}` rebinds module "
                    f"global `{module.name}.{name}` — reachable via "
                    f"{format_chain(chain)}; the new binding exists only "
                    "in whichever process ran it",
                )


STATE_RULES = (ContainerMutationRule, GlobalRebindRule)
