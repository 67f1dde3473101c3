"""G6xx — shared-state safety rules.

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

from ..visitor import dotted_name
from .context import ProjectContext, format_chain
from .model import GlobalInfo, ModuleInfo, ProjectModel

__all__ = ["run_state_rules"]

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
    model: ProjectModel, module: ModuleInfo, body: list[ast.stmt]
) -> list[tuple[ast.AST, GlobalInfo, str]]:
    """(site, global, how) for every container mutation in ``body``."""
    out: list[tuple[ast.AST, GlobalInfo, str]] = []
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    info = _container_global(model, module, target.value)
                    if info is not None:
                        out.append((node, info, "subscript store"))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    info = _container_global(model, module, target.value)
                    if info is not None:
                        out.append((node, info, "subscript delete"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                info = _container_global(model, module, node.func.value)
                if info is not None:
                    out.append((node, info, f".{node.func.attr}() call"))
    return out


def run_state_rules(ctx: ProjectContext) -> None:
    """Emit G601/G602 findings and import-time certifications into ``ctx``."""
    model = ctx.model
    for module in model.sorted_modules():
        for key in sorted(module.functions):
            func = module.functions[key]
            sites = _mutations(model, module, func.node.body)
            # Strip sites that belong to nested defs: they are separate
            # call-graph nodes and are visited under their own qualname.
            own_sites = [
                s for s in sites
                if _owns_site(module, func.qualname, s[0])
            ]
            if not own_sites:
                _check_global_rebind(ctx, module, func)
                continue
            chain = ctx.worker_chains.get(func.qualname)
            if chain is None:
                if ctx.import_reachable(func.qualname):
                    for _site, info, how in own_sites:
                        ctx.certified.append(
                            {
                                "function": func.qualname,
                                "global": info.qualname,
                                "how": how,
                                "why": "reachable from module scope only "
                                "(import-time registration)",
                            }
                        )
                _check_global_rebind(ctx, module, func)
                continue
            for site, info, how in own_sites:
                ctx.add(
                    module,
                    site,
                    "G601",
                    f"worker-reachable code mutates module-level container "
                    f"`{info.qualname}` ({how}) — reachable via "
                    f"{format_chain(chain)}; post-import mutation diverges "
                    "silently across processes (each worker owns a copy); "
                    "register at import time or pass state explicitly",
                )
            _check_global_rebind(ctx, module, func)


def _owns_site(module: ModuleInfo, qualname: str, site: ast.AST) -> bool:
    """True if ``site`` is lexically in ``qualname``'s own body (not a
    nested def's)."""
    line = getattr(site, "lineno", None)
    if line is None:
        return True
    best: str | None = None
    best_span = None
    for info in module.functions.values():
        node = info.node
        end = getattr(node, "end_lineno", None)
        if end is None:
            continue
        if node.lineno <= line <= end:
            span = end - node.lineno
            if best_span is None or span < best_span:
                best, best_span = info.qualname, span
    return best is None or best == qualname


def _check_global_rebind(
    ctx: ProjectContext, module: ModuleInfo, func
) -> None:
    chain = ctx.worker_chains.get(func.qualname)
    if chain is None:
        return
    declared: set[str] = set()
    for node in ast.walk(func.node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return
    for node in ast.walk(func.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    if not _owns_site(module, func.qualname, node):
                        continue
                    ctx.add(
                        module,
                        node,
                        "G602",
                        f"worker-reachable `{func.qualname}` rebinds module "
                        f"global `{module.name}.{target.id}` — reachable "
                        f"via {format_chain(chain)}; the new binding exists "
                        "only in whichever process ran it",
                    )
