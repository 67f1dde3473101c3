"""Structural discovery of the project's concurrency entry points.

An *entry point* is a function whose body executes in a context where
hidden shared state or ambient reads break the repo's guarantees:

- ``worker`` — functions handed to a multiprocessing pool / executor
  (``pool.imap_unordered(fn, ...)``, ``executor.submit(fn, ...)``),
  directly or wrapped in ``functools.partial``;
- ``run_one`` — functions registered as an experiment's ``run_one=``
  (their return value is keyed by spec sha256 in the result cache, so
  their whole call tree must be a pure function of the spec);
- ``shard`` — the scenario shard engines, named explicitly because they
  are invoked through the run_one fan-out but are entry points in their
  own right (``repro lint`` must keep guarding them even if an
  experiment stops calling them).

Detection is structural (call shapes), not name-based, so the fixture
packages in the test suite — and future subsystems like a live
conferencing worker — are discovered without configuration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..visitor import dotted_name
from .model import ModuleInfo, ProjectModel

__all__ = ["EntryPoint", "find_entry_points", "KNOWN_SHARD_ENTRY_POINTS"]

# Pool / executor methods whose first argument runs in another process.
_POOL_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "apply",
        "apply_async",
        "starmap",
        "starmap_async",
        "submit",
    }
)

# Repo-specific shard engines (kept as explicit entries even though the
# venue experiment reaches them through run_one); silently skipped when
# the scanned tree does not define them (fixture packages).
KNOWN_SHARD_ENTRY_POINTS = (
    "repro.scenario.shard.ShardEngine.run",
    "repro.scenario.shard.run_shard",
)


@dataclass(frozen=True, order=True)
class EntryPoint:
    """One discovered entry point: where reachability starts."""

    qualname: str
    kind: str  # "worker" | "run_one" | "shard"
    via: str  # the site that marked it (for the report's meta section)


def _partial_target(node: ast.expr) -> ast.expr | None:
    """``functools.partial(f, ...)`` -> the wrapped function expression."""
    if (
        isinstance(node, ast.Call)
        and node.args
        and dotted_name(node.func) in ("functools.partial", "partial")
    ):
        return node.args[0]
    return None


class _EntryScanner(ast.NodeVisitor):
    """Finds pool submissions and Experiment(run_one=...) registrations."""

    def __init__(self, model: ProjectModel, module: ModuleInfo) -> None:
        self.model = model
        self.module = module
        self.found: list[EntryPoint] = []
        # Local partial wrappers: name -> wrapped function expression, so
        # ``worker = partial(f, ...); pool.imap(worker, ...)`` resolves.
        self.partials: dict[str, ast.expr] = {}

    def _resolve_function(self, expr: ast.expr) -> str | None:
        target = _partial_target(expr)
        if target is not None:
            expr = target
        if isinstance(expr, ast.Name) and expr.id in self.partials:
            expr = self.partials[expr.id]
            inner = _partial_target(expr)
            if inner is not None:
                expr = inner
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        resolved = self.model.resolve(self.module, dotted)
        if resolved is not None and resolved.kind == "function":
            return resolved.qualname
        # A bare name may be a function nested in the current scope; fall
        # back to any project function with a matching suffix inside this
        # module (nested defs are module.func.<locals>.name).
        if isinstance(expr, ast.Name):
            suffix = f".<locals>.{expr.id}"
            matches = sorted(
                info.qualname
                for info in self.module.functions.values()
                if info.qualname.endswith(suffix)
            )
            if len(matches) == 1:
                return matches[0]
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if _partial_target(node.value) is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.partials[target.id] = node.value
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # pool.imap_unordered(fn, ...) and friends.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_METHODS
            and node.args
        ):
            qualname = self._resolve_function(node.args[0])
            if qualname is not None:
                self.found.append(
                    EntryPoint(
                        qualname=qualname,
                        kind="worker",
                        via=f"{self.module.name}:{node.lineno}",
                    )
                )
        # Experiment(..., run_one=fn, ...): the spec-keyed cache boundary.
        callee = dotted_name(func)
        if callee is not None and callee.split(".")[-1] == "Experiment":
            for kw in node.keywords:
                if kw.arg == "run_one":
                    qualname = self._resolve_function(kw.value)
                    if qualname is not None:
                        self.found.append(
                            EntryPoint(
                                qualname=qualname,
                                kind="run_one",
                                via=f"{self.module.name}:{node.lineno}",
                            )
                        )
        self.generic_visit(node)


def find_entry_points(model: ProjectModel) -> list[EntryPoint]:
    """Every entry point in the model, sorted for deterministic reports."""
    found: list[EntryPoint] = []
    for module in model.sorted_modules():
        scanner = _EntryScanner(model, module)
        scanner.visit(module.tree)
        found.extend(scanner.found)
    for qualname in KNOWN_SHARD_ENTRY_POINTS:
        if model.function_by_qualname(qualname) is not None:
            found.append(
                EntryPoint(qualname=qualname, kind="shard", via="builtin")
            )
    return sorted(set(found))
