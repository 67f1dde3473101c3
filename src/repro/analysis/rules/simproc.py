"""Sim-process rules (S3xx).

``repro.sim.Environment`` processes are generators: an
``env.timeout(...)`` or ``env.event()`` whose result is neither yielded,
assigned, nor passed onward schedules a wake-up nobody waits for — the
process falls straight through, silently compressing simulated time.
Blocking ``time.sleep`` stalls the real thread without advancing the
virtual clock at all.
"""

from __future__ import annotations

import ast

from ..visitor import Rule, final_attr

__all__ = ["SIMPROC_RULES"]


def _is_env_receiver(node: ast.expr) -> bool:
    """True for ``env.x`` / ``self.env.x`` / ``self._env.x`` receivers."""
    name = final_attr(node)
    return name is not None and name.lstrip("_") == "env"


def _contains_yield(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``fn`` itself is a generator (nested defs don't count)."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


class DroppedEventRule(Rule):
    """S301: flags sim events created but never yielded/held (dropped)."""

    rule_id = "S301"
    family = "simproc"
    summary = (
        "env.timeout(...) / env.event() results must be yielded or bound; "
        "a discarded event is a silent no-op"
    )

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            if call.func.attr in ("timeout", "event") and _is_env_receiver(
                call.func.value
            ):
                self.report(
                    node,
                    f"result of `.{call.func.attr}(...)` is discarded — the "
                    "process never waits on it; `yield` it (or bind it for "
                    "an any_of/all_of race)",
                )
        self.generic_visit(node)


class BlockingSleepRule(Rule):
    """S302: flags blocking ``time.sleep`` inside simulation library code."""

    rule_id = "S302"
    family = "simproc"
    summary = "no blocking time.sleep in simulation library code"

    def visit_Call(self, node: ast.Call) -> None:
        if self.module.resolve(node.func) == "time.sleep":
            self.report(
                node,
                "time.sleep blocks the real thread without advancing "
                "virtual time; yield env.timeout(...) inside a process",
            )
        self.generic_visit(node)


class YieldBareCallRule(Rule):
    """S303: flags yielding a bare call result that is not an engine event."""

    rule_id = "S303"
    family = "simproc"
    summary = (
        "yielding a generator call inside a process suspends forever; "
        "wrap it in env.process(...)"
    )

    def __init__(self, ctx, module) -> None:
        super().__init__(ctx, module)
        # Names of generator functions defined in this module.
        self._generator_names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _contains_yield(node):
                    self._generator_names.add(node.name)

    def visit_Yield(self, node: ast.Yield) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            name = final_attr(value.func)
            if name in self._generator_names:
                self.report(
                    node,
                    f"`yield {name}(...)` hands the engine a raw generator, "
                    "not an Event; wrap it: `yield env.process("
                    f"{name}(...))`",
                )
        self.generic_visit(node)


SIMPROC_RULES = (DroppedEventRule, BlockingSleepRule, YieldBareCallRule)
