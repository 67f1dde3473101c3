"""RNG-provenance rules (R5xx).

Every random stream in the repo must descend from an explicit seed carried
by a spec, parameter, or venue/config attribute.  These rules catch the
three ways that contract breaks, within a module and across module
boundaries:

- **R501** — an RNG constructor without a seed (``default_rng()``,
  ``RandomState()``, ``Random()``, ``SeedSequence()`` all draw OS
  entropy) or seeded from *ambient* state: an entropy / clock / process
  read in the seed expression, or a mutable module global;
- **R502** — sampling a process-global stream (``np.random.rand`` /
  ``random.random``).  The hidden stream is shared state in any process;
  in *worker-reachable* code each worker owns an independent copy, so
  serial-vs-sharded replay silently diverges, and the finding quotes the
  shortest chain from the worker entry point;
- **R503** — an RNG object escaping into a module-level global (bound at
  module scope or written through ``global``), i.e. one hidden stream
  shared by every caller in the process but duplicated across workers.
"""

from __future__ import annotations

import ast

from ..project.context import format_chain
from ..project.model import RNG_CONSTRUCTORS
from ..visitor import Rule

__all__ = ["RNG_RULES"]

# Seed expressions must not read these: different value per run/process.
# (A seed drawn from the hidden ``random.*`` stream is R502's finding.)
_AMBIENT_CALL_PREFIXES = (
    "time.",
    "os.",
    "datetime.",
    "secrets.",
    "uuid.",
    "socket.",
    "platform.",
)

# numpy.random attributes that are *not* global-stream sampling:
# constructing explicit generators/seeds is how deterministic streams are
# made.
_NP_RANDOM_OK = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    }
)

# Constructors whose zero-argument form seeds itself from OS entropy.
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "random.Random",
    }
)


class AmbientSeedRule(Rule):
    """R501: flags RNG constructors without a seed or with an ambient one."""

    rule_id = "R501"
    family = "rng-provenance"
    severity = "error"
    summary = (
        "RNG constructors must receive an explicit seed derived from a "
        "spec/seed parameter, never ambient state (clocks, entropy, "
        "mutable module globals)"
    )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.module.resolve(node.func)
        if resolved in RNG_CONSTRUCTORS:
            exprs = [*node.args, *(kw.value for kw in node.keywords)]
            if not exprs and resolved in _SEEDED_CONSTRUCTORS:
                self.report(
                    node,
                    f"`{resolved}()` without a seed draws OS entropy; pass "
                    "an explicit seed derived from the spec/venue seed so "
                    "runs reproduce",
                )
            for expr in exprs:
                hit = self._ambient_source(expr)
                if hit is not None:
                    where, what = hit
                    self.report(
                        where,
                        f"`{resolved}` is seeded from ambient state ({what}); "
                        "RNG streams must derive from an explicit spec/seed "
                        "parameter so every worker reproduces them",
                    )
                    break
        self.generic_visit(node)

    def _ambient_source(self, expr: ast.expr) -> tuple[ast.AST, str] | None:
        """The first ambient ingredient of a seed expression, if any."""
        module, model = self.module, self.ctx.model
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                resolved = module.resolve(sub.func)
                if resolved is None or resolved in RNG_CONSTRUCTORS:
                    continue  # nested SeedSequence([...]) is checked itself
                if resolved.startswith(_AMBIENT_CALL_PREFIXES) or resolved in (
                    "id",
                    "hash",
                    "input",
                ):
                    return sub, f"call to `{resolved}`"
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in module.aliases:
                    continue  # imported module/function name, not data
                symbol = model.resolve(module, sub.id)
                if symbol is not None and symbol.kind == "global":
                    info = model.global_by_qualname(symbol.qualname)
                    if info is not None and info.kind != "constant":
                        return sub, (
                            f"module global `{info.qualname}` "
                            f"(kind: {info.kind})"
                        )
        return None


def _samples_global_stream(resolved: str) -> bool:
    if resolved.startswith("numpy.random."):
        return resolved not in _NP_RANDOM_OK
    return resolved.startswith("random.") and resolved != "random.Random"


class GlobalStreamRule(Rule):
    """R502: flags sampling the process-global numpy/random streams."""

    rule_id = "R502"
    family = "rng-provenance"
    severity = "error"
    summary = (
        "no process-global RNG sampling (np.random.* / random.*); thread a "
        "seeded Generator (findings in worker-reachable code quote the "
        "worker chain)"
    )

    def run(self) -> None:
        self._qualnames = {
            id(func.node): func.qualname
            for func in self.module.functions.values()
        }
        self._scope = [self.module.scope_node]
        self.visit(self.module.tree)

    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scope.append(self._qualnames.get(id(node), self._scope[-1]))
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.module.resolve(node.func)
        if resolved is not None and _samples_global_stream(resolved):
            chain = self.ctx.worker_chains.get(self._scope[-1])
            where = (
                "" if chain is None else
                f" inside worker-reachable code ({format_chain(chain)}); "
                "each worker owns an independent hidden stream, so sharded "
                "replay diverges"
            )
            self.report(
                node,
                f"`{resolved}` samples the process-global stream{where} — "
                "thread an explicit np.random.default_rng(seed) or "
                "random.Random(seed) instead",
            )
        self.generic_visit(node)


class RngEscapeRule(Rule):
    """R503: flags RNG objects held in module-level globals."""

    rule_id = "R503"
    family = "rng-provenance"
    severity = "error"
    summary = "RNG objects must not escape into module-level globals"

    def run(self) -> None:
        module = self.module
        for name in sorted(module.globals):
            info = module.globals[name]
            if info.kind != "rng":
                continue
            node = ast.Name(id=name)
            node.lineno, node.col_offset = info.lineno, info.col - 1
            self.report(
                node,
                f"module-level RNG `{info.qualname}`: one hidden stream "
                "shared by every caller and silently re-created per worker "
                "process; construct generators from the spec/seed at the "
                "call site instead",
            )
        for key in sorted(module.functions):
            func = module.functions[key]
            for stmt, name in func.global_rebinds():
                value = getattr(stmt, "value", None)
                if isinstance(value, ast.Call) and (
                    module.resolve(value.func) in RNG_CONSTRUCTORS
                ):
                    self.report(
                        stmt,
                        f"`{func.qualname}` rebinds module global "
                        f"`{module.name}.{name}` to an RNG; a module-held "
                        "stream is shared by every caller in the process "
                        "but duplicated across workers — return the "
                        "generator or thread it explicitly",
                    )


RNG_RULES = (AmbientSeedRule, GlobalStreamRule, RngEscapeRule)
