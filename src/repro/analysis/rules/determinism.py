"""Determinism rules (D1xx).

Every experiment must be bit-for-bit reproducible from its seed: no
wall-clock reads, no iteration over bare ``set``s (string hashing is
randomized per process, so set order leaks ``PYTHONHASHSEED`` into
results), and no insertion-order iteration of shard/room/AP-keyed dicts.
Unseeded and process-global RNG streams are the RNG-provenance family's
(R501/R502, :mod:`repro.analysis.rules.rng`).
"""

from __future__ import annotations

import ast

from ..visitor import Rule

__all__ = ["DETERMINISM_RULES"]

# Wall-clock reads that differ run to run.  time.perf_counter / monotonic /
# process_time are fine for *measuring* elapsed time (they never feed
# simulation state) and are the sanctioned replacements.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    """D101: flags wall-clock reads that would leak real time into results."""

    rule_id = "D101"
    family = "determinism"
    summary = (
        "no wall-clock reads (time.time / datetime.now) in library code; "
        "use time.perf_counter for elapsed-time measurement"
    )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.module.resolve(node.func)
        if resolved in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock read `{resolved}()` breaks run-to-run "
                "determinism; use time.perf_counter() for timing or pass "
                "timestamps in explicitly",
            )
        self.generic_visit(node)


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically-evident set expressions whose iteration order can vary."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # a | b etc. where either side is evidently a set
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class SetIterationRule(Rule):
    """D104: flags iterating bare sets where the order can reach results."""

    rule_id = "D104"
    family = "determinism"
    summary = "don't iterate bare sets into results; sort first"

    def __init__(self, ctx, module) -> None:
        super().__init__(ctx, module)
        self._set_names: list[set[str]] = [set()]

    # -- scope tracking: names assigned set expressions in this function ----

    def _walk_scope(self, node: ast.AST) -> None:
        self._set_names.append(set())
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and _is_set_expr(child.value):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        self._set_names[-1].add(target.id)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                if _is_set_expr(child.value) and isinstance(
                    child.target, ast.Name
                ):
                    self._set_names[-1].add(child.target.id)
        self.generic_visit(node)
        self._set_names.pop()

    visit_FunctionDef = _walk_scope
    visit_AsyncFunctionDef = _walk_scope

    def _iterates_set(self, node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_names)
        return False

    def _flag(self, iter_node: ast.expr, where: str) -> None:
        self.report(
            iter_node,
            f"iterating a bare set {where} makes order depend on "
            "PYTHONHASHSEED; wrap it in sorted(...)",
        )

    def visit_For(self, node: ast.For) -> None:
        if self._iterates_set(node.iter):
            self._flag(node.iter, "in a for-loop")
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            if self._iterates_set(gen.iter):
                self._flag(gen.iter, "in a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set *from* a set keeps order irrelevant.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # list(set(...)), tuple(set(...)), enumerate(set(...)) materialize
        # the nondeterministic order.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and node.args
            and self._iterates_set(node.args[0])
        ):
            self._flag(node.args[0], f"via {node.func.id}(...)")
        self.generic_visit(node)


# Identifier tokens that mark a dict as shard/room/AP-keyed.  Matching is
# per underscore-separated token, so `by_room` and `shard_results` hit but
# `maps` and `shape` don't.
_SHARD_TOKENS = frozenset(
    {"shard", "shards", "room", "rooms", "ap", "aps"}
)
_DICT_ITER_METHODS = ("items", "keys", "values")


def _shardish_name(name: str) -> bool:
    return bool(_SHARD_TOKENS & set(name.lower().split("_")))


class ShardDictIterationRule(Rule):
    """D105: flags unsorted iteration over shard/room/AP-keyed dicts.

    Dict iteration follows insertion order, and for dicts keyed by shard,
    room, or AP the insertion order is exactly what sharding changes —
    which worker finished first, which shard a room landed in.  Results
    folded out of such an iteration silently depend on the partition;
    ``sorted(...)`` restores the venue order the merge contract promises.
    """

    rule_id = "D105"
    family = "determinism"
    summary = (
        "iterate shard/room/AP-keyed dicts via sorted(...), not "
        "insertion order"
    )

    def _base_name(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def _flag_if_shardish(self, iter_node: ast.expr, where: str) -> None:
        if not isinstance(iter_node, ast.Call) or iter_node.args:
            return
        func = iter_node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_ITER_METHODS
        ):
            return
        name = self._base_name(func.value)
        if name is not None and _shardish_name(name):
            self.report(
                iter_node,
                f"`{name}.{func.attr}()` iterates a shard/room-keyed dict "
                f"in insertion order {where}; insertion order follows the "
                "shard partition, so wrap it in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_if_shardish(node.iter, "in a for-loop")
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._flag_if_shardish(gen.iter, "in a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp
    visit_SetComp = _visit_comp


DETERMINISM_RULES = (WallClockRule, SetIterationRule, ShardDictIterationRule)
