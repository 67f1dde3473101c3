"""Cache-purity rules (P7xx) for the spec-keyed result cache.

An experiment's ``run_one`` result is cached on disk keyed by the sha256
of its spec (``repro.runner.cache``): the contract is that the result is a
*pure function of the spec*.  Any ambient read inside the ``run_one`` /
shard-engine call tree poisons that cache — the stored result encodes
state (environment, clock, process id, working directory) that the key
does not, so a cache hit can silently disagree with a fresh run.

- **P701** — environment reads (``os.environ`` / ``os.getenv``);
- **P702** — clock reads (``time.time`` / ``time.perf_counter`` /
  ``datetime.now`` …): even "harmless" elapsed-time measurement is
  flagged inside the cached tree, because a measured value that reaches
  the result dict is unreproducible by construction (measure in the
  executor, outside ``run_one``, as ``RunReport.elapsed_s`` does);
- **P703** — process / host identity reads (``os.getpid``, ``os.getcwd``,
  ``Path.cwd``, ``platform.*``, ``socket.gethostname``, ``tempfile.*``).
"""

from __future__ import annotations

import ast

from ..project.context import format_chain
from ..visitor import Rule

__all__ = ["PURITY_RULES"]

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_IDENTITY_CALLS = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.getcwd",
        "os.getlogin",
        "os.uname",
        "pathlib.Path.cwd",
        "platform.node",
        "platform.platform",
        "platform.uname",
        "socket.gethostname",
        "socket.getfqdn",
        "tempfile.gettempdir",
        "tempfile.mkdtemp",
        "tempfile.mkstemp",
        "getpass.getuser",
    }
)


class _CachePurityRule(Rule):
    """Shared walk: every function body in the cached call tree."""

    family = "cache-purity"
    severity = "error"
    advice = ""

    def ambient_read(self, node: ast.AST) -> str | None:
        """What ambient state ``node`` reads, or None."""
        raise NotImplementedError

    def run(self) -> None:
        for key in sorted(self.module.functions):
            func = self.module.functions[key]
            chain = self.ctx.cache_chains.get(func.qualname)
            if chain is None:
                continue
            for node in ast.walk(func.node):
                what = self.ambient_read(node)
                if what is not None:
                    self.report(
                        node,
                        f"{what} inside the cached run_one call tree "
                        f"({format_chain(chain)}); {self.advice}",
                    )


class EnvironmentReadRule(_CachePurityRule):
    """P701: flags environment reads inside cached run_one call trees."""

    rule_id = "P701"
    summary = (
        "no environment reads (os.environ / os.getenv) inside cached "
        "run_one call trees"
    )
    advice = (
        "the spec key does not cover the environment, so cached results "
        "go stale silently — put the value in the spec instead"
    )

    def ambient_read(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Subscript):
            if self.module.resolve(node.value) == "os.environ":
                return "environment read `os.environ[...]`"
        elif isinstance(node, ast.Call):
            resolved = self.module.resolve(node.func)
            if resolved is not None and (
                resolved == "os.getenv" or resolved.startswith("os.environ")
            ):
                return f"environment read `{resolved}`"
        return None


class ClockReadRule(_CachePurityRule):
    """P702: flags clock reads inside cached run_one call trees."""

    rule_id = "P702"
    summary = "no clock reads inside cached run_one call trees"
    advice = (
        "results must be a pure function of the spec — measure timing in "
        "the executor (RunReport.elapsed_s), not in the unit"
    )

    def ambient_read(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Call):
            resolved = self.module.resolve(node.func)
            if resolved in _CLOCK_CALLS:
                return f"clock read `{resolved}`"
        return None


class IdentityReadRule(_CachePurityRule):
    """P703: flags process/host identity reads inside cached call trees."""

    rule_id = "P703"
    summary = (
        "no process/host identity reads (getpid, cwd, hostname, tempdir) "
        "inside cached run_one call trees"
    )
    advice = (
        "identity varies per worker and is invisible to the spec key — "
        "derive names/paths from the spec instead"
    )

    def ambient_read(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Call):
            resolved = self.module.resolve(node.func)
            if resolved in _IDENTITY_CALLS:
                return f"process/host identity read `{resolved}`"
        return None


PURITY_RULES = (EnvironmentReadRule, ClockReadRule, IdentityReadRule)
