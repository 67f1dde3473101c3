"""The project model every rule runs over, and its whole-program views.

The rules that guard the repo's headline guarantees — bit-identical
serial-vs-sharded replay, sha256 spec-keyed result caching, spec-ordered
multiprocessing merges — are *whole-program* invariants, and the per-module
conventions (determinism, units, sim processes, hygiene) read the same
parsed modules.  This package parses every linted file once into a
:class:`~repro.analysis.project.model.ProjectModel` (per-module trees,
noqa maps, symbol tables and import aliases), resolves a
conservative call graph over it, finds the concurrency entry points (the
multiprocessing worker function, the scenario shard engines, every
experiment's ``run_one``) and computes reachability from them into a
:class:`~repro.analysis.project.context.ProjectContext`, which also holds
the one findings sink.

Entry: :func:`repro.analysis.analyze`.
"""

from __future__ import annotations

from .callgraph import CallGraph, build_call_graph
from .context import ProjectContext
from .entrypoints import EntryPoint, find_entry_points
from .model import ProjectModel, build_project

__all__ = [
    "CallGraph",
    "EntryPoint",
    "ProjectContext",
    "ProjectModel",
    "build_call_graph",
    "build_project",
    "find_entry_points",
]
