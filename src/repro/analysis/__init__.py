"""Repo-specific static analysis: determinism, units, sim-process and
whole-program invariant lints, in one pass.

The reproduction's claims rest on bit-for-bit deterministic simulations,
spec-keyed result caching and correct Mbps/bits/bytes/seconds arithmetic
across ``core``, ``mac``, ``net`` and ``sim``.  Generic linters cannot
check those properties, so this package parses every linted module once
into a project model (trees, import aliases, symbol tables, a call graph
and reachability from the concurrency entry points) and runs every rule
family over it:

* **determinism** (``D1xx``) — wall-clock reads, iteration over bare
  ``set``s and over shard/room/AP-keyed dicts in library code;
* **units** (``U2xx``) — arithmetic mixing incompatible unit suffixes
  (``_mbps``/``_bits``/``_bytes``/``_s``/``_ms``) without a conversion;
* **sim-process** (``S3xx``) — dropped ``env.timeout(...)`` events and
  blocking ``time.sleep`` inside simulation code;
* **hygiene** (``H4xx``/``H5xx``) — control-flow ``assert``s (stripped
  by ``-O``), mutable default arguments, unvalidated ``*Config``
  dataclasses, undocumented ``__all__`` exports;
* **rng-provenance** (``R5xx``) — unseeded or ambient-seeded RNGs,
  process-global stream sampling, RNGs held in module globals;
* **shared-state** (``G6xx``) — worker-reachable mutation or rebinding
  of module-level state;
* **cache-purity** (``P7xx``) — environment, clock and identity reads
  inside the cached ``run_one`` call trees.

Run it with ``python -m repro.analysis src/repro`` or ``repro lint``.
Suppress a finding in place with ``# repro: noqa[RULE]``.
"""

from __future__ import annotations

from .baseline import load_baseline, write_baseline
from .findings import Finding
from .report import Report, analyze, analyze_source
from .rules import ALL_RULES, rules_by_family

__all__ = [
    "ALL_RULES",
    "Finding",
    "Report",
    "analyze",
    "analyze_source",
    "load_baseline",
    "rules_by_family",
    "write_baseline",
]
