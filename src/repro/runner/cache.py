"""On-disk JSON result cache for experiment work units.

Each completed :class:`~repro.runner.spec.RunSpec` is stored as one JSON
file under ``<root>/<experiment>/<sha256>.json``, keyed by a hash of the
canonical (spec, package version) pair — bumping ``repro.__version__``
invalidates every entry, and any parameter or seed change lands on a new
key, so repeated figure builds are incremental but never stale.

The default root is ``.repro-cache`` in the working directory, overridable
with the ``REPRO_CACHE_DIR`` environment variable or ``--cache-dir``.
Writes are atomic (temp file + rename) so parallel workers and interrupted
runs never leave a torn entry behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .. import __version__
from .spec import RunSpec

__all__ = ["ResultCache", "default_cache_root"]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``./.repro-cache``."""
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    return Path(env) if env else Path(DEFAULT_CACHE_DIRNAME)


class ResultCache:
    """Spec-keyed JSON store; a corrupt or mismatched entry reads as a miss."""

    def __init__(self, root: Path | str | None = None, version: str = __version__):
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = str(version)

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / spec.experiment / f"{spec.digest(self.version)}.json"

    def get(self, spec: RunSpec) -> dict[str, Any] | None:
        """The cached result dict, or None on miss/corruption/mismatch."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        # The hash already encodes spec+version; the embedded copy guards
        # against (astronomically unlikely) collisions and hand-edited files.
        if payload.get("spec") != spec.to_jsonable():
            return None
        if payload.get("version") != self.version:
            return None
        result = payload.get("result")
        return result if isinstance(result, dict) else None

    def put(self, spec: RunSpec, result: dict[str, Any], elapsed_s: float = 0.0) -> Path:
        """Atomically persist one result; returns the entry's path."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spec": spec.to_jsonable(),
            "version": self.version,
            "elapsed_s": float(elapsed_s),
            "result": result,
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        return path

    def clear(self) -> int:
        """Delete every entry under the root; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in sorted(self.root.rglob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
