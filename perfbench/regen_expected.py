"""Regenerate ``expected.json``: every unit's output at the pinned seed.

Run from the root of a checkout after an intended change to the model's
behaviour, and review the diff like any other change:

    PYTHONPATH=src python3 perfbench/regen_expected.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import units  # noqa: E402


def main() -> int:
    expected: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in run.WORKLOADS:
            units.setup(workload)
            expected[workload] = {
                unit.uid: units.canonical(unit.run())
                for unit in units.build_units(workload, units.PINNED_SEED, Path(tmp))
            }
    units.EXPECTED_PATH.write_text(
        json.dumps(expected, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {units.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
