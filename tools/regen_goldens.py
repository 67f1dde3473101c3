"""Regenerate the golden-result fixtures for the regression suite.

    PYTHONPATH=src python tools/regen_goldens.py            # rewrite all
    PYTHONPATH=src python tools/regen_goldens.py table1     # just one
    PYTHONPATH=src python tools/regen_goldens.py --check    # diff, don't write

Each fixture under ``tests/experiments/goldens/`` pins the merged result
of one experiment at its *small* parameter scale, together with the exact
parameters and the comparison tolerances the test uses.  Regenerate (and
eyeball the diff!) only when an intentional behavior change moves the
numbers; the golden test points here when it fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runner import (  # noqa: E402  (path set up above)
    diff_results,
    format_diff,
    get_experiment,
    resolve_params,
    run_experiment,
)

GOLDEN_DIR = REPO_ROOT / "tests" / "experiments" / "goldens"

# The regression net: one fixture per experiment, at the small scale the
# CI golden job runs.  Tolerances absorb last-bit libm/BLAS differences
# across platforms while still failing on any real numeric drift.
GOLDEN_EXPERIMENTS = (
    "table1", "fig2a", "fig2b", "fig3b", "fig3d", "fig3e", "scaling",
    "loss_sweep", "venue_scale",
    "ablation_importance", "policy_comparison",
    "ablation_prediction", "ablation_blockage", "ablation_grouping",
    "ablation_adaptation", "ablation_cellsize", "ablation_multiap",
)
RTOL = 1e-6
ATOL = 1e-9


def build_payload(name: str) -> dict:
    experiment = get_experiment(name)
    params = resolve_params(experiment, scale="small")
    merged = run_experiment(name, scale="small")
    return {
        "experiment": name,
        "scale": "small",
        "params": json.loads(json.dumps(params)),
        "rtol": RTOL,
        "atol": ATOL,
        "result": merged,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(GOLDEN_EXPERIMENTS),
        help="subset of golden experiments to regenerate (default: all)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the existing fixtures instead of writing",
    )
    args = parser.parse_args(argv)

    unknown = sorted(set(args.experiments) - set(GOLDEN_EXPERIMENTS))
    if unknown:
        parser.error(
            f"not golden experiments: {unknown}; choose from {GOLDEN_EXPERIMENTS}"
        )

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in args.experiments:
        path = GOLDEN_DIR / f"{name}.json"
        payload = build_payload(name)
        if args.check:
            if not path.exists():
                print(f"{name}: MISSING ({path})")
                failures += 1
                continue
            expected = json.loads(path.read_text(encoding="utf-8"))
            diffs = diff_results(
                expected["result"],
                payload["result"],
                rtol=expected.get("rtol", RTOL),
                atol=expected.get("atol", ATOL),
            )
            if diffs:
                print(f"{name}: DRIFT\n{format_diff(diffs)}")
                failures += 1
            else:
                print(f"{name}: ok")
        else:
            path.write_text(
                json.dumps(payload, sort_keys=True, indent=1) + "\n",
                encoding="utf-8",
            )
            print(f"{name}: wrote {path.relative_to(REPO_ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
