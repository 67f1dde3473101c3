"""Self-time share of each package in ``closed_loop`` sessions of a given length.

It checks that the benchmark's short sessions keep the layer mix of the
experiment's longer ones: per-session fixed costs (user study, blockage
timeline, allocation comparison) would weigh more in a short session.
Self time comes from cProfile and is grouped by ``repro`` subpackage;
numpy's own functions form one group, other C functions another.

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/profile_mix.py --duration 1.5 --seeds 2
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import units  # noqa: E402
from repro.experiments import policy_comparison  # noqa: E402


def group(filename: str, function: str) -> str:
    if "/repro/" in filename:
        return filename.split("/repro/")[1].split("/")[0].removesuffix(".py")
    if "numpy" in filename or (filename == "~" and "numpy" in function):
        return "numpy"
    return "builtins" if filename == "~" else "other"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=units.CLOSED_LOOP_DURATION_S)
    parser.add_argument("--seeds", type=int, default=2)
    args = parser.parse_args()

    units.setup("closed_loop")
    specs = [
        units._policy_spec(stack, seed, units.CLOSED_LOOP_USERS, args.duration)
        for seed in units.derive_seeds(units.PINNED_SEED, args.seeds)
        for stack in policy_comparison.POLICY_STACKS
    ]
    policy_comparison.run_one(specs[0])  # warm-up
    profile = cProfile.Profile()
    start = perf_counter()
    profile.enable()
    for spec in specs:
        policy_comparison.run_one(spec)
    profile.disable()
    wall = perf_counter() - start

    shares: Counter[str] = Counter()
    for (filename, _, function), row in pstats.Stats(profile).stats.items():
        shares[group(filename, function)] += row[2]  # self time
    total = sum(shares.values())
    print(
        f"{len(specs)} sessions of {args.duration:g} s: "
        f"{wall / len(specs):.3f} s each under cProfile"
    )
    for name, seconds in shares.most_common():
        print(f"  {name:12s} {100 * seconds / total:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
