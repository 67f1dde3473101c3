"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script with a fixed hash seed and single-threaded
BLAS.  It imports the program, builds the workload's fixtures (set-up),
runs one untimed warm-up unit, then cycles through the unit list until a
full pass has run and ``--seconds`` have gone by, with the reference loop
between units.  With ``--trace 1`` it then runs one more pass with spans
and the metrics registry on.  The result is written as JSON to ``--out``.

Usage: python perfbench/child.py --workload NAME --seed N --seconds S
       --trace 0|1 --work-dir DIR --out FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import layers  # stdlib only; repro is imported later, inside the timed set-up
import refloop  # numpy, which the program's set-up then does not count

COUNTERS = (
    "mac.frame_plans_built",
    "net.packets_sent",
    "net.arq_rounds",
    "net.fec_repair_packets",
    "sim.events_fired",
    "scenario.room_ticks",
)


class Executor:
    """Runs units, checks each output, and counts attempts and failures.

    ``units`` is the ``units`` module, which the caller imports only after
    its set-up clock has started.
    """

    def __init__(self, units, workload: str, seed: int) -> None:
        self.units = units
        self.workload = workload
        self.seed = seed
        self.expected = units.load_expected() if seed == units.PINNED_SEED else {}
        # A digest and the frame rates of each unit's first output, not the
        # output itself, so the benchmark adds little to the peak RSS.
        self.digests: dict[str, str] = {}
        self.rates: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, unit) -> tuple[float, float, dict | None]:
        """``(wall s, cpu s, output)``; the check runs after the timing."""
        self.attempted += 1
        cpu0, wall0 = process_time(), perf_counter()
        try:
            output = unit.run()
        except Exception as exc:  # a raising unit is a failed unit
            wall, cpu = perf_counter() - wall0, process_time() - cpu0
            self.failed += 1
            self.problems.append(f"{unit.uid}: raised {exc!r}")
            return wall, cpu, None
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        output = self.units.canonical(output)
        try:
            found = self.units.check(
                self.workload, self.seed, unit.uid, output, self.expected
            )
        except (KeyError, IndexError, TypeError) as exc:  # malformed output
            found = [f"check raised {exc!r}"]
        digest = hashlib.sha256(
            json.dumps(output, sort_keys=True).encode()
        ).hexdigest()
        if self.digests.setdefault(unit.uid, digest) != digest:
            found.append("output differs from this unit's earlier run")
        self.rates.setdefault(
            unit.uid, self.units.frame_rates(self.workload, output)
        )
        self.failed += bool(found)
        self.problems.extend(f"{unit.uid}: {p}" for p in found)
        return wall, cpu, output


def timed_phase(executor: Executor, unit_list, seconds: float, reference) -> dict:
    """Cycle through the units until a full pass has run and ``seconds``
    have gone by, timing the reference loop before the first unit and
    after each.

    ``wall_ref`` is the wall time of one pass in reference units: for each
    unit, its summed wall time over the summed mean of the reference runs
    on either side, added up over the pass.  A final partial pass then
    counts its units without tilting the mix.
    """
    checksum = reference()
    refs = [_timed(reference, checksum)]
    walls: list[float] = []
    cpus: list[float] = []
    start = perf_counter()
    while len(walls) < len(unit_list) or perf_counter() - start < seconds:
        wall, cpu, _ = executor.run(unit_list[len(walls) % len(unit_list)])
        walls.append(wall)
        cpus.append(cpu)
        refs.append(_timed(reference, checksum))
    adjacent = [(a + b) / 2.0 for a, b in zip(refs, refs[1:])]
    n = len(unit_list)
    return {
        "passes": len(walls) / n,
        "walls": walls,
        "cpus": cpus,
        "refs": refs,
        "ratios": [w / r for w, r in zip(walls, adjacent)],
        "wall_ref": sum(sum(walls[i::n]) / sum(adjacent[i::n]) for i in range(n)),
        "pass_wall": sum(statistics.fmean(walls[i::n]) for i in range(n)),
    }


def _timed(reference, checksum: float) -> float:
    start = perf_counter()
    if reference() != checksum:
        raise RuntimeError("the reference loop is not deterministic")
    return perf_counter() - start


def traced_pass(executor: Executor, unit_list, registry) -> dict:
    """One pass with spans and the metrics registry on."""
    tracer = layers.Tracer()
    registry.reset()
    registry.enable()
    wall = 0.0
    outputs = []
    try:
        with layers.traced(tracer):
            for unit in unit_list:
                unit_wall, _, output = executor.run(unit)
                wall += unit_wall
                outputs.append(output)
        snapshot = registry.snapshot()
    finally:
        registry.disable()
        registry.reset()
    return {
        "tracer": tracer,
        "wall": wall,
        "outputs": [o for o in outputs if o is not None],
        "missing": layers.find_call_sites()[1],
        "counts": {
            name: entry.get("value", 0)
            for name, entry in snapshot.items()
            if entry["kind"] == "counter"
        },
    }


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def per_layer_metrics(workload, setup, timed, traced, trace_overhead) -> dict:
    """Every per-layer metric, as ``{name: {"value": v, "unit": u}}``."""
    counts = traced["counts"]
    calls = traced["tracer"].calls
    self_s = traced["tracer"].self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for name in layers.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "count")
    outputs = traced["outputs"]
    obs_outputs = outputs if workload == "obs_pipeline" else []
    cached = [flag for o in obs_outputs for flag in o["cached"]]
    pass_wall = timed["pass_wall"]
    delivered = counts.get("net.user_frames_delivered", 0)
    lost = counts.get("net.user_frames_lost", 0)
    arrived = counts.get("scenario.users_arrived", 0)
    rejected = counts.get("scenario.admission_rejected", 0)
    metrics.update(
        {
            "mac.plan_useful_ratio": (
                _ratio(
                    counts.get("core.grouping_decisions", 0),
                    counts.get("mac.frame_plans_built", 0),
                ),
                "ratio",
            ),
            "net.frame_delivery_ratio": (_ratio(delivered, delivered + lost), "ratio"),
            "sim.host_us_per_event": (
                _ratio(pass_wall * 1e6, counts.get("sim.events_fired", 0)),
                "us",
            ),
            "scenario.admission_rejected_ratio": (
                _ratio(rejected, arrived + rejected),
                "ratio",
            ),
            "runner.cache_hit_ratio": (_ratio(sum(cached), len(cached)), "ratio"),
            "obs.trace_events": (sum(o["trace_events"] for o in obs_outputs), "count"),
            "obs.trace_bytes": (sum(o["trace_bytes"] for o in obs_outputs), "bytes"),
            "obs.trace_overhead_ratio": (trace_overhead, "ratio"),
            "startup.import_s": (setup["import_s"], "s"),
            "setup.fixtures_s": (setup["fixtures_s"], "s"),
            "host.wall_s": (sum(timed["walls"]), "s"),
            "host.cpu_s": (sum(timed["cpus"]), "s"),
            "host.ref_s": (sum(timed["refs"]), "s"),
            "other.self_s": (traced["wall"] - sum(self_s.values()), "s"),
            "bench.span_overhead_ratio": (_ratio(traced["wall"], pass_wall), "ratio"),
            "bench.missing_call_sites": (len(traced["missing"]), "count"),
        }
    )
    return {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The host's speed right before and right after set-up, to rescale the
    # set-up time by.
    checksum = refloop.reference_loop()
    host = [_timed(refloop.reference_loop, checksum) for _ in range(3)]
    start = perf_counter()
    import units  # the first import of repro

    imported = perf_counter()
    units.setup(args.workload)
    unit_list = units.build_units(args.workload, args.seed, args.work_dir / "units")
    ready = perf_counter()
    host += [_timed(refloop.reference_loop, checksum) for _ in range(3)]
    setup = {
        "setup_s": ready - start,
        "ref_s": statistics.fmean(host),
        "import_s": imported - start,
        "fixtures_s": ready - imported,
    }
    result: dict = {"setup": setup}
    if not args.setup_only:
        from repro.obs import metrics as obs_metrics

        executor = Executor(units, args.workload, args.seed)
        executor.run(unit_list[0])  # warm-up, untimed
        timed = timed_phase(
            executor, unit_list, args.seconds, refloop.reference_loop
        )
        fps = [
            rate for unit in unit_list for rate in executor.rates.get(unit.uid, ())
        ]
        result.update(
            {
                "passes": timed["passes"],
                "ratios": timed["ratios"],
                "wall_ref": timed["wall_ref"],
                "sim_fps": statistics.fmean(fps) if fps else 0.0,
                # Less the reference's frames, resident all run long.
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0
                - refloop.resident_mb(),
            }
        )
        if args.trace:
            traced = traced_pass(executor, unit_list, obs_metrics.REGISTRY)
            overhead = (
                units.trace_overhead(args.seed, args.work_dir / "overhead")
                if args.workload == "obs_pipeline"
                else 0.0
            )
            result["per_layer"] = per_layer_metrics(
                args.workload, setup, timed, traced, overhead
            )
            result["missing_call_sites"] = traced["missing"]
        result["attempted"] = executor.attempted
        result["failed"] = executor.failed
        result["problems"] = executor.problems[:20]
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
