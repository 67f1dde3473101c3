#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every experiment, record paper-vs-measured.

Run from the repository root:  python tools/generate_experiments_md.py
Takes a few minutes (full benchmark-scale parameters).
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import PAPER_TABLE1, fig2a, fig2b, fig3b, fig3d, fig3e, table1
from repro.ablation import format_report
from repro.runner import get_experiment, run_experiment

OUT = "EXPERIMENTS.md"

# Static documentation for the parallel runner; regenerated into the
# document on every run so hand edits cannot drift away.
RUNNER_SECTION = """\
## Running the experiments — the parallel runner

Every experiment above is registered with `repro.runner` and can be
regenerated through the deterministic parallel CLI:

```bash
python -m repro figures --parallel 4            # every figure/table
python -m repro run table1 loss_sweep --parallel 4
python -m repro run all --scale small           # quick CI-sized configs
```

- **Determinism.** Each experiment is decomposed into independent work
  units (`RunSpec` = experiment + parameter point + seed); results are
  keyed and merged by spec, never by completion order, so `--parallel N`
  is bit-identical to the serial run (asserted by
  `tests/experiments/test_parallel_equivalence.py`).
- **Result cache.** Completed units are stored under `.repro-cache/`
  (override with `--cache-dir` or `$REPRO_CACHE_DIR`), keyed by a SHA-256
  hash of the canonical (spec, package version) pair.  Any parameter or
  seed change lands on a new key; bumping `repro.__version__` invalidates
  everything.  `--no-cache` computes fresh, `--clear-cache` empties the
  cache first.
- **Timings.** Each run prints per-unit progress and a per-experiment
  timing table; `--timings PATH` writes the summary as JSON (CI archives
  it as an artifact).
- **Golden results.** `tests/experiments/goldens/` pins the full result
  tree of 17 experiments at small scale with explicit tolerances
  (rtol 1e-6 / atol 1e-9).  After an intentional behavior change,
  regenerate with `PYTHONPATH=src python tools/regen_goldens.py` and
  review the fixture diff; `--check` mode diffs without writing.
"""


# Static documentation for the observability tooling; kept here (not only
# in EXPERIMENTS.md) for the same no-drift reason as RUNNER_SECTION.
OBS_SECTION = """\
## Observability — tracing and metrics around a run

Any experiment can be run with the `repro.obs` instrumentation on; the
results are bit-identical either way (asserted by
`tests/obs/test_equivalence.py`), so tracing is safe to reach for
whenever a number looks off.

```bash
# A sim-time-ordered JSON-lines timeline of one experiment:
python -m repro trace loss_sweep --scale small --out loss.jsonl
# → events from every layer, e.g.
#   {"t": 0.984, "seq": 83124, "layer": "core", "event": "core.qoe_sample",
#    "unit": "loss_sweep/loss=0.05/seed=7", "user": 2, "fps": 28}

# Merged per-layer counters/histograms over a whole run:
python -m repro run table1 --scale small --metrics-out table1-metrics.json

# Wall-time attribution (per phase and per work unit), CI-archived:
python -m repro figures --parallel 4 --timings runner-timings.json
```

Useful slices of a trace (`jq`-style): `net.frame_outcome` rows give
per-frame airtime/loss/ARQ rounds; `mac.frame_plan` shows who shared a
multicast beam; `core.adaptation_decision` shows every quality move and
the throughput estimate that caused it; the `sim.*` counters in a
metrics snapshot give event-queue volume per experiment.  The complete
catalog — every metric (name, kind, unit, layer, declaring module) and
every trace event with its fields — is generated into
`docs/METRICS.md` and verified in CI by
`python tools/gen_metrics_doc.py --check`.

### Worked example — why does the loss sweep drop frames at high loss?

The loss-sweep table says *that* ARQ collapses as packet loss grows
while FEC holds on; the analysis tier shows *why*, from the trace alone
— no simulator re-run:

```bash
python -m repro trace loss_sweep --scale small --quiet --out loss.jsonl
python -m repro obs analyze loss.jsonl --top 3
```

```
frames: 144 total — 114 on time, 0 late, 30 lost
blame over late/lost frames (30 frame(s), 1000.00 ms of latency):
segment         layer  ms       share
--------------  -----  -------  -----
first_tx        net    800.000  80.0%
arq_feedback    mac    14.400   1.4%
fec_repair      net    80.000   8.0%
deadline_waste  net    105.600  10.6%
by layer: mac 14.400 ms, net 985.600 ms
```

Every lost frame burned its whole 33.3 ms deadline, and the blame table
names the thief per layer: the first transmission already eats 80% of a
lost frame's budget (high-quality frames barely fit the deadline at
these airtime fractions), so at 10–20% loss there is no slack left for
recovery — ARQ's retransmission rounds get cut short by the deadline
(`deadline_waste`, 10.6%: airtime that delivered nothing) plus the MAC
pays per-member block-ACK feedback (`arq_feedback`), while FEC's
up-front repair PDUs (`fec_repair`) are the cheaper insurance, which is
exactly the goodput crossover the sweep table shows.  The worst-frames
list (`--top`) pins the offenders to their work unit, frame index, and
delivery occurrence; per frame, the segment milliseconds sum *exactly*
to the frame's end-to-end latency (asserted with `==` in
`tests/obs/test_analyze.py`).

Two gates build on the same machinery:

```bash
# Declarative SLOs over a trace (CI runs tools/ci_slo.json; exit 1 on violation):
python -m repro obs check loss.jsonl --spec tools/ci_slo.json

# A BENCH_<n>.json perf-trajectory point; exit 1 on wall-time regression:
python -m repro bench loss_sweep fig3d --scale small
python -m repro bench loss_sweep fig3d --scale small --compare BENCH_1.json
```
"""


# Static documentation for the venue-scale scenario layer; regenerated
# into the document on every run for the same no-drift reason as above.
VENUE_SECTION = """\
## Venue scale — sharded multi-room population simulation

`repro.scenario` lifts the per-AP session machinery to whole venues: a
declarative `VenueSpec` (rooms served by their own APs, capacities,
content placement, churn processes), seeded arrival/departure streams,
and per-AP shard engines that the existing parallel runner executes as
independent work units.  Every room is a pure function of
`(venue.seed, room_index)`, so the merged venue report is bit-identical
for any shard count or worker count (property-tested in
`tests/scenario/test_churn_determinism.py`).

```bash
# The default venue: 10 rooms x 1,000 capacity, ~11k sessions, 4 shards.
python -m repro run venue_scale --parallel 4

# Or drive it from the scenario CLI with uniform-venue flags ...
python -m repro scenario --rooms 4 --capacity 200 --initial 150 \\
    --flash-crowd-room 0 --flash-crowd-at 5 --flash-crowd-size 100

# ... or a declarative JSON venue file (VenueSpec.to_jsonable schema):
python -m repro scenario --spec venue.json --shards 4 --parallel 4
```

A `--spec` file mirrors `VenueSpec`: venue-wide delivery parameters plus
one object per room —

```json
{"rooms": [{"name": "main-stage", "ap": "ap0", "capacity": 500,
            "initial_users": 400, "arrival_rate_hz": 5.0,
            "mean_dwell_s": 120.0, "quality": "high",
            "flash_crowd_at_s": 30.0, "flash_crowd_size": 200},
           {"name": "lobby", "ap": "ap1", "capacity": 200,
            "initial_users": 50, "arrival_rate_hz": 2.0,
            "mean_dwell_s": 45.0, "quality": "medium",
            "flash_crowd_at_s": null, "flash_crowd_size": 0}],
 "duration_s": 60.0, "tick_s": 1.0, "seed": 7, "archetypes": 8,
 "wlan": "ad", "multicast_rate_fraction": 0.8, "grouping": "greedy",
 "min_group_iou": 0.05, "target_fps": 30.0, "cell_size": 0.5}
```

Scale comes from two levers.  *Archetype pooling*: users map onto a
small set of viewer archetypes, so per-tick visibility, compressed cell
demands, and viewport IoU are computed once per archetype with the
vectorized kernels (`pairwise_iou_matrix`,
`compute_visibility_batch`, the batched codebook gain sweep — each
golden-equivalent to its retained scalar reference, speedups pinned in
`BENCH_2.json` and gated by `repro bench --kernels --compare`).
*Sharding*: rooms partition into contiguous shards, one `RunSpec` each,
through the same executor/cache as every other experiment.

### Blame walkthrough — which room is starving?

Traces carry `room`/`ap` correlation fields set by the shard engine, so
the analysis tier attributes latency per shard without re-running:

```bash
python -m repro trace venue_scale --scale small --quiet --out venue.jsonl
python -m repro obs analyze venue.jsonl
```

```
per-shard latency attribution:
room   ap   frames  late  lost  ms      top segment
-----  ---  ------  ----  ----  ------  -----------
room0  ap0  5       5     0     588.10  first_tx
room1  ap1  5       5     0     588.10  first_tx
```

Every occupied tick plans one frame for the room's active population
(multicast groups chosen per archetype cluster by whichever partition —
cluster-wide multicast, per-archetype multicasts, or pure unicast —
delivers fastest), emits `net.frame_outcome`, and the per-shard table
splits the blame by (room, ap): here both rooms are `first_tx`-bound,
i.e. raw airtime, not recovery.  `repro obs check --spec
tools/ci_slo.json` gates the same trace in the `venue-smoke` CI job.
"""


# Static documentation for the ablation engine; regenerated into the
# document on every run for the same no-drift reason as above.
ABLATION_SECTION = """\
## Ablation engine — which cross-layer piece buys what

`repro.ablation` turns the paper's §4 on/off component comparisons into
one declarative, bit-reproducible study.  The system's components —
viewport `prediction`, multicast `grouping`, `custom_beams`, `blockage`
mitigation, `fec`, and rate `adaptation` — are declared once as named
toggles (baseline vs. ablated parameter values); the engine follows the
`AblationStudy` shape `configure → generate_runs → compute_importance`:

1. **configure** validates the component selection against a scenario
   (the closed-loop `session` by default, or the sharded small `venue`
   via `repro.scenario`) and freezes the study config.
2. **generate_runs** expands the run matrix — baseline, one
   leave-one-out variant per component, optional `--pairwise` pairs —
   where every variant is a fully-resolved parameter set decomposed into
   `RunSpec` work units.
3. The matrix executes through the same cached parallel runner as every
   other experiment (spec-keyed on-disk cache, `--parallel N`,
   spec-ordered merging), so re-runs are incremental and worker count is
   invisible in the output.
4. **compute_importance** folds per-variant metrics into per-component
   deltas with explicit polarity (`qoe_score` up is good, `stall_time_s`
   down is good), normalizes each metric by the largest absolute
   degradation in the matrix, and ranks components by mean normalized
   degradation.  `--pairwise` adds interaction terms
   (`degradation(a,b) - degradation(a) - degradation(b)`).

```bash
python -m repro ablation --parallel 4                # full session study
python -m repro ablation --components grouping,fec   # 2-component matrix
python -m repro ablation --pairwise --output report.json
python -m repro ablation --scenario venue --scale small
python -m repro ablation --list                      # registry overview
```

The `--output` report is canonical JSON (sorted keys, tight separators)
with only deterministic fields, so serial runs, `--parallel N` runs, and
cache-hit re-runs produce **byte-identical** files — the same
discipline as `repro obs analyze`, and the property
`tests/ablation/` pins.  The study is also registered as the
`ablation_importance` experiment, which puts it under the golden-result
regression net and the serial/parallel equivalence suite automatically.

### Reading the importance table

`score` is the mean normalized degradation across the scored metrics
(1.0 = this component's removal caused the largest observed damage on
every metric; 0 = removing it changed nothing; negative = the session
actually improved without it).  The Δ columns are raw
`ablated - baseline` deltas per metric.  A fixed-quality ladder
(`no-adaptation`) *raises* raw bitrate while exploding stalls — the
polarity-aware multi-metric score is what keeps such trades honest.

The six agenda studies (Abl-A..F below) are plain registered
experiments, `ablation_prediction` … `ablation_multiap`: run one with
`run_experiment("ablation_<study>", overrides)` (or `repro run
ablation_<study>`) and print it with its experiment's `format_result`.
"""


def block(lines: list[str]) -> str:
    return "\n".join(lines)


def main() -> None:
    t0 = time.time()
    parts: list[str] = []
    parts.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Every table and figure of the HotNets '21 paper, regenerated by this\n"
        "repository (`python tools/generate_experiments_md.py`, also asserted\n"
        "by `pytest benchmarks/ --benchmark-only`).  Absolute values are not\n"
        "expected to match a hardware testbed; the *shapes* — orderings,\n"
        "crossovers, win/lose relationships — are the reproduction target\n"
        "(see DESIGN.md §1 for the substitution map and §4 for calibration\n"
        "anchors).\n"
    )
    parts.append(RUNNER_SECTION)
    parts.append(OBS_SECTION)
    parts.append(VENUE_SECTION)

    # ------------------------------------------------------ Venue scale ----
    print("Venue scale ...")
    venue_report = run_experiment("venue_scale", workers=4)
    summary = venue_report["venue"]
    parts.append(block([
        "### Measured — the default 10-room venue",
        "",
        "```",
        f"rooms: {summary['rooms']}  sessions: {summary['sessions']}  "
        f"(rejected {summary['rejected']})",
        f"peak concurrent: {summary['peak_active']}  "
        f"mean FPS: {summary['mean_fps']:.1f}  "
        f"worst tick: {summary['worst_tick_fps']:.1f}",
        "```",
        "",
        "One flash-crowd room (50 extra users at t=5s) and ~11k sessions "
        "overall; identical re-runs and any `--parallel` level reproduce "
        "this report bit-for-bit.",
        "",
    ]))

    parts.append(ABLATION_SECTION)

    # ------------------------------------------------ Ablation engine ----
    print("Ablation importance ...")
    importance_report = run_experiment("ablation_importance", workers=4)
    parts.append(block([
        "### Measured — full six-component session matrix",
        "",
        "```",
        format_report(importance_report),
        "```",
        "",
        "Regenerate with `python -m repro ablation --components all "
        "--parallel 4`; the `--output` report is byte-identical across "
        "serial, parallel, and cached runs.",
        "",
    ]))

    # ---------------------------------------------------------- Table 1 ----
    print("Table 1 ...")
    t1 = run_experiment("table1", {"num_frames": 45})
    lines = [
        "## Table 1 — multi-user FPS, vanilla vs. ViVo",
        "",
        "Measured (this repo):",
        "",
        "```",
        get_experiment("table1").format_result(t1),
        "```",
        "",
        "Paper values for comparison (per-user Mbps, vanilla FPS low/med/high,"
        " ViVo FPS low/med/high):",
        "",
        "```",
    ]
    for network, rows in PAPER_TABLE1.items():
        for n, (rate, vanilla, vivo) in rows.items():
            lines.append(
                f"{network}  {n} users  {rate:6.0f}  "
                + "/".join(f"{v:4.1f}" for v in vanilla)
                + "   "
                + "/".join(f"{v:4.1f}" for v in vivo)
            )
    lines += ["```", ""]
    # Quantify agreement.
    diffs = []
    for network, rows in PAPER_TABLE1.items():
        for n, (rate, vanilla, vivo) in rows.items():
            ours = table1.row(t1, network, n)
            for p, o in zip(vanilla + vivo, ours["vanilla_fps"] + ours["vivo_fps"]):
                diffs.append(abs(p - o))
    lines.append(
        f"Mean absolute FPS deviation across all {len(diffs)} cells: "
        f"**{np.mean(diffs):.2f} FPS** (max {np.max(diffs):.1f}).  The rate "
        "column matches the paper exactly by calibration; the FPS structure "
        "(which cells saturate at 30, where ViVo extends the range) "
        "reproduces throughout."
    )
    parts.append(block(lines))

    # ---------------------------------------------------------- Scaling ----
    print("Scaling ...")
    sc = run_experiment("scaling", {"num_frames": 24})
    parts.append(block([
        "## Headline scaling — max users at ~30 FPS (550K quality)",
        "",
        "```", get_experiment("scaling").format_result(sc), "```",
        "",
        "The paper's ladder: one vanilla 802.11ac user, three vanilla "
        "802.11ad users, five with ViVo ('one or two' more), and the "
        "viewport-similarity multicast design extends the frontier further "
        "('the bandwidth reduction can either lead to more concurrent users "
        "or improve the QoE').",
        "",
    ]))

    # ---------------------------------------------------------- Fig 2a ----
    print("Fig 2a ...")
    f2a = run_experiment("fig2a", {"num_users": 16, "num_frames": 300})
    early, late = fig2a.converging_ends(f2a)
    parts.append(block([
        "## Fig. 2a — pairwise IoU over time (50 cm cells)",
        "",
        f"- Stable pair {tuple(f2a['stable_pair'])}: mean IoU "
        f"**{fig2a.stable_mean(f2a):.3f}** (paper: 'watch exactly the same "
        "content most of the time' — IoU ≈ 1).",
        f"- Converging pair {tuple(f2a['converging_pair'])}: IoU "
        f"**{early:.2f} → {late:.2f}** over the session "
        "(paper: 'low initially, increases to 1 towards the end').",
        "",
    ]))

    # ---------------------------------------------------------- Fig 2b ----
    print("Fig 2b ...")
    m = fig2b.mean_iou(
        run_experiment("fig2b", {"num_users": 32, "duration_s": 10.0})
    )
    parts.append(block([
        "## Fig. 2b — IoU distributions across settings",
        "",
        "| curve | measured mean IoU | paper finding | holds |",
        "|---|---|---|---|",
        f"| HM(2)-Seg(100cm) | {m['HM(2)-Seg(100cm)']:.3f} | coarser cells ->"
        f" higher IoU than 50 cm | {'yes' if m['HM(2)-Seg(100cm)'] > m['HM(2)-Seg(50cm)'] else 'NO'} |",
        f"| HM(2)-Seg(50cm) | {m['HM(2)-Seg(50cm)']:.3f} | baseline | — |",
        f"| PH(2)-Seg(50cm) | {m['PH(2)-Seg(50cm)']:.3f} | phones -> higher"
        f" IoU than headsets | {'yes' if m['PH(2)-Seg(50cm)'] > m['HM(2)-Seg(50cm)'] else 'NO'} |",
        f"| HM(3)-Seg(50cm) | {m['HM(3)-Seg(50cm)']:.3f} | triples -> lowest"
        f" IoU | {'yes' if m['HM(3)-Seg(50cm)'] < m['HM(2)-Seg(50cm)'] else 'NO'} |",
        "",
    ]))

    # ---------------------------------------------------------- Fig 3b ----
    print("Fig 3b ...")
    f3b = run_experiment("fig3b", {"num_instants": 150})
    cov = fig3b.coverage(f3b)
    f3b_samples = fig3b.group_samples(f3b).values()
    paper_cov = {1: 0.965, 2: 0.79, 3: 0.60}
    lines = [
        "## Fig. 3b — default-codebook multicast coverage at -68 dBm",
        "",
        "| group size | measured coverage | paper |",
        "|---|---|---|",
    ]
    for k in sorted(cov):
        lines.append(f"| {k} | {cov[k]:.3f} | {paper_cov[k]:.3f} |")
    lines += [
        "",
        "Monotone coverage collapse with group size reproduces; the measured "
        "RSS range "
        f"([{min(s.min() for s in f3b_samples):.0f}, "
        f"{max(s.max() for s in f3b_samples):.0f}] dBm) matches the "
        "paper's -78..-54 dBm axis.",
        "",
    ]
    parts.append(block(lines))

    # ---------------------------------------------------------- Fig 3d ----
    print("Fig 3d ...")
    f3d = fig3d.summary(run_experiment("fig3d", {"num_instants": 200}))
    parts.append(block([
        "## Fig. 3d — default vs. customized multicast beams (2 users)",
        "",
        f"- Mean common-RSS improvement: **{f3d['mean_improvement_db']:+.2f} dB**"
        f" (median {f3d['median_improvement_db']:+.2f} dB).",
        f"- Custom beams win at **{f3d['win_fraction']*100:.0f}%** of "
        "placements and never lose (the designer keeps the default common "
        "beam when it is already good — the paper's own fallback rule).",
        "- Paper: custom beams 'achieve much higher common RSS values', "
        "with the circled improvement at the top of the CDF.",
        "",
    ]))

    # ---------------------------------------------------------- Fig 3e ----
    print("Fig 3e ...")
    f3e = run_experiment("fig3e", {"num_instants": 80})
    s3e = fig3e.mean_throughput(f3e)
    parts.append(block([
        "## Fig. 3e — normalized throughput of the three schemes (2 users)",
        "",
        "| scheme | measured normalized throughput |",
        "|---|---|",
        f"| unicast | {s3e['unicast']:.3f} |",
        f"| multicast, default beams | {s3e['multicast-default']:.3f} |",
        f"| multicast, custom beams | {s3e['multicast-custom']:.3f} |",
        "",
        f"Default-beam multicast loses to unicast at "
        f"**{fig3e.default_worse_than_unicast_fraction(f3e)*100:.0f}%** of "
        "instants — the paper's warning that default beams 'may in fact "
        "sometimes reduce the data rate'.  Custom-beam multicast is best "
        "essentially everywhere, as in the paper's bar chart.",
        "",
    ]))

    # -------------------------------------------------------- Ablations ----
    def ablation(study: str, overrides: dict) -> str:
        name = f"ablation_{study}"
        print(f"{name} ...")
        return get_experiment(name).format_result(run_experiment(name, overrides))

    abl_a = ablation("prediction", {"num_users": 10, "duration_s": 10.0})
    abl_b = ablation("blockage", {"num_users": 5, "duration_s": 8.0})
    abl_c = ablation("grouping", {"user_counts": (2, 4, 6), "num_frames": 24})
    abl_d = ablation("adaptation", {"num_users": 5, "duration_s": 8.0})
    abl_e = ablation("cellsize", {"num_users": 8, "duration_s": 6.0})
    abl_f = ablation("multiap", {"user_counts": (2, 4, 6, 8), "num_instants": 10})

    parts.append(block([
        "## Research-agenda ablations (paper §4-§5; no paper figures exist — "
        "these quantify the agenda)",
        "",
        "### Abl-A — viewport prediction (§4.1)",
        "```", abl_a, "```",
        "",
        "### Abl-B — proactive vs. reactive blockage mitigation (§4.1)",
        "```", abl_b, "```",
        "Proactive beam switching eliminates the detection + re-search dead "
        "airtime entirely and improves session QoE.",
        "",
        "### Abl-C — multicast grouping (§4.2)",
        "```", abl_c, "```",
        "Viewport-similarity multicast restores (near-)30 FPS at user counts "
        "where unicast has collapsed — the paper's scaling thesis.",
        "",
        "### Abl-D — rate adaptation (§4.3)",
        "```", abl_d, "```",
        "",
        "### Abl-E — segmentation granularity (§3)",
        "```", abl_e, "```",
        "",
        "### Abl-F — multi-AP coordination (§5)",
        "```", abl_f, "```",
        "Two coordinated APs (SINR-aware spatial reuse / AP-TDMA) beat one "
        "AP for split audiences.",
        "",
        f"---\nGenerated in {time.time() - t0:.0f} s by "
        "`tools/generate_experiments_md.py`.",
    ]))

    with open(OUT, "w") as f:
        f.write("\n\n".join(parts) + "\n")
    print(f"wrote {OUT} in {time.time() - t0:.0f} s")


if __name__ == "__main__":
    main()
