"""Command-line entry point: forwards ``python -m repro <command>``.

    python -m repro run table1 --parallel 4   # parallel runner + result cache
    python -m repro run fig3b --set num_instants=200
    python -m repro run loss_sweep --set modes=fec
    python -m repro run all                   # every registered experiment
    python -m repro figures --parallel 4      # every registered figure/table
    python -m repro lint                      # repo-specific static analysis
    python -m repro trace loss_sweep          # JSONL timeline, streamed to disk
    python -m repro obs analyze t.jsonl       # per-frame latency attribution
    python -m repro obs check t.jsonl --spec slo.json   # SLO gating
    python -m repro obs diff a.json b.json    # run-to-run regression diff
    python -m repro obs report a.json         # self-contained HTML report
    python -m repro bench                     # BENCH_<n>.json perf point
    python -m repro bench --kernels --compare BENCH_3.json  # speedup gate
    python -m repro scenario --rooms 2        # sharded venue scenario
    python -m repro ablation --parallel 4     # component importance ranking

``run`` and ``figures`` forward to the deterministic parallel runner in
:mod:`repro.runner.cli`, the one front-end that selects experiments and
overrides their parameters (``--scale``, ``--seed``, ``--set KEY=VALUE``);
``lint`` forwards to :mod:`repro.analysis` (same as
``python -m repro.analysis``); ``trace`` and ``obs`` forward to the
observability layer in :mod:`repro.obs.cli`; ``bench`` forwards to
:mod:`repro.obs.bench`, which runs the ``BENCHMARK.json`` workloads and
kernel timings into a trajectory point; ``scenario`` forwards to
:mod:`repro.scenario.cli`; ``ablation`` forwards to the
component-ablation engine in :mod:`repro.ablation.cli`.  Anything else
prints the list of commands and exits 2.
"""

from __future__ import annotations

import sys

_COMMANDS = ("run", "figures", "lint", "trace", "obs", "bench", "scenario",
             "ablation")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` (returns a process exit status)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] in ("run", "figures"):
        from .runner.cli import main as runner_main

        return runner_main(argv)
    if argv and argv[0] == "trace":
        from .obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "obs":
        from .obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "bench":
        from .obs.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "scenario":
        from .scenario.cli import main as scenario_main

        return scenario_main(argv[1:])
    if argv and argv[0] == "ablation":
        from .ablation.cli import main as ablation_main

        return ablation_main(argv[1:])

    print(
        f"usage: python -m repro {{{','.join(_COMMANDS)}}} [ARGS ...]",
        file=sys.stderr,
    )
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
