"""repro.runner — deterministic parallel experiment execution.

The work-unit abstraction (:class:`RunSpec`), the experiment registry, a
multiprocessing executor with deterministic spec-ordered merging, an
on-disk JSON result cache keyed by (spec, package version), and progress /
timing reporting.  See EXPERIMENTS.md ("Parallel runner") for the CLI
surface (``repro run --parallel N``, ``repro figures --parallel N``).
"""

from .cache import ResultCache, default_cache_root
from .compare import diff_results, format_diff
from .executor import RunReport, run_experiment, run_specs, run_specs_iter
from .progress import ProgressPrinter, TimingSummary, banner
from .registry import (
    Experiment,
    all_experiments,
    experiment_names,
    get_experiment,
    register,
    resolve_params,
)
from .spec import DEFAULT_SEED, RunSpec, canonical_json

__all__ = [
    "DEFAULT_SEED",
    "Experiment",
    "ProgressPrinter",
    "ResultCache",
    "RunReport",
    "RunSpec",
    "TimingSummary",
    "all_experiments",
    "banner",
    "canonical_json",
    "default_cache_root",
    "diff_results",
    "experiment_names",
    "format_diff",
    "get_experiment",
    "register",
    "resolve_params",
    "run_experiment",
    "run_specs",
    "run_specs_iter",
]
