"""Experiment runners: one module per paper table/figure, plus ablations."""

from . import ablations  # noqa: F401  (registers the six ablation_* studies)
from . import ablation_engine  # noqa: F401  (registers ablation_session/_importance)
from .common import (
    AP_POSITION,
    CONTENT_CENTER,
    DEFAULT_SEED,
    cdf_at,
    clear_fixture_caches,
    default_channel,
    default_codebook,
    default_study,
    default_video,
    empirical_cdf,
    format_table,
    grid_for,
    ideal_codebook,
    study_in_room,
)
from .fig2a import Fig2aResult, run_fig2a
from .fig2b import FIG2B_CURVES, Fig2bResult, run_fig2b
from .fig3b import Fig3bResult, run_fig3b
from .fig3d import Fig3dResult, run_fig3d
from .fig3e import SCHEMES, Fig3eResult, run_fig3e
from .loss_sweep import (
    DEFAULT_LOSS_POINTS,
    LOSS_SWEEP_MODES,
    LossSweepResult,
    run_loss_sweep,
)
from .policy_comparison import (
    DEFAULT_POLICY_LOSS_POINTS,
    DEFAULT_POLICY_USER_COUNTS,
    POLICY_STACKS,
    PolicyComparisonResult,
    run_policy_comparison,
)
from .scaling import SCALING_SYSTEMS, ScalingResult, run_scaling
from .table1 import PAPER_TABLE1, Table1Result, Table1Row, run_table1
from .venue_scale import run_venue_scale, venue_from_params

__all__ = [
    "AP_POSITION",
    "CONTENT_CENTER",
    "DEFAULT_SEED",
    "cdf_at",
    "clear_fixture_caches",
    "default_channel",
    "default_codebook",
    "default_study",
    "default_video",
    "empirical_cdf",
    "format_table",
    "grid_for",
    "ideal_codebook",
    "study_in_room",
    "Fig2aResult",
    "run_fig2a",
    "FIG2B_CURVES",
    "Fig2bResult",
    "run_fig2b",
    "Fig3bResult",
    "run_fig3b",
    "Fig3dResult",
    "run_fig3d",
    "SCHEMES",
    "Fig3eResult",
    "run_fig3e",
    "DEFAULT_LOSS_POINTS",
    "LOSS_SWEEP_MODES",
    "LossSweepResult",
    "run_loss_sweep",
    "DEFAULT_POLICY_LOSS_POINTS",
    "DEFAULT_POLICY_USER_COUNTS",
    "POLICY_STACKS",
    "PolicyComparisonResult",
    "run_policy_comparison",
    "SCALING_SYSTEMS",
    "ScalingResult",
    "run_scaling",
    "run_venue_scale",
    "venue_from_params",
    "PAPER_TABLE1",
    "Table1Result",
    "Table1Row",
    "run_table1",
]
