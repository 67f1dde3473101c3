"""Experiment runners: one module per paper table/figure, plus ablations.

Every module registers one runner experiment; callers go through
``run_experiment(name, overrides)`` and read the merged dict.  Importing
the package registers them all, in presentation order.
"""

from . import ablations  # noqa: F401  (registers the six ablation_* studies)
from . import ablation_engine  # noqa: F401  (registers ablation_session/_importance)
from . import fig2a, fig2b, fig3b, fig3d, fig3e  # noqa: F401  (register)
from . import loss_sweep, policy_comparison, scaling, table1  # noqa: F401
from . import venue_scale  # noqa: F401  (registers venue_scale)
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
from .fig2b import FIG2B_CURVES
from .fig3e import SCHEMES
from .loss_sweep import DEFAULT_LOSS_POINTS, LOSS_SWEEP_MODES
from .policy_comparison import (
    DEFAULT_POLICY_LOSS_POINTS,
    DEFAULT_POLICY_USER_COUNTS,
    POLICY_STACKS,
)
from .scaling import SCALING_SYSTEMS
from .table1 import PAPER_TABLE1
from .venue_scale import venue_from_params

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
    "FIG2B_CURVES",
    "SCHEMES",
    "DEFAULT_LOSS_POINTS",
    "LOSS_SWEEP_MODES",
    "DEFAULT_POLICY_LOSS_POINTS",
    "DEFAULT_POLICY_USER_COUNTS",
    "POLICY_STACKS",
    "SCALING_SYSTEMS",
    "PAPER_TABLE1",
    "venue_from_params",
]
