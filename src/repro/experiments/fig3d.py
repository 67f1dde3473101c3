"""Fig. 3d: common RSS for 2-user multicast — default vs. customized beams.

The paper runs this comparison in the Remcom Wireless InSite channel
simulator ("we run the multicast for two users with our custom beams and
default beams in a commercial mmWave channel simulator"), i.e. with ideal
(continuous-phase) beams; our stand-in is the room ray tracer with the
ideal codebook (DESIGN.md §1).  User pairs are placed uniformly across the
room so the sweep covers both angularly-close pairs (where the default
common beam suffices — the paper's "directly use the default common beam"
case) and separated pairs (where the multi-lobe beam wins).

The headline quantity is the rightward shift of the common-RSS CDF — the
"Max. Common RSS improvement" the paper circles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mmwave import combine_weights
from ..runner import Experiment, RunSpec, register, run_experiment
from .common import DEFAULT_SEED, default_channel, ideal_codebook

__all__ = ["Fig3dResult", "run_fig3d", "run_one"]


@dataclass(frozen=True)
class Fig3dResult:
    """Common-RSS samples for the two beam strategies (paired per placement)."""

    default_rss: np.ndarray
    custom_rss: np.ndarray

    def mean_improvement_db(self) -> float:
        return float(np.mean(self.custom_rss - self.default_rss))

    def max_common_rss_improvement_db(self) -> float:
        """Improvement at the distribution's top end (95th percentiles)."""
        return float(
            np.percentile(self.custom_rss, 95) - np.percentile(self.default_rss, 95)
        )

    def median_improvement_db(self) -> float:
        return float(np.median(self.custom_rss) - np.median(self.default_rss))

    def win_fraction(self) -> float:
        """Fraction of placements where the custom beam strictly wins."""
        return float(np.mean(self.custom_rss > self.default_rss + 1e-9))


def run_one(spec: RunSpec) -> dict:
    """One unit: the placement RNG stream spans all sampled instants."""
    result = _compute(
        num_instants=int(spec.get("num_instants")), seed=spec.seed
    )
    return {
        "default_rss_dbm": [float(x) for x in result.default_rss],
        "custom_rss_dbm": [float(x) for x in result.custom_rss],
    }


def _result_from_merged(merged: dict) -> Fig3dResult:
    return Fig3dResult(
        default_rss=np.array(merged["default_rss_dbm"], dtype=np.float64),
        custom_rss=np.array(merged["custom_rss_dbm"], dtype=np.float64),
    )


def _format(merged: dict) -> str:
    result = _result_from_merged(merged)
    return (
        f"mean improvement  : {result.mean_improvement_db():+.2f} dB\n"
        f"median improvement: {result.median_improvement_db():+.2f} dB\n"
        f"custom-beam wins  : {result.win_fraction() * 100:.0f}%"
    )


EXPERIMENT = register(
    Experiment(
        name="fig3d",
        title="Fig. 3d — default vs. custom multicast beams",
        run_one=run_one,
        format_result=_format,
        default_params={"num_instants": 150, "seed": DEFAULT_SEED},
        small_params={"num_instants": 40},
    )
)


def run_fig3d(
    num_instants: int = 150,
    seed: int = DEFAULT_SEED,
) -> Fig3dResult:
    """Compare default-common vs. custom multi-lobe beams for 2-user groups.

    The custom candidate combines each member's best individual codebook
    beam with the paper's RSS-weighted rule; following the paper's
    observation that already-covered groups should keep the default beam,
    the effective custom RSS is the better of the two candidates.
    """
    merged = run_experiment(
        "fig3d", {"num_instants": num_instants, "seed": seed}
    )
    return _result_from_merged(merged)


def _compute(num_instants: int, seed: int) -> Fig3dResult:
    channel = default_channel()
    codebook = ideal_codebook()
    weight_matrix = codebook.weight_matrix
    rng = np.random.default_rng(seed)
    room = channel.room

    default_samples = []
    custom_samples = []
    for _ in range(num_instants):
        positions = [
            np.array(
                [
                    rng.uniform(0.8, room.width - 0.8),
                    rng.uniform(2.0, room.length - 1.0),
                    rng.uniform(1.2, 1.7),
                ]
            )
            for _ in range(2)
        ]

        per_user_rss = np.stack(
            [channel.rss_matrix_dbm(weight_matrix, pos) for pos in positions]
        )
        common = per_user_rss.min(axis=0)
        default_common = float(common.max())
        default_samples.append(default_common)

        best_beams = [int(np.argmax(per_user_rss[i])) for i in range(2)]
        combined = combine_weights(
            [codebook[b].weights for b in best_beams],
            [float(per_user_rss[i, b]) for i, b in enumerate(best_beams)],
        )
        combined_common = min(
            channel.rss_dbm(combined, pos) for pos in positions
        )
        custom_samples.append(max(default_common, float(combined_common)))

    return Fig3dResult(
        default_rss=np.array(default_samples),
        custom_rss=np.array(custom_samples),
    )
