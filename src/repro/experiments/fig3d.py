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

import numpy as np

from ..mmwave import combine_weights
from ..runner import Experiment, RunSpec, register
from .common import DEFAULT_SEED, default_channel, ideal_codebook

__all__ = ["run_one", "rss_samples", "summary"]


def run_one(spec: RunSpec) -> dict:
    """One unit: the placement RNG stream spans all sampled instants.

    The custom candidate combines each member's best individual codebook
    beam with the paper's RSS-weighted rule; following the paper's
    observation that already-covered groups should keep the default beam,
    the effective custom RSS is the better of the two candidates.
    """
    return _compute(num_instants=int(spec.get("num_instants")), seed=spec.seed)


def rss_samples(merged: dict) -> tuple[np.ndarray, np.ndarray]:
    """Paired common-RSS samples (dBm): (default beams, custom beams)."""
    return (
        np.array(merged["default_rss_dbm"], dtype=np.float64),
        np.array(merged["custom_rss_dbm"], dtype=np.float64),
    )


def summary(merged: dict) -> dict[str, float]:
    """Mean/median common-RSS improvement (dB) and the custom-beam win rate."""
    default, custom = rss_samples(merged)
    return {
        "mean_improvement_db": float(np.mean(custom - default)),
        "median_improvement_db": float(np.median(custom) - np.median(default)),
        "win_fraction": float(np.mean(custom > default + 1e-9)),
    }


def _format(merged: dict) -> str:
    s = summary(merged)
    return (
        f"mean improvement  : {s['mean_improvement_db']:+.2f} dB\n"
        f"median improvement: {s['median_improvement_db']:+.2f} dB\n"
        f"custom-beam wins  : {s['win_fraction'] * 100:.0f}%"
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


def _compute(num_instants: int, seed: int) -> dict:
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

    return {"default_rss_dbm": default_samples, "custom_rss_dbm": custom_samples}
