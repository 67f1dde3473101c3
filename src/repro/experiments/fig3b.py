"""Fig. 3b: CDF of the best common RSS the *default codebook* can offer
multicast groups of 1, 2 and 3 users.

The paper measures, over user positions from the viewport traces, the
maximum RSS (over default sector beams) that can be guaranteed to *every*
member of a multicast group — and finds that an RSS of -68 dBm (enough for
the 550K-point quality) is available at ~96.5% of positions for one user
but only ~79% / ~60% for groups of two / three: default single-lobe beams
cannot cover a spread-out group.
"""

from __future__ import annotations

import numpy as np

from ..mmwave import bodies_from_positions
from ..runner import Experiment, RunSpec, register
from .common import (
    DEFAULT_SEED,
    cdf_at,
    default_channel,
    default_codebook,
    study_in_room,
)

__all__ = ["run_one", "group_samples", "coverage", "RSS_TARGET_DBM"]

RSS_TARGET_DBM = -68.0  # "approximately 384 Mbps ... necessary for 550K points"


def run_one(spec: RunSpec) -> dict:
    """Whole sweep in one unit: the RNG draws interleave across group sizes."""
    return _compute(
        group_sizes=tuple(int(k) for k in spec.get("group_sizes")),
        num_instants=int(spec.get("num_instants")),
        num_users=int(spec.get("num_users")),
        duration_s=float(spec.get("duration_s")),
        seed=spec.seed,
    )


def group_samples(merged: dict) -> dict[int, np.ndarray]:
    """Max-common-RSS samples (dBm) per group size."""
    return {
        int(g["group_size"]): np.array(g["rss_dbm"], dtype=np.float64)
        for g in merged["groups"]
    }


def coverage(merged: dict) -> dict[int, float]:
    """Per group size: fraction of positions with common RSS >= -68 dBm."""
    return {
        k: 1.0 - cdf_at(samples, RSS_TARGET_DBM - 1e-9)
        for k, samples in sorted(group_samples(merged).items())
    }


def _format(merged: dict) -> str:
    return "\n".join(
        f"{k} user(s): coverage@-68dBm = {cov:.3f}"
        for k, cov in coverage(merged).items()
    )


EXPERIMENT = register(
    Experiment(
        name="fig3b",
        title="Fig. 3b — default-codebook multicast coverage",
        run_one=run_one,
        format_result=_format,
        default_params={
            "group_sizes": (1, 2, 3),
            "num_instants": 120,
            "num_users": 4,
            "duration_s": 10.0,
            "seed": DEFAULT_SEED,
        },
        small_params={"num_instants": 20},
    )
)


def _compute(
    group_sizes: tuple[int, ...],
    num_instants: int,
    num_users: int,
    duration_s: float,
    seed: int,
) -> dict:
    """For each sampled instant a random group of each size is drawn; the best
    common RSS is the max over codebook beams of the min over members.  The
    other users present in the room act as blockers (their bodies attenuate
    the paths), which creates the low-RSS tail of the measured CDFs.
    """
    study = study_in_room(num_users=num_users, duration_s=duration_s, seed=seed)
    channel = default_channel()
    codebook = default_codebook()
    weight_matrix = codebook.weight_matrix
    rng = np.random.default_rng(seed)

    sample_indices = rng.integers(0, study.num_samples, size=num_instants)
    samples: dict[int, list[float]] = {k: [] for k in group_sizes}
    for s in sample_indices:
        positions = study.positions_at(int(s))
        # Per-user RSS of every beam at this instant (users, beams), with
        # every *other* user's body as a potential blocker.
        rss = np.stack(
            [
                channel.rss_matrix_dbm(
                    weight_matrix, pos, bodies_from_positions(positions, exclude=u)
                )
                for u, pos in enumerate(positions)
            ]
        )
        for k in group_sizes:
            members = rng.choice(num_users, size=k, replace=False)
            common = rss[members].min(axis=0)  # min over group, per beam
            samples[k].append(float(common.max()))  # best beam
    return {
        "groups": [
            {"group_size": int(k), "rss_dbm": samples[k]} for k in sorted(samples)
        ]
    }
