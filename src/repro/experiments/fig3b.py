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

from dataclasses import dataclass

import numpy as np

from ..runner import Experiment, RunSpec, register, run_experiment
from .common import (
    DEFAULT_SEED,
    cdf_at,
    default_channel,
    default_codebook,
    study_in_room,
)

__all__ = ["Fig3bResult", "run_fig3b", "run_one"]

RSS_TARGET_DBM = -68.0  # "approximately 384 Mbps ... necessary for 550K points"


@dataclass(frozen=True)
class Fig3bResult:
    """Max-common-RSS samples per group size."""

    samples: dict[int, np.ndarray]

    def coverage_at(self, group_size: int, rss_dbm: float = RSS_TARGET_DBM) -> float:
        """Fraction of sampled positions with common RSS >= threshold."""
        return 1.0 - cdf_at(self.samples[group_size], rss_dbm - 1e-9)

    def summary(self) -> dict[int, float]:
        return {k: self.coverage_at(k) for k in sorted(self.samples)}


def run_one(spec: RunSpec) -> dict:
    """Whole sweep in one unit: the RNG draws interleave across group sizes."""
    result = _compute(
        group_sizes=tuple(int(k) for k in spec.get("group_sizes")),
        num_instants=int(spec.get("num_instants")),
        num_users=int(spec.get("num_users")),
        duration_s=float(spec.get("duration_s")),
        seed=spec.seed,
    )
    return {
        "groups": [
            {"group_size": int(k), "rss_dbm": [float(x) for x in result.samples[k]]}
            for k in sorted(result.samples)
        ]
    }


def _result_from_merged(merged: dict) -> Fig3bResult:
    return Fig3bResult(
        samples={
            int(g["group_size"]): np.array(g["rss_dbm"], dtype=np.float64)
            for g in merged["groups"]
        }
    )


def _format(merged: dict) -> str:
    result = _result_from_merged(merged)
    return "\n".join(
        f"{k} user(s): coverage@-68dBm = {cov:.3f}"
        for k, cov in sorted(result.summary().items())
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


def run_fig3b(
    group_sizes: tuple[int, ...] = (1, 2, 3),
    num_instants: int = 120,
    num_users: int = 4,
    duration_s: float = 10.0,
    seed: int = DEFAULT_SEED,
) -> Fig3bResult:
    """Sweep default-codebook multicast coverage over trace positions."""
    merged = run_experiment(
        "fig3b",
        {
            "group_sizes": tuple(group_sizes),
            "num_instants": num_instants,
            "num_users": num_users,
            "duration_s": duration_s,
            "seed": seed,
        },
    )
    return _result_from_merged(merged)


def _compute(
    group_sizes: tuple[int, ...],
    num_instants: int,
    num_users: int,
    duration_s: float,
    seed: int,
) -> Fig3bResult:
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
        from ..mmwave import bodies_from_positions

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
    return Fig3bResult(samples={k: np.array(v) for k, v in samples.items()})
