"""Custom multi-lobe beam design for mmWave multicast (paper §4.2).

The paper's key PHY-layer idea: the default single-lobe sector beams cannot
give *all* members of a multicast group a high RSS, and the group rate is
pinned to the weakest member.  Instead, combine the per-user steered weight
vectors into one multi-lobe beam, weighting each user's component by the
*other* users' RSS so the weaker link gets the larger share of power:

    w = (Δ2·w1 + Δ1·w2) / (Δ1 + Δ2),        then renormalize ||w|| = 1

(Δi is user i's RSS in linear scale; the renormalization enforces the total
transmit-power constraint).  For k > 2 the same principle generalizes with
coefficients proportional to the mean RSS of the *other* members.

Only per-user RSS is needed — not full CSI — matching the paper's point
that separated users have independent receive chains.  Because the group
rate is pinned to its weakest member, the paper keeps "the default common
beam" when it already serves the group better:
:func:`multicast_common_rss_dbm` returns both candidates' group-minimum
RSS so a caller keeps the larger one.
"""

from __future__ import annotations

import numpy as np

from ..geometry import VerticalCylinder
from .channel import Channel
from .codebook import Beam, Codebook

__all__ = [
    "combine_weights",
    "best_unicast_beam",
    "best_common_beam",
    "multicast_common_rss_dbm",
]


def combine_weights(
    weight_vectors: list[np.ndarray], rss_dbm: list[float]
) -> np.ndarray:
    """Combine per-user beams into one multi-lobe beam (power-normalized).

    Implements the paper's rule for two users and its natural k-user
    generalization: coefficient of user i's beam is the average linear RSS
    of the *other* users, so power flows toward the weaker links.
    """
    if len(weight_vectors) != len(rss_dbm):
        raise ValueError("need one RSS per weight vector")
    if not weight_vectors:
        raise ValueError("need at least one weight vector")
    if len(weight_vectors) == 1:
        w = np.asarray(weight_vectors[0], dtype=np.complex128)
        return w / np.linalg.norm(w)

    linear = np.array([10.0 ** (r / 10.0) for r in rss_dbm], dtype=np.float64)
    if np.any(~np.isfinite(linear)):
        raise ValueError("RSS values must be finite")
    total = float(linear.sum())
    k = len(linear)
    combined = np.zeros_like(
        np.asarray(weight_vectors[0], dtype=np.complex128)
    )
    for w, own in zip(weight_vectors, linear):
        coeff = (total - own) / (k - 1)  # mean RSS of the other users
        combined = combined + coeff * np.asarray(w, dtype=np.complex128)
    norm = np.linalg.norm(combined)
    if norm < 1e-15:
        raise ValueError("combined beam is degenerate (opposing weights)")
    return combined / norm


def best_unicast_beam(
    channel: Channel,
    codebook: Codebook,
    rx_position: np.ndarray,
    bodies: tuple[VerticalCylinder, ...] = (),
) -> tuple[Beam, float]:
    """Exhaustive sector sweep: the codebook beam with the highest RSS."""
    rss = channel.rss_matrix_dbm(codebook.weight_matrix, rx_position, bodies)
    best = int(np.argmax(rss))
    return codebook[best], float(rss[best])


def best_common_beam(
    channel: Channel,
    codebook: Codebook,
    rx_positions: list[np.ndarray],
    bodies: tuple[VerticalCylinder, ...] = (),
) -> tuple[Beam, float]:
    """The default-codebook multicast beam: maximize the group-minimum RSS.

    This is the best a commodity codebook can do for a group, and is what
    Fig. 3b evaluates.
    """
    if not rx_positions:
        raise ValueError("need at least one receiver")
    weight_matrix = codebook.weight_matrix
    per_user = np.stack(
        [channel.rss_matrix_dbm(weight_matrix, pos, bodies) for pos in rx_positions]
    )  # (U, B)
    group_min = per_user.min(axis=0)
    best = int(np.argmax(group_min))
    return codebook[best], float(group_min[best])


def multicast_common_rss_dbm(
    channel: Channel,
    codebook: Codebook,
    rx_positions: list[np.ndarray],
    bodies: list[tuple[VerticalCylinder, ...]] | None = None,
) -> tuple[float, float]:
    """Group-minimum RSS (dBm) of a multicast group's two beam candidates.

    Returns ``(default_dbm, custom_dbm)``: the best common codebook beam's
    group minimum, and the group minimum of the multi-lobe beam that
    :func:`combine_weights` builds from each member's best codebook beam.
    ``bodies`` holds one blocker tuple per member (each receiver's sweep
    excludes their own body); ``None`` means no blockers.  The caller keeps
    the better candidate, in dBm or in rate.
    """
    if not rx_positions:
        raise ValueError("need at least one receiver")
    if bodies is None:
        bodies = [()] * len(rx_positions)
    elif len(bodies) != len(rx_positions):
        raise ValueError(
            f"need one blocker tuple per receiver: got {len(bodies)} for "
            f"{len(rx_positions)} receivers"
        )
    weight_matrix = codebook.weight_matrix
    per_user = np.stack(
        [
            channel.rss_matrix_dbm(weight_matrix, pos, blockers)
            for pos, blockers in zip(rx_positions, bodies)
        ]
    )  # (U, B)
    default_dbm = float(per_user.min(axis=0).max())
    best_beams = [int(np.argmax(row)) for row in per_user]
    combined = combine_weights(
        [codebook[b].weights for b in best_beams],
        [float(per_user[i, b]) for i, b in enumerate(best_beams)],
    )
    custom_dbm = min(
        channel.rss_dbm(combined, pos, blockers)
        for pos, blockers in zip(rx_positions, bodies)
    )
    return default_dbm, float(custom_dbm)
