"""Systematic rateless-style FEC for multicast delivery.

Per-receiver ACKs do not scale to multicast groups, so instead of reacting
to losses the sender transmits the ``k`` source PDUs plus enough repair
PDUs that every member can reconstruct the block from *any*
``k·(1 + decode_inefficiency)`` received PDUs — the decoding behaviour of
rateless (LT/Raptor-style) codes.  The group's weakest member (highest
per-packet loss) dictates the repair budget: redundancy is sized so that
member still collects a decodable set with probability
``1 - target_residual``.

No feedback rounds, no retransmissions: one transmission, fixed overhead,
deterministic airtime — which is exactly why FEC multicast keeps its frame
rate where ARQ-only multicast collapses against the frame deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FecConfig",
    "decode_threshold",
    "total_packets_needed",
    "sample_decodes",
]


@dataclass(frozen=True)
class FecConfig:
    """Redundancy policy for one FEC-protected block.

    ``overhead`` fixes the repair fraction (``n = k·(1 + overhead)``);
    ``None`` sizes it adaptively from the weakest member's loss rate.
    """

    overhead: float | None = None
    decode_inefficiency: float = 0.02  # rateless codes need k·(1+ε) symbols
    target_residual: float = 1e-3  # adaptive mode: P(member fails to decode)
    max_overhead: float = 4.0  # never send more than (1+this)·k packets

    def __post_init__(self) -> None:
        if self.overhead is not None and self.overhead < 0:
            raise ValueError("overhead must be non-negative")
        if self.decode_inefficiency < 0:
            raise ValueError("decode_inefficiency must be non-negative")
        if not 0.0 < self.target_residual < 1.0:
            raise ValueError("target_residual must be in (0, 1)")
        if self.max_overhead <= 0:
            raise ValueError("max_overhead must be positive")


def decode_threshold(k: int, config: FecConfig = FecConfig()) -> int:
    """Received PDUs a member needs to reconstruct a ``k``-packet block."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 0
    return max(k, int(math.ceil(k * (1.0 + config.decode_inefficiency))))


def total_packets_needed(
    k: int, worst_per: float, config: FecConfig = FecConfig()
) -> int:
    """Source + repair PDUs to transmit for a ``k``-packet block.

    Adaptive mode solves for the smallest ``n`` whose received count at the
    weakest member — mean ``n·(1-p)``, normal-approximated — clears the
    decode threshold with ``target_residual`` failure probability.  A cap of
    ``k·(1 + max_overhead)`` bounds the spend against outage-grade loss.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0.0 <= worst_per <= 1.0:
        raise ValueError("worst_per must be in [0, 1]")
    if k == 0:
        return 0
    k_eff = decode_threshold(k, config)
    cap = int(math.ceil(k * (1.0 + config.max_overhead)))
    if config.overhead is not None:
        return min(cap, max(k_eff, int(math.ceil(k * (1.0 + config.overhead)))))
    p = worst_per
    if p >= 1.0:
        return cap
    if p <= 0.0:
        return k_eff
    q = 1.0 - p
    # Solve n·q - z·sqrt(n·p·q) >= k_eff for n (quadratic in sqrt(n)).
    z = _normal_quantile(1.0 - config.target_residual)
    root = (z * math.sqrt(p * q) + math.sqrt(z * z * p * q + 4.0 * q * k_eff)) / (
        2.0 * q
    )
    n = int(math.ceil(root * root))
    return min(cap, max(n, k_eff))


def sample_decodes(
    rng: np.random.Generator,
    k: int,
    n_sent: int,
    pers: list[float],
    config: FecConfig = FecConfig(),
) -> tuple[bool, ...]:
    """Whether each member decodes a block of ``n_sent`` transmitted PDUs.

    Each member independently receives ``Binomial(n_sent, 1 - per)`` PDUs
    and decodes iff that clears the threshold — so a deadline-truncated
    transmission (``n_sent`` below plan) degrades gracefully instead of
    failing outright.
    """
    if n_sent < 0:
        raise ValueError("n_sent must be non-negative")
    k_eff = decode_threshold(k, config)
    results = []
    for per in pers:
        if not 0.0 <= per <= 1.0:
            raise ValueError("per must be in [0, 1]")
        if k == 0:
            results.append(True)
        elif n_sent < k_eff or per >= 1.0:
            results.append(False)
        elif per <= 0.0:
            results.append(True)
        else:
            received = int(rng.binomial(n_sent, 1.0 - per))
            results.append(received >= k_eff)
    return tuple(results)


def _normal_quantile(prob: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must be in (0, 1)")
    # Coefficients for the central and tail rational approximations.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if prob < p_low:
        q = math.sqrt(-2.0 * math.log(prob))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if prob > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - prob))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = prob - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )
