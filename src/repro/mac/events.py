"""Link-event timelines: blockage, outage, recovery.

Turns a :class:`~repro.mmwave.blockage.BlockageTimeline` into a per-sample
*rate-multiplier* timeline for each user under a chosen recovery policy:

* **reactive**: the radio discovers the blockage only when RSS collapses;
  it suffers an outage for the beam re-search latency (5-20 ms), then comes
  back on a reflection beam at reduced rate until LoS returns.
* **proactive** (the paper's cross-layer scheme): multi-user viewport
  prediction forecasts the blockage ``lead_s`` ahead, so the AP switches to
  the reflection beam *before* the blocker arrives — no outage, only the
  reflection-path rate penalty.  Mispredicted events (a miss) degrade to
  reactive handling.

The streaming simulator multiplies each user's nominal link rate by this
timeline, which is how proactive mitigation shows up as fewer stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mmwave.blockage import BeamSearchLatency, BlockageTimeline
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["RecoveryPolicy", "LinkRateTimeline", "apply_recovery"]

_C_BLOCKAGES = _metrics.counter(
    "mac.blockage_events", unit="events", layer="mac",
    help="human-blockage intervals processed by the recovery policy",
)
_C_PROACTIVE = _metrics.counter(
    "mac.proactive_beam_switches", unit="events", layer="mac",
    help="blockages dodged by a predicted (proactive) beam switch",
)
_C_REACTIVE = _metrics.counter(
    "mac.reactive_outages", unit="events", layer="mac",
    help="blockages handled reactively: detection delay + beam re-search",
)
_EV_RECOVERY = _trace.event_type(
    "mac.beam_recovery", layer="mac",
    help="one blockage interval was resolved (beam decision: proactive "
         "switch vs. reactive re-search); emitted before the session runs, "
         "with t = the blockage onset",
    fields=("user", "predicted", "duration_s", "outage_s"),
)


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the AP reacts to human blockage events."""

    proactive: bool
    # Rate on the fallback (reflection) beam relative to LoS. A wall
    # reflection costs ~8 dB, typically a few MCS steps.
    reflection_rate_fraction: float = 0.55
    # How far ahead the viewport predictor can flag a blockage.
    lead_s: float = 0.5
    # Probability a real event was predicted in time (predictor recall).
    prediction_recall: float = 0.9
    search_latency: BeamSearchLatency = BeamSearchLatency()
    # A *reactive* radio first has to notice the beam died: MCS-retry
    # cascades and rate-adaptation lag before the sector sweep even starts
    # (~100 ms in 802.11ad measurement studies such as BeamSpy).  The
    # proactive scheme pays none of this — the switch happens on the
    # predicted schedule.
    detection_delay_s: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 <= self.reflection_rate_fraction <= 1.0:
            raise ValueError("reflection_rate_fraction must be in [0, 1]")
        if not 0.0 <= self.prediction_recall <= 1.0:
            raise ValueError("prediction_recall must be in [0, 1]")

    @staticmethod
    def reactive() -> "RecoveryPolicy":
        return RecoveryPolicy(proactive=False)

    @staticmethod
    def proactive_default() -> "RecoveryPolicy":
        return RecoveryPolicy(proactive=True)


@dataclass(frozen=True)
class LinkRateTimeline:
    """Per-user, per-sample multiplier on the nominal link rate.

    1.0 = unobstructed LoS; 0.0 = outage (searching); intermediate =
    operating on a reflection beam.
    """

    multiplier: np.ndarray  # (num_users, num_samples) in [0, 1]
    rate_hz: float

    def mean_rate_fraction(self, user: int) -> float:
        return float(np.mean(self.multiplier[user]))

    def outage_fraction(self, user: int) -> float:
        return float(np.mean(self.multiplier[user] <= 0.0))


def apply_recovery(
    timeline: BlockageTimeline,
    policy: RecoveryPolicy,
    seed: int = 0,
) -> LinkRateTimeline:
    """Expand a blockage timeline into rate multipliers under a policy."""
    rng = np.random.default_rng(seed)
    n_users, n_samples = timeline.blocked.shape
    dt = 1.0 / timeline.rate_hz
    mult = np.ones((n_users, n_samples), dtype=np.float64)

    for user in range(n_users):
        for start, end in timeline.events(user):
            _C_BLOCKAGES.inc()
            predicted = policy.proactive and (
                rng.random() < policy.prediction_recall
            )
            if predicted:
                # Beam already on the reflection path when the blocker
                # arrives; hold it for the whole blocked interval.
                mult[user, start:end] = policy.reflection_rate_fraction
                _C_PROACTIVE.inc()
                outage_s = 0.0
            else:
                # Dead air until the loss is detected and the re-search
                # completes, then the reflection beam carries the rest.
                latency = policy.detection_delay_s + policy.search_latency.sample(
                    rng
                )
                outage_samples = int(np.ceil(latency / dt))
                cut = min(end, start + max(1, outage_samples))
                mult[user, start:cut] = 0.0
                mult[user, cut:end] = policy.reflection_rate_fraction
                _C_REACTIVE.inc()
                outage_s = (cut - start) * dt
            if _trace._RECORDER is not None:
                _EV_RECOVERY.emit(
                    t=start * dt,
                    user=user,
                    predicted=predicted,
                    duration_s=(end - start) * dt,
                    outage_s=outage_s,
                )
    return LinkRateTimeline(multiplier=mult, rate_hz=timeline.rate_hz)
