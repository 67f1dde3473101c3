"""Transport-layer configuration and presets.

``TransportConfig(mode="ideal")`` is the default everywhere and reproduces
the fluid transfer-time model bit-for-bit — no packetization, no loss —
so every pre-existing experiment keeps its numbers.  The other modes engage
the packet-level pipeline:

* ``"arq"``    — block-ACK retransmission for unicast *and* multicast
  (the ARQ-only baseline whose multicast leg collapses under loss);
* ``"fec"``    — rateless-style FEC everywhere, no feedback;
* ``"hybrid"`` — the cross-layer recommendation: FEC for multicast
  (per-receiver ACKs don't scale), ARQ for unicast residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .arq import ArqConfig
from .errormodel import PacketErrorModel
from .fec import FecConfig
from .packetization import PacketizationConfig

__all__ = ["TRANSPORT_MODES", "TransportConfig"]

TRANSPORT_MODES = ("ideal", "arq", "fec", "hybrid")


@dataclass(frozen=True)
class TransportConfig:
    """Everything the packet-level transport simulator needs."""

    mode: str = "ideal"
    packetization: PacketizationConfig = field(default_factory=PacketizationConfig)
    error_model: PacketErrorModel = field(default_factory=PacketErrorModel)
    arq: ArqConfig = field(default_factory=ArqConfig)
    fec: FecConfig = field(default_factory=FecConfig)
    # Loss-recovery budget per frame, in units of the frame interval 1/F:
    # ARQ rounds and FEC transmission must finish within this much time or
    # the frame is late (undelivered) for the members still missing data.
    deadline_frames: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in TRANSPORT_MODES:
            raise ValueError(
                f"unknown transport mode {self.mode!r}; pick from {TRANSPORT_MODES}"
            )
        if self.deadline_frames <= 0:
            raise ValueError("deadline_frames must be positive")

    @property
    def is_ideal(self) -> bool:
        return self.mode == "ideal"

    def deadline_s(self, target_fps: float) -> float:
        """The per-frame recovery budget in seconds at a frame rate."""
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        return self.deadline_frames / target_fps

    def multicast_scheme(self) -> str:
        """Recovery scheme for multicast transmissions: ``arq`` or ``fec``."""
        return "arq" if self.mode == "arq" else "fec"

    def unicast_scheme(self) -> str:
        """Recovery scheme for unicast transmissions: ``arq`` or ``fec``."""
        return "fec" if self.mode == "fec" else "arq"

    def with_base_per(self, base_per: float | None) -> "TransportConfig":
        """A copy with the error model pinned to a fixed per-packet loss."""
        return replace(
            self, error_model=replace(self.error_model, base_per=base_per)
        )

    # -- presets ---------------------------------------------------------

    @classmethod
    def ideal(cls) -> "TransportConfig":
        return cls(mode="ideal")

    @classmethod
    def arq_only(cls, base_per: float | None = None, **kwargs) -> "TransportConfig":
        return cls(
            mode="arq", error_model=PacketErrorModel(base_per=base_per), **kwargs
        )

    @classmethod
    def fec_only(cls, base_per: float | None = None, **kwargs) -> "TransportConfig":
        return cls(
            mode="fec", error_model=PacketErrorModel(base_per=base_per), **kwargs
        )

    @classmethod
    def hybrid(cls, base_per: float | None = None, **kwargs) -> "TransportConfig":
        return cls(
            mode="hybrid", error_model=PacketErrorModel(base_per=base_per), **kwargs
        )

    @classmethod
    def preset(cls, mode: str, base_per: float | None = None) -> "TransportConfig":
        """Preset by mode name (loss_sweep's ``modes``, e.g. ``--set modes=fec``)."""
        if mode == "ideal":
            return cls.ideal()
        if mode == "arq":
            return cls.arq_only(base_per)
        if mode == "fec":
            return cls.fec_only(base_per)
        if mode == "hybrid":
            return cls.hybrid(base_per)
        raise ValueError(
            f"unknown transport mode {mode!r}; pick from {TRANSPORT_MODES}"
        )
