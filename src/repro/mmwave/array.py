"""Phased-array antenna model: steering vectors, weights, radiation patterns.

Models the AP's 60 GHz phased array (the paper's Airfide AP carries 8 patch
arrays; we model the active aperture as a uniform planar array).  Everything
the beam code needs reduces to two operations:

* the **steering vector** ``a(az, el)`` — per-element phase for a plane wave
  leaving in direction (az, el);
* the **array factor** ``|w^H a|^2`` — transmit gain of weight vector ``w``
  in a direction.

Weight vectors are complex, normalized to unit total power (``||w|| = 1``),
which is exactly the "constraining the total transmission power" condition
of the paper's multi-lobe combining rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PhasedArray"]

SPEED_OF_LIGHT = 299_792_458.0
CARRIER_HZ = 60.48e9  # 802.11ad channel 2 center frequency
WAVELENGTH_M = SPEED_OF_LIGHT / CARRIER_HZ


@dataclass(frozen=True)
class PhasedArray:
    """A uniform planar array in the YZ plane, boresight along +X.

    Azimuth steers in the XY plane (around Z), elevation toward +Z — the
    same convention as :func:`repro.geometry.vec.azimuth_elevation`, so a
    world-space direction converts directly into steering angles when the
    array boresight points along +X.

    Attributes:
        ny, nz: elements along the Y and Z axes (default 8x4 = 32 elements,
            typical of QCA9500-class 802.11ad modules).
        spacing_m: element pitch (default half-wavelength).
        element_gain_dbi: per-element gain (patch element, ~5 dBi).
    """

    ny: int = 8
    nz: int = 4
    spacing_m: float = WAVELENGTH_M / 2.0
    element_gain_dbi: float = 5.0
    _positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.ny <= 0 or self.nz <= 0:
            raise ValueError("array dimensions must be positive")
        if self.spacing_m <= 0:
            raise ValueError("spacing must be positive")
        ys = (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.spacing_m
        zs = (np.arange(self.nz) - (self.nz - 1) / 2.0) * self.spacing_m
        yy, zz = np.meshgrid(ys, zs, indexing="ij")
        pos = np.stack(
            [np.zeros(self.num_elements), yy.ravel(), zz.ravel()], axis=1
        )
        object.__setattr__(self, "_positions", pos)

    @property
    def num_elements(self) -> int:
        return self.ny * self.nz

    @property
    def positions(self) -> np.ndarray:
        """Element positions, shape ``(N, 3)``, meters, array frame."""
        return self._positions

    # -- steering and patterns ----------------------------------------------

    def steering_vector(self, az: float, el: float) -> np.ndarray:
        """Unit-magnitude per-element phases toward (az, el), shape ``(N,)``."""
        direction = np.array(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
        )
        phase = 2.0 * np.pi / WAVELENGTH_M * (self._positions @ direction)
        return np.exp(1j * phase)

    def steering_vectors(self, az: np.ndarray, el: np.ndarray) -> np.ndarray:
        """Vectorized steering vectors, shape ``(M, N)`` for M directions."""
        az = np.asarray(az, dtype=np.float64)
        el = np.asarray(el, dtype=np.float64)
        direction = np.stack(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)],
            axis=1,
        )
        phase = 2.0 * np.pi / WAVELENGTH_M * (direction @ self._positions.T)
        return np.exp(1j * phase)

    def weights_toward(self, az: float, el: float) -> np.ndarray:
        """Conjugate-steered unit-power weights for one beam at (az, el)."""
        a = self.steering_vector(az, el)
        return np.conj(a) / np.sqrt(self.num_elements)

    def gain_dbi(self, weights: np.ndarray, az: float, el: float) -> float:
        """Transmit gain (dBi) of ``weights`` in direction (az, el).

        With unit-power weights, a perfectly steered beam reaches
        ``10 log10(N) + element_gain_dbi`` — e.g. ~20 dBi for the default
        32-element array.
        """
        return float(self.gain_dbi_many(weights, np.array([az]), np.array([el]))[0])

    def gain_dbi_many(
        self, weights: np.ndarray, az: np.ndarray, el: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`gain_dbi` over many directions."""
        weights = np.asarray(weights, dtype=np.complex128)
        if weights.shape != (self.num_elements,):
            raise ValueError(
                f"weights must have shape ({self.num_elements},), got {weights.shape}"
            )
        a = self.steering_vectors(az, el)  # (M, N)
        # Transmit array factor: field toward direction d is sum_k w_k *
        # exp(j k r_k . d) = a^T w (no conjugation — the conjugate-steered
        # weight w = conj(a)/sqrt(N) then yields the full factor N).
        af = np.abs(a @ weights) ** 2  # array factor power
        # Normalize so ||w||=1 and perfect steering gives a factor of N.
        power = float(np.vdot(weights, weights).real)
        if power < 1e-15:
            return np.full(len(np.atleast_1d(az)), -np.inf)
        af = af / power
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(np.maximum(af, 1e-12)) + self.element_gain_dbi

    def quantize_phases(self, weights: np.ndarray, bits: int) -> np.ndarray:
        """Quantize weights to ``bits``-bit phase shifters at unit power.

        Commodity 802.11ad front-ends (e.g. QCA9500) control each element
        with a coarse 2-bit phase shifter and no amplitude control.  The
        quantization raises sidelobe levels substantially, which is why
        default codebook beams spill energy across the room — an effect the
        multicast coverage experiments depend on.
        """
        if bits < 1:
            raise ValueError("bits must be >= 1")
        weights = np.asarray(weights, dtype=np.complex128)
        step = 2.0 * np.pi / (2**bits)
        phase = np.round(np.angle(weights) / step) * step
        return np.exp(1j * phase) / np.sqrt(weights.shape[-1])
