"""Visibility-aware cell selection — the ViVo optimizations.

ViVo reduces volumetric streaming data through three "visibility-aware"
optimizations, all reproduced here on the cell grid:

* **Viewport visibility**: only cells whose AABB intersects the user's view
  frustum are fetched (frustum culling).
* **Occlusion visibility**: cells hidden behind dense nearer cells along the
  sight line are skipped.  We reproduce this with per-cell ray casting: the
  ray from the eye to a cell accumulates the point mass of the cells it
  crosses first, and the target is culled once that mass makes the surface
  in front opaque.
* **Distance visibility**: point density a user can perceive falls with
  distance, so far cells are fetched at reduced density (a fetch fraction).

:func:`compute_visibility` returns both the visible cell set (what Fig. 2's
IoU similarity is computed on) and the nominal point/byte cost (what the
streaming simulator charges to the network).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry import Frustum, cull_aabbs
from .cells import FrameOccupancy
from .compression import CompressionModel, DEFAULT_COMPRESSION

__all__ = [
    "VisibilityConfig",
    "VisibilityResult",
    "compute_visibility",
    "compute_visibility_batch",
]


@dataclass(frozen=True)
class VisibilityConfig:
    """Which ViVo optimizations are active and their parameters.

    ``VisibilityConfig.vanilla()`` disables everything (fetch the full
    cloud); the default enables all three, matching the paper's "multi-user
    ViVo" player.
    """

    viewport: bool = True
    occlusion: bool = True
    distance: bool = True
    # Occlusion: a cell is culled when the cells crossed by the sight ray
    # in front of it carry at least this fraction of the frame's points —
    # i.e. the surface in front of it is opaque.
    occlusion_opacity_fraction: float = 0.08
    # Distance: full density inside d_full; density decays ~ (d_full/d)^2
    # beyond, floored at min_fraction.
    distance_full_m: float = 1.8
    distance_min_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.occlusion_opacity_fraction <= 1.0:
            raise ValueError("occlusion_opacity_fraction must be in (0, 1]")
        if self.distance_full_m <= 0:
            raise ValueError("distance_full_m must be positive")
        if not 0.0 < self.distance_min_fraction <= 1.0:
            raise ValueError("distance_min_fraction must be in (0, 1]")

    @staticmethod
    def vanilla() -> "VisibilityConfig":
        return VisibilityConfig(viewport=False, occlusion=False, distance=False)


@dataclass(frozen=True)
class VisibilityResult:
    """Outcome of visibility computation for one (frame, viewer) pair."""

    cell_ids: np.ndarray  # visible cells, sorted ascending
    fractions: np.ndarray  # fetch fraction per visible cell, in (0, 1]
    nominal_counts: np.ndarray  # full-density points per visible cell
    frame_nominal_points: float  # full-density points in the whole frame
    _visible_set: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (len(self.cell_ids) == len(self.fractions) == len(self.nominal_counts)):
            raise ValueError("parallel arrays must align")
        object.__setattr__(
            self, "_visible_set", frozenset(int(c) for c in self.cell_ids)
        )

    @property
    def visible_set(self) -> frozenset:
        """Visible cell ids as a set (the user's visibility map)."""
        return self._visible_set

    @property
    def requested_points(self) -> float:
        """Nominal points actually fetched after density reduction."""
        return float(np.sum(self.fractions * self.nominal_counts))

    @property
    def visible_fraction(self) -> float:
        """Fetched points as a fraction of the full frame (ViVo's saving)."""
        if self.frame_nominal_points <= 0:
            return 0.0
        return self.requested_points / self.frame_nominal_points

    def request_bytes(
        self, compression: CompressionModel = DEFAULT_COMPRESSION
    ) -> float:
        """Compressed bytes needed to fetch the visible cells."""
        per_cell = [
            compression.cell_bytes(f * n, self.frame_nominal_points)
            for f, n in zip(self.fractions, self.nominal_counts)
        ]
        return float(sum(per_cell))

    def cell_fraction(self, cell_id: int) -> float:
        """Fetch fraction for one cell (0 if not visible)."""
        pos = np.searchsorted(self.cell_ids, cell_id)
        if pos < len(self.cell_ids) and self.cell_ids[pos] == cell_id:
            return float(self.fractions[pos])
        return 0.0


def compute_visibility(
    occupancy: FrameOccupancy,
    frustum: Frustum,
    config: VisibilityConfig | None = None,
) -> VisibilityResult:
    """Apply the configured ViVo optimizations to one frame for one viewer."""
    config = config or VisibilityConfig()
    return compute_visibility_batch(occupancy, [frustum], config)[0]


def compute_visibility_batch(
    occupancy: FrameOccupancy,
    frustums: list[Frustum],
    config: VisibilityConfig | None = None,
) -> list[VisibilityResult]:
    """Visibility for many viewers of one frame, sharing per-frame arrays.

    Cell bounds, centers, and nominal counts depend only on the occupancy
    and are read from its cached per-frame geometry.  The viewport cull
    tests every viewer against every cell in one ``(V, C)`` batch
    (:func:`~repro.geometry.cull_aabbs`); occlusion and distance then run
    per viewer on the surviving cells.  Each viewer's result is identical
    to calling :func:`compute_visibility` alone.
    """
    config = config or VisibilityConfig()
    grid = occupancy.grid
    all_ids = occupancy.cell_ids
    all_nominal = occupancy.nominal
    frame_points = occupancy.frame_points

    all_lows = all_highs = all_centers = None
    if len(all_ids) and (config.viewport or config.occlusion):
        all_lows, all_highs = occupancy.lows_highs
    if len(all_ids) and (config.occlusion or config.distance):
        all_centers = occupancy.centers

    # 1. Viewport: frustum-cull occupied cells, all viewers at once.
    in_view = None
    if config.viewport and len(all_ids):
        in_view = cull_aabbs(frustums, all_lows, all_highs)

    results = []
    for i, frustum in enumerate(frustums):
        cell_ids, nominal = all_ids, all_nominal
        lows, highs, centers = all_lows, all_highs, all_centers

        if in_view is not None:
            mask = in_view[i]
            cell_ids = cell_ids[mask]
            nominal = nominal[mask]
            lows, highs = lows[mask], highs[mask]
            if centers is not None:
                centers = centers[mask]

        # 2. Occlusion: angular-bin depth culling.
        if config.occlusion and len(cell_ids):
            keep = _occlusion_mask(
                centers, lows, highs, nominal, frustum, config, grid.cell_size
            )
            cell_ids = cell_ids[keep]
            nominal = nominal[keep]
            centers = centers[keep]

        # 3. Distance: reduced fetch fraction for far cells.
        if config.distance and len(cell_ids):
            dist = np.linalg.norm(centers - frustum.position, axis=1)
            fractions = np.where(
                dist <= config.distance_full_m,
                1.0,
                np.maximum(
                    config.distance_min_fraction,
                    (config.distance_full_m / np.maximum(dist, 1e-9)) ** 2,
                ),
            )
        else:
            fractions = np.ones(len(cell_ids))

        order = np.argsort(cell_ids)
        results.append(
            VisibilityResult(
                cell_ids=cell_ids[order],
                fractions=fractions[order],
                nominal_counts=nominal[order],
                frame_nominal_points=frame_points,
            )
        )
    return results


def _occlusion_mask(
    centers: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    nominal: np.ndarray,
    frustum: Frustum,
    config: VisibilityConfig,
    cell_size: float,
) -> np.ndarray:
    """Boolean keep-mask implementing ray-based occlusion culling.

    For every candidate cell, cast the sight ray from the eye to the cell
    center and accumulate the point mass of the *other* cells the ray
    passes through on the way.  Once the accumulated mass exceeds the
    opacity fraction of the frame, the surface in front is opaque and the
    cell is culled — the point-level occlusion behaviour of ViVo reduced
    to cell granularity.

    Batched slab tests: targets are processed in chunks, each chunk testing
    (T, C, 3) segment-vs-box slabs in one shot.  Nominal counts are
    integer-valued, so the accumulated blocker mass is exact under any
    summation order and the keep decisions are bit-identical to
    :func:`_occlusion_mask_reference`.
    """
    n = len(centers)
    if n <= 1:
        return np.ones(n, dtype=bool)
    eye = frustum.position
    rel = centers - eye  # ray directions (to each cell center)
    threshold = config.occlusion_opacity_fraction * float(nominal.sum())

    # Shrink blocker boxes slightly so rays grazing a shared face do not
    # count neighbours as blockers.
    eps_box = 0.02 * cell_size
    b_lo = lows + eps_box
    b_hi = highs - eps_box
    lo_rel = b_lo - eye  # (C, 3), shared by every target ray
    outside_axis = (eye < b_lo) | (eye > b_hi)  # (C, 3)
    hi_rel = b_hi - eye

    keep = np.ones(n, dtype=bool)
    chunk = max(1, (1 << 18) // n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, chunk):
            idx = np.arange(start, min(start + chunk, n))
            d = rel[idx]  # (T, 3)
            inv = np.where(np.abs(d) > 1e-12, 1.0 / d, np.inf)
            # Slab test of segments eye -> center_i against all boxes.
            t0 = lo_rel[None, :, :] * inv[:, None, :]  # (T, C, 3)
            t1 = hi_rel[None, :, :] * inv[:, None, :]
            # Degenerate axes: if the eye coordinate is outside the slab,
            # the box cannot be hit along that axis.
            degenerate = (np.abs(d) <= 1e-12)[:, None, :]  # (T, 1, 3)
            outside = degenerate & outside_axis[None, :, :]
            tmin = np.where(degenerate, -np.inf, np.minimum(t0, t1))
            tmax = np.where(degenerate, np.inf, np.maximum(t0, t1))
            enter = tmin.max(axis=2)  # (T, C)
            exit_ = tmax.min(axis=2)
            hit = (enter < exit_) & (exit_ > 0.0) & ~outside.any(axis=2)
            # Block only if crossed strictly before reaching the target cell.
            before = hit & (enter < 0.98) & (enter > 0.0)
            before[np.arange(len(idx)), idx] = False
            mass = before @ nominal  # exact: integer-valued counts
            keep[idx] = mass < threshold
    return keep


def _occlusion_mask_reference(
    grid,
    cell_ids: np.ndarray,
    nominal: np.ndarray,
    frustum: Frustum,
    config: VisibilityConfig,
) -> np.ndarray:
    """Scalar reference for :func:`_occlusion_mask` (one ray per iteration).

    Kept verbatim as the golden-equivalence baseline for the batched kernel
    (asserted by ``tests/pointcloud/test_visibility_kernels.py``) and timed
    against it by ``repro bench --kernels``.
    """
    n = len(cell_ids)
    if n <= 1:
        return np.ones(n, dtype=bool)
    centers = grid.cell_centers(cell_ids)
    lows, highs = grid.cell_bounds_array(cell_ids)
    eye = frustum.position
    rel = centers - eye
    threshold = config.occlusion_opacity_fraction * float(nominal.sum())

    keep = np.ones(n, dtype=bool)
    eps_box = 0.02 * grid.cell_size
    b_lo = lows + eps_box
    b_hi = highs - eps_box
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            d = rel[i]
            inv = np.where(np.abs(d) > 1e-12, 1.0 / d, np.inf)
            t0 = (b_lo - eye) * inv
            t1 = (b_hi - eye) * inv
            degenerate = np.abs(d) <= 1e-12
            outside = degenerate & ((eye < b_lo) | (eye > b_hi))
            tmin = np.where(degenerate, -np.inf, np.minimum(t0, t1))
            tmax = np.where(degenerate, np.inf, np.maximum(t0, t1))
            enter = tmin.max(axis=1)
            exit_ = tmax.min(axis=1)
            hit = (enter < exit_) & (exit_ > 0.0) & ~outside.any(axis=1)
            before = hit & (enter < 0.98) & (enter > 0.0)
            before[i] = False
            if float(nominal[before].sum()) >= threshold:
                keep[i] = False
    return keep
