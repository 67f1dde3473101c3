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
from typing import Callable

import numpy as np

from ..geometry import Frustum, cull_planes
from .cells import FrameOccupancy, _read_only
from .compression import CompressionModel

__all__ = [
    "VisibilityConfig",
    "VisibilityResult",
    "compute_visibility",
    "compute_visibility_batch",
    "compute_visibility_planes",
]

# Elements of the ``(3, pairs, cells)`` slab temporary per occlusion chunk.
_SLAB_CHUNK_ELEMENTS = 1 << 18


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
    """Outcome of visibility computation for one (frame, viewer) pair.

    :func:`compute_visibility_planes` builds the three arrays read-only,
    because sessions over one study share its results (see
    ``core.session``).
    """

    cell_ids: np.ndarray  # visible cells, sorted ascending
    fractions: np.ndarray  # fetch fraction per visible cell, in (0, 1]
    nominal_counts: np.ndarray  # full-density points per visible cell
    frame_nominal_points: float  # full-density points in the whole frame
    # Built on the first read of visible_set.  The slot exists from
    # construction, so that filling it does not grow the instance dict (a
    # cached_property's new key costs 56 bytes per result read).
    _visible_set: frozenset | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (len(self.cell_ids) == len(self.fractions) == len(self.nominal_counts)):
            raise ValueError("parallel arrays must align")

    @property
    def visible_set(self) -> frozenset:
        """Visible cell ids as a set (the user's visibility map), built on
        first use."""
        if self._visible_set is None:
            object.__setattr__(
                self, "_visible_set", frozenset(np.asarray(self.cell_ids).tolist())
            )
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

    def cell_bytes(self, bytes_of: Callable[[float], float]) -> dict[int, float]:
        """``{cell id: bytes_of(fraction * count)}`` in ascending cell order.

        The one place a visibility result is priced cell by cell:
        ``bytes_of`` is the caller's byte rule for the nominal points one
        cell fetches after density reduction.
        """
        return {
            int(cid): bytes_of(frac * count)
            for cid, frac, count in zip(
                self.cell_ids, self.fractions, self.nominal_counts
            )
        }

    def priced_cells(
        self,
        compression: CompressionModel,
        frame_points: float,
        scale: float = 1.0,
    ) -> dict[int, float]:
        """``{cell id: compressed bytes}`` in ascending cell order.

        Bitwise ``compression.cell_bytes(fraction * count * scale,
        frame_points)`` per cell, priced as one array: ``scale`` maps the
        source video's point counts to the streamed quality's density.
        """
        priced = compression.cells_bytes(
            (self.fractions * self.nominal_counts) * scale, frame_points
        )
        return dict(zip(self.cell_ids.tolist(), priced.tolist()))


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
    """Visibility for many viewers of one frame:
    :func:`compute_visibility_planes` over the frusta's eyes and planes."""
    if not frustums:
        return []
    return compute_visibility_planes(
        occupancy,
        np.array([frustum.position for frustum in frustums]),
        np.stack([frustum._normals for frustum in frustums]),
        np.stack([frustum._offsets for frustum in frustums]),
        config,
    )


def compute_visibility_planes(
    occupancy: FrameOccupancy,
    eyes: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    config: VisibilityConfig | None = None,
) -> list[VisibilityResult]:
    """Visibility for ``V`` viewers of one frame, given as plane arrays.

    ``eyes`` is ``(V, 3)``; ``normals`` ``(V, 6, 3)`` and ``offsets``
    ``(V, 6)`` are the viewers' frustum planes, as
    :func:`~repro.geometry.frustum_planes` returns them.  Cell bounds,
    centers, and nominal counts depend only on the occupancy and are read
    from its cached per-frame geometry.  Each stage runs once for the
    whole frame over ``(V, C)`` viewer-by-cell arrays: the viewport cull
    (:func:`~repro.geometry.cull_planes`), the occlusion slab test
    (:func:`_occlusion_mask`) and the distance fractions.  Only the
    assembly of each viewer's :class:`VisibilityResult` is per viewer.
    Each viewer's result is identical to calling :func:`compute_visibility`
    alone on a frustum with the same eye and planes.
    """
    config = config or VisibilityConfig()
    all_ids = occupancy.cell_ids
    all_nominal = occupancy.nominal
    frame_points = occupancy.frame_points

    # 1. Viewport: frustum-cull occupied cells, all viewers at once.
    if config.viewport and len(all_ids):
        visible = cull_planes(normals, offsets, *occupancy.lows_highs)
    else:
        visible = np.ones((len(eyes), len(all_ids)), dtype=bool)

    # 2. Occlusion: ray-cast depth culling of every viewer's in-view cells.
    if config.occlusion and len(all_ids):
        visible = _occlusion_mask(occupancy, eyes, visible, config)

    # 3. Distance: reduced fetch fraction for far cells, (V, C) at once.
    fractions = np.ones(visible.shape)
    if config.distance and len(all_ids):
        dist = np.linalg.norm(occupancy.centers[None, :, :] - eyes[:, None, :],
                              axis=2)
        fractions = np.where(
            dist <= config.distance_full_m,
            1.0,
            np.maximum(
                config.distance_min_fraction,
                (config.distance_full_m / np.maximum(dist, 1e-9)) ** 2,
            ),
        )

    # Occupied cell ids are sorted, so each viewer's mask selects its
    # visible cells in ascending order.
    return [
        VisibilityResult(
            cell_ids=_read_only(all_ids[mask]),
            fractions=_read_only(fractions[v, mask]),
            nominal_counts=_read_only(all_nominal[mask]),
            frame_nominal_points=frame_points,
        )
        for v, mask in enumerate(visible)
    ]


def _occlusion_mask(
    occupancy: FrameOccupancy,
    eyes: np.ndarray,
    in_view: np.ndarray,
    config: VisibilityConfig,
) -> np.ndarray:
    """``(V, C)`` mask of the occupied cells each viewer keeps after occlusion.

    For every cell a viewer has in view (``in_view[v]``), cast the sight
    ray from the viewer's eye to the cell center and accumulate the point
    mass of the *other* in-view cells the ray passes through on the way.
    Once that mass reaches the opacity fraction of the viewer's in-view
    mass, the surface in front is opaque and the cell is culled — the
    point-level occlusion behaviour of ViVo reduced to cell granularity.

    One slab test covers the whole frame: every (viewer, in-view target)
    pair is tested against every cell in some viewer's view, in chunks of
    pairs that keep the ``(3, P, C)`` temporary near 2^18 elements.  Each
    viewer then sums its blocker mass over its own compacted in-view cells
    with :func:`_blocker_mass`, as the reference does.  ``nominal`` is
    ``counts * scale_factor`` and in general not integer-valued, so a sum
    over the padded frame axis can round differently and flip a cull
    decision.
    """
    keep = in_view.copy()
    counts = in_view.sum(axis=1)
    active = counts > 1  # a lone in-view cell has nothing in front of it
    if not active.any():
        return keep
    # Blockers: every cell some active viewer has in view, ascending.
    union = np.flatnonzero(in_view[active].any(axis=0))
    view_u = in_view[:, union] & active[:, None]  # (V, U)
    pair_v, pair_t = np.nonzero(view_u)  # grouped by viewer, targets ascending
    centers_u = occupancy.centers[union]
    nominal_u = occupancy.nominal[union]
    lows, highs = occupancy.lows_highs

    # Shrink blocker boxes slightly so rays grazing a shared face do not
    # count neighbours as blockers.
    eps_box = 0.02 * occupancy.grid.cell_size
    b_lo = lows[union] + eps_box
    b_hi = highs[union] - eps_box
    # Axis-first layout: the reductions over the three slabs then run
    # over the leading axis.
    eyes_t = eyes.T[:, :, None]  # (3, V, 1)
    lo_rel = b_lo.T[:, None, :] - eyes_t  # (3, V, U)
    hi_rel = b_hi.T[:, None, :] - eyes_t
    outside_axis = (eyes_t < b_lo.T[:, None, :]) | (eyes_t > b_hi.T[:, None, :])

    num_pairs, num_blockers = len(pair_v), len(union)
    before = np.empty((num_pairs, num_blockers), dtype=bool)
    chunk = max(1, _SLAB_CHUNK_ELEMENTS // (3 * num_blockers))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, num_pairs, chunk):
            pv = pair_v[start : start + chunk]
            pt = pair_t[start : start + chunk]
            d = (centers_u[pt] - eyes[pv]).T[:, :, None]  # (3, P, 1) rays
            inv = np.where(np.abs(d) > 1e-12, 1.0 / d, np.inf)
            # Slab test of segments eye -> target center against all boxes.
            t0 = lo_rel[:, pv] * inv  # (3, P, U)
            t1 = hi_rel[:, pv] * inv
            # Degenerate axes: if the eye coordinate is outside the slab,
            # the box cannot be hit along that axis.
            degenerate = np.abs(d) <= 1e-12
            outside = degenerate & outside_axis[:, pv]
            tmin = np.where(degenerate, -np.inf, np.minimum(t0, t1))
            tmax = np.where(degenerate, np.inf, np.maximum(t0, t1))
            enter = tmin.max(axis=0)  # (P, U)
            exit_ = tmax.min(axis=0)
            hit = (enter < exit_) & (exit_ > 0.0) & ~outside.any(axis=0)
            # Block only if crossed strictly before reaching the target cell.
            rows = before[start : start + chunk]
            np.logical_and(hit, (enter < 0.98) & (enter > 0.0), out=rows)
            rows[np.arange(len(pt)), pt] = False

    # Per viewer: blocker mass over its compacted in-view cells.
    ends = np.cumsum(counts * active)
    for v in np.flatnonzero(active):
        m = view_u[v]
        nom = nominal_u[m]
        n = len(nom)
        blocked_by = before[ends[v] - n : ends[v]][:, m]  # (n, n)
        threshold = config.occlusion_opacity_fraction * float(nom.sum())
        keep[v, union[m]] = _blocker_mass(blocked_by, nom) < threshold
    return keep


def _blocker_mass(blocked_by: np.ndarray, nominal: np.ndarray) -> np.ndarray:
    """Mass in front of each of a viewer's ``n`` in-view cells.

    ``blocked_by`` is the viewer's ``(n, n)`` target-by-blocker mask over
    its compacted in-view cells.  The sums are ``(rows, n) @ (n,)``
    products in row chunks; this order is part of the result, because a
    mass within rounding of the threshold can compare either way when
    summed in another.
    """
    n = len(nominal)
    step = max(1, _SLAB_CHUNK_ELEMENTS // n)
    return np.concatenate(
        [blocked_by[i : i + step] @ nominal for i in range(0, n, step)]
    )


def _occlusion_mask_reference(
    grid,
    cell_ids: np.ndarray,
    nominal: np.ndarray,
    frustum: Frustum,
    config: VisibilityConfig,
) -> np.ndarray:
    """Scalar reference for :func:`_occlusion_mask` (one viewer, one ray
    per iteration).

    The golden-equivalence baseline for the frame kernel (asserted by
    ``tests/pointcloud/test_visibility_kernels.py``) and timed against it
    by ``repro bench --kernels``.  The slab test runs ray by ray; the
    blocker masses are then summed by :func:`_blocker_mass`, in the
    kernel's order, since ``nominal`` is not integer-valued and a sum in
    another order can flip a near-threshold cull.
    """
    n = len(cell_ids)
    if n <= 1:
        return np.ones(n, dtype=bool)
    centers = grid.cell_centers(cell_ids)
    lows, highs = grid.cell_bounds_array(cell_ids)
    eye = frustum.position
    rel = centers - eye
    threshold = config.occlusion_opacity_fraction * float(nominal.sum())

    blocked_by = np.empty((n, n), dtype=bool)
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
            blocked_by[i] = before
    return _blocker_mass(blocked_by, nominal) < threshold
