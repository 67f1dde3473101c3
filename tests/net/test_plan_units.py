"""A plan's cached transmission units equal the per-delivery construction.

``plan_units`` packetizes a frame plan once per packetization config and
every later delivery replays the memo.  These tests pin the memo against a
local copy of the map construction ``deliver`` used to run on every call,
and pin memoised replay against delivering freshly built plans.
"""

import numpy as np
import pytest

from repro.mac.scheduler import FramePlan, UserDemand
from repro.net import (
    PacketizationConfig,
    TransportConfig,
    TransportSimulator,
    packetize_cells,
)
from repro.net.packetization import plan_units
from repro.obs import trace as _trace

SEEDS = [0, 1, 2, 3, 4, 5]
OVERHEAD_S = 0.0004
CONFIGS = [
    PacketizationConfig(),
    PacketizationConfig(mtu_bytes=600, header_bytes=40),
]


def _random_cells(rng, num_cells, zero_frac=0.15):
    """A cell map in shuffled (non-sorted) insertion order."""
    cells = rng.choice(200, size=num_cells, replace=False)
    return {
        int(c): 0.0 if rng.random() < zero_frac else float(rng.uniform(1, 9000))
        for c in cells
    }


def _build_plan(seed):
    """Two groups and solo users over shuffled demands.

    Users 0 and 1 share one ``cell_bytes`` dict by reference and have
    empty residuals; user 2 adds only zero-byte cells to that dict, so its
    residual is non-empty but carries no bytes.
    """
    rng = np.random.default_rng(seed)
    shared = _random_cells(rng, 30)
    cell_bytes = {0: shared, 1: shared}
    cell_bytes[2] = dict(shared)
    cell_bytes[2].update({500: 0.0, 501: 0.0})
    common = _random_cells(rng, 20, zero_frac=0.0)
    for u in (3, 4, 5):
        cells = dict(common)
        cells.update(_random_cells(rng, int(rng.integers(1, 25))))
        cell_bytes[u] = cells
    for u in (6, 7, 8):
        cell_bytes[u] = _random_cells(rng, int(rng.integers(0, 40)))
    order = [int(u) for u in rng.permutation(9)]
    demands = {
        u: UserDemand(
            user_id=u,
            cell_bytes=cell_bytes[u],
            unicast_rate_mbps=float(rng.uniform(200, 900)),
        )
        for u in order
    }
    groups = [
        ((5, 3, 4), float(rng.uniform(300, 700))),
        ((2, 0, 1), float(rng.uniform(300, 700))),
    ]
    return FramePlan(
        demands=demands, groups=groups, beam_switch_overhead_s=OVERHEAD_S
    )


def _old_maps(plan):
    """Per group: the shared map and each member's residual map; then
    each solo user's map — built the way ``deliver`` once did per call."""
    demands = plan.demands
    groups = []
    for members, _rate in plan.groups:
        group_demands = [demands[m] for m in members]
        shared_cells = set(group_demands[0].cell_bytes)
        for d in group_demands[1:]:
            shared_cells &= set(d.cell_bytes)
        shared_map = {
            c: max(d.cell_bytes[c] for d in group_demands)
            for c in sorted(shared_cells)
        }
        residual_maps = [
            {c: b for c, b in d.cell_bytes.items() if c not in shared_cells}
            for d in group_demands
        ]
        groups.append((shared_map, residual_maps))
    solos = [demands[u].cell_bytes for u in plan.solo_users]
    return groups, solos


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", CONFIGS)
def test_cached_units_equal_the_per_call_construction(seed, config):
    plan = _build_plan(seed)
    units = plan_units(plan, config)
    old_groups, old_solos = _old_maps(plan)
    assert len(units.groups) == len(plan.groups) == len(old_groups)
    for (shared, residuals), (shared_map, residual_maps) in zip(
        units.groups, old_groups
    ):
        assert shared == packetize_cells(shared_map, config)
        assert len(residuals) == len(residual_maps)
        for unit, residual_map in zip(residuals, residual_maps):
            # "No residual leg" follows the cell count, not the bytes.
            if residual_map:
                assert unit == packetize_cells(residual_map, config)
            else:
                assert unit is None
    assert units.solos == tuple(
        packetize_cells(cells, config) for cells in old_solos
    )
    # Replays hit the memo; an equal config is the same key.
    assert plan_units(plan, config) is units
    assert plan_units(plan, PacketizationConfig(**vars(config))) is units


def test_zero_byte_residual_still_pays_a_beam_switch():
    plan = _build_plan(0)
    units = plan_units(plan, CONFIGS[0])
    members = plan.groups[1][0]
    residuals = dict(zip(members, units.groups[1][1]))
    assert residuals[0] is None and residuals[1] is None
    zero = residuals[2]
    assert (zero.num_packets, zero.app_bytes, zero.wire_bytes) == (0, 0, 0)
    sim = TransportSimulator(TransportConfig.preset("hybrid", base_per=0.0))
    with _trace.recording() as recorder:
        sim.frame_outcome(plan, {u: 0.0 for u in plan.demands}, frame=0)
    switches = sum(1 for e in recorder.events if e.event == "net.beam_switch")
    # One switch per group, one per member with residual cells (users 3-5
    # have random extras, user 2 zero-byte ones; 0 and 1 none) and one per
    # solo user.
    legs = sum(1 for _, res in units.groups for r in res if r is not None)
    assert legs == 4
    assert switches == len(plan.groups) + legs + len(plan.solo_users)


@pytest.mark.parametrize("mode", ["arq", "fec", "hybrid"])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_replaying_one_plan_equals_delivering_fresh_copies(mode, seed):
    # A tight deadline and lossy links, so frames are lost too.
    num_frames, fps = 8, 90.0
    pers = {u: 0.1 * (u % 4) for u in range(9)}
    sim = TransportSimulator(TransportConfig.preset(mode, base_per=0.05))
    plan = _build_plan(seed)
    sim.reseed(seed)
    replayed = [
        sim.frame_outcome(plan, pers, target_fps=fps, frame=f)
        for f in range(num_frames)
    ]
    sim.reseed(seed)
    fresh = [
        sim.frame_outcome(_build_plan(seed), pers, target_fps=fps, frame=f)
        for f in range(num_frames)
    ]
    assert replayed == fresh
    assert all(not all(o.delivered.values()) for o in fresh)


def test_two_configs_on_one_plan_give_distinct_units():
    plan = _build_plan(3)
    a = plan_units(plan, CONFIGS[0])
    b = plan_units(plan, CONFIGS[1])
    assert a != b
    assert a.solos[0].num_packets <= b.solos[0].num_packets
    assert plan_units(plan, CONFIGS[0]) is a
    assert plan_units(plan, CONFIGS[1]) is b
