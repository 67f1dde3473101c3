"""Multi-AP coordination tests."""

import numpy as np
import pytest

from repro.core import (
    MultiApDeployment,
    assign_groups,
    concurrent_frame_time,
    coordinated_frame_time,
    single_ap_frame_time,
)
from repro.mac import UserDemand
from repro.mmwave import AccessPoint, Channel, Codebook, LinkBudget, Room


@pytest.fixture(scope="module")
def deployment():
    room = Room(8.0, 10.0, 3.0)
    budget = LinkBudget(implementation_loss_db=8.0, reflection_loss_db=9.0)
    ap_a = AccessPoint(position=np.array([4.0, 0.3, 2.0]), boresight_az=np.pi / 2)
    ap_b = AccessPoint(position=np.array([4.0, 9.7, 2.0]), boresight_az=-np.pi / 2)
    return MultiApDeployment(
        channels=[
            Channel(ap=ap_a, room=room, budget=budget),
            Channel(ap=ap_b, room=room, budget=budget),
        ],
        codebooks=[
            Codebook(ap_a.array, num_az=24, elevations=(0.0,), phase_bits=None),
            Codebook(ap_b.array, num_az=24, elevations=(0.0,), phase_bits=None),
        ],
    )


def two_cluster_scenario():
    """Two user pairs, one near each AP, watching different cells."""
    positions = {
        0: np.array([3.0, 2.5, 1.5]),
        1: np.array([5.0, 2.8, 1.5]),
        2: np.array([3.0, 7.5, 1.5]),
        3: np.array([5.0, 7.2, 1.5]),
    }
    cells_a = {c: 1e5 for c in range(10)}
    cells_b = {c: 1e5 for c in range(100, 110)}
    demands = {
        0: UserDemand(0, dict(cells_a), 0.0),
        1: UserDemand(1, dict(cells_a), 0.0),
        2: UserDemand(2, dict(cells_b), 0.0),
        3: UserDemand(3, dict(cells_b), 0.0),
    }
    return demands, positions


def test_deployment_validation():
    room = Room()
    ap = AccessPoint(position=np.array([4.0, 0.3, 2.0]))
    with pytest.raises(ValueError):
        MultiApDeployment(channels=[], codebooks=[])
    with pytest.raises(ValueError):
        MultiApDeployment(
            channels=[Channel(ap=ap, room=room)], codebooks=[]
        )


def test_assignment_sends_users_to_nearest_ap(deployment):
    demands, positions = two_cluster_scenario()
    assignment = assign_groups(deployment, positions)
    assert assignment.ap_users == ((0, 1), (2, 3))


def test_assignment_balancing():
    """Even when one AP covers everyone best, balancing splits the load."""
    room = Room(8.0, 10.0, 3.0)
    ap_a = AccessPoint(position=np.array([4.0, 0.3, 2.0]), boresight_az=np.pi / 2)
    ap_b = AccessPoint(position=np.array([4.0, 9.7, 2.0]), boresight_az=-np.pi / 2)
    deployment = MultiApDeployment(
        channels=[Channel(ap=ap_a, room=room), Channel(ap=ap_b, room=room)],
        codebooks=[
            Codebook(ap_a.array, num_az=16, elevations=(0.0,)),
            Codebook(ap_b.array, num_az=16, elevations=(0.0,)),
        ],
    )
    # Four users all closer to AP A.
    positions = {
        i: np.array([2.0 + i, 3.0 + 0.3 * i, 1.5]) for i in range(4)
    }
    balanced = assign_groups(deployment, positions, balance=True)
    sizes = sorted(len(u) for u in balanced.ap_users)
    assert sizes == [2, 2]
    unbalanced = assign_groups(deployment, positions, balance=False)
    assert max(len(u) for u in unbalanced.ap_users) >= 3


def test_concurrent_beats_single_for_separated_clusters(deployment):
    demands, positions = two_cluster_scenario()
    t_single = single_ap_frame_time(deployment, demands, positions)
    t_multi = concurrent_frame_time(deployment, demands, positions)
    assert np.isfinite(t_single) and np.isfinite(t_multi)
    assert t_multi < t_single


def test_coordinated_never_worse_than_concurrent(deployment):
    demands, positions = two_cluster_scenario()
    t_conc = concurrent_frame_time(deployment, demands, positions)
    t_coord = coordinated_frame_time(deployment, demands, positions)
    assert t_coord <= t_conc + 1e-12


def test_coordinated_handles_colocated_users(deployment):
    """Co-located users force TDMA; the coordinator must stay finite."""
    positions = {
        i: np.array([3.5 + 0.5 * i, 4.8 + 0.2 * i, 1.5]) for i in range(4)
    }
    cells = {c: 1e5 for c in range(10)}
    demands = {i: UserDemand(i, dict(cells), 0.0) for i in range(4)}
    t = coordinated_frame_time(deployment, demands, positions)
    assert np.isfinite(t)
    assert t > 0.0


def test_empty_room(deployment):
    assert concurrent_frame_time(deployment, {}, {}) == 0.0


def test_single_ap_uses_similarity_grouping(deployment):
    """Identical viewports at one AP must multicast (shorter than 2x unicast)."""
    # Nearly co-located users: one beam covers both, multicast is ~free.
    positions = {
        0: np.array([3.9, 3.0, 1.5]),
        1: np.array([4.2, 3.1, 1.5]),
    }
    cells = {c: 2e5 for c in range(10)}
    demands = {
        0: UserDemand(0, dict(cells), 0.0),
        1: UserDemand(1, dict(cells), 0.0),
    }
    t = single_ap_frame_time(deployment, demands, positions)
    # Pure unicast would take ~2x the single-user time; multicast ~1x.
    single_user = single_ap_frame_time(
        deployment, {0: demands[0]}, {0: positions[0]}
    )
    assert t < 1.5 * single_user
