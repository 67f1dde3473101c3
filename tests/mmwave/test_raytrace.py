"""Room ray tracer tests."""

import numpy as np
import pytest

from repro.geometry import VerticalCylinder
from repro.mmwave import PropagationPath, Room, trace_paths


def test_room_validation():
    with pytest.raises(ValueError):
        Room(width=0.0)


def test_room_contains():
    room = Room(8, 10, 3)
    assert room.contains(np.array([4.0, 5.0, 1.5]))
    assert not room.contains(np.array([-1.0, 5.0, 1.5]))
    assert not room.contains(np.array([4.0, 5.0, 4.0]))


def test_reflective_surfaces_count():
    # Four walls plus the ceiling; no floor.
    names = [n for n, _ in Room().reflective_planes()]
    assert len(names) == 5
    assert "ceiling" in names
    assert not any("floor" in n for n in names)


def test_los_path_always_present():
    room = Room()
    paths = trace_paths(np.array([1.0, 1, 2]), np.array([5.0, 8, 1.5]), room)
    kinds = [p.kind for p in paths]
    assert "los" in kinds
    los = next(p for p in paths if p.kind == "los")
    assert los.length_m == pytest.approx(np.linalg.norm([4.0, 7.0, -0.5]))
    assert los.extra_loss_db == 0.0


def test_reflection_path_lengths_exceed_los():
    room = Room()
    tx, rx = np.array([1.0, 1, 2]), np.array([5.0, 8, 1.5])
    paths = trace_paths(tx, rx, room)
    los = next(p for p in paths if p.kind == "los")
    for p in paths:
        if p.kind != "los":
            assert p.length_m > los.length_m
            assert p.extra_loss_db >= 8.0  # reflection loss


def test_reflection_image_geometry():
    # Symmetric placement about the x=0 wall: reflection point at y midway.
    room = Room(8, 10, 3)
    tx = np.array([2.0, 2.0, 1.5])
    rx = np.array([2.0, 6.0, 1.5])
    paths = trace_paths(tx, rx, room)
    wall = next(p for p in paths if p.kind == "wall_x0")
    hit = wall.vertices[1]
    assert hit[0] == pytest.approx(0.0, abs=1e-9)
    assert hit[1] == pytest.approx(4.0, abs=1e-9)
    # Reflected length equals the image distance.
    image_dist = np.linalg.norm(np.array([-2.0, 6.0, 1.5]) - tx)
    assert wall.length_m == pytest.approx(image_dist)


def test_all_reflection_points_inside_room():
    room = Room()
    rng = np.random.default_rng(0)
    for _ in range(20):
        tx = rng.uniform([0.5, 0.5, 0.5], [7.5, 9.5, 2.5])
        rx = rng.uniform([0.5, 0.5, 0.5], [7.5, 9.5, 2.5])
        for p in trace_paths(tx, rx, room):
            for v in p.vertices:
                assert room.contains(v)


def test_blockage_attenuates_los_not_removes():
    room = Room()
    tx = np.array([1.0, 5.0, 1.5])
    rx = np.array([7.0, 5.0, 1.5])
    body = VerticalCylinder(np.array([4.0, 5.0]), radius=0.25, height=1.8)
    paths = trace_paths(tx, rx, room, bodies=(body,), blockage_loss_db=22.0)
    los = next(p for p in paths if p.kind == "los")
    assert los.extra_loss_db == pytest.approx(22.0)


def test_multiple_blockers_stack():
    room = Room()
    tx = np.array([1.0, 5.0, 1.5])
    rx = np.array([7.0, 5.0, 1.5])
    bodies = (
        VerticalCylinder(np.array([3.0, 5.0]), 0.25, 1.8),
        VerticalCylinder(np.array([5.0, 5.0]), 0.25, 1.8),
    )
    paths = trace_paths(tx, rx, room, bodies=bodies, blockage_loss_db=20.0)
    los = next(p for p in paths if p.kind == "los")
    assert los.extra_loss_db == pytest.approx(40.0)


def test_reflection_can_avoid_blocker():
    room = Room()
    tx = np.array([1.0, 5.0, 1.5])
    rx = np.array([7.0, 5.0, 1.5])
    body = VerticalCylinder(np.array([4.0, 5.0]), 0.25, 1.8)
    paths = trace_paths(tx, rx, room, bodies=(body,))
    # Side-wall reflections bend around the blocker.
    side = [p for p in paths if p.kind in ("wall_y0", "wall_y1")]
    assert side
    assert any(p.extra_loss_db < 22.0 + 8.0 for p in side)


def test_departure_is_unit_vector():
    paths = trace_paths(np.array([1.0, 1, 1]), np.array([6.0, 8, 2]), Room())
    for p in paths:
        assert np.linalg.norm(p.departure) == pytest.approx(1.0)


def test_path_validation():
    with pytest.raises(ValueError):
        PropagationPath(
            kind="los",
            vertices=(np.zeros(3),),
            length_m=1.0,
            extra_loss_db=0.0,
        )
    with pytest.raises(ValueError):
        PropagationPath(
            kind="los",
            vertices=(np.zeros(3), np.zeros(3)),
            length_m=0.0,
            extra_loss_db=0.0,
        )
