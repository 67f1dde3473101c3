"""The fixed reference work that host times are divided by.

The reference runs between units in the same process as the workload, so
a change in the machine's speed (frequency scaling, a busy neighbour on a
shared host) stretches the reference and the units alike, and their ratio
``wall_ref`` stays put.  Contention slows cache-heavy and interpreter-heavy
code by different amounts, so the reference mirrors the program's profile
with two equal parts:

* ``python_work`` — interpreted Python: dict and list updates, an event
  heap, float arithmetic (the packet and event loops);
* ``array_work`` — numpy over point-cloud-sized frames drawn from an
  array larger than a core's private caches, per-cell dict building, and
  many numpy calls on tiny arrays (visibility, occupancy, frustums).

Weighting the parts per workload was tried on a 2-vCPU VM and moved the
run-to-run spread of ``wall_ref`` by less than its own sampling noise, so
every workload uses the same equal mix.

This module imports nothing from ``repro``, so no change to the program
can move it.  ``test_perfbench.py`` checks that.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

PY_ITERATIONS = 25_000
FRAMES = 96
POINTS = 6_000
FRAME_VISITS = 25
CELLS_KEPT = 400
TINY_ITERATIONS = 350


def python_work() -> float:
    """Interpreter-bound work; returns a checksum that depends on all of it."""
    table: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(PY_ITERATIONS):
        key = i % 251
        value = table.get(key, 0.0) + i * 0.5
        table[key] = value
        heapq.heappush(heap, (value % 97.0, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        acc += value % 11.0
    return acc


@lru_cache(maxsize=1)
def _clouds() -> np.ndarray:
    """``FRAMES`` frames of ``POINTS`` points (14 MB), built once."""
    rng = np.random.default_rng(12345)
    return rng.normal(0.0, 1.0, size=(FRAMES, POINTS, 3))


def resident_mb() -> float:
    """The memory the reference holds for the whole run, in MiB."""
    return _clouds().nbytes / 2**20


def array_work() -> float:
    """numpy-bound work; returns a checksum that depends on all of it."""
    clouds = _clouds()
    acc = 0.0
    angle = 0.0
    for visit in range(FRAME_VISITS):
        angle += 0.37
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        frame = clouds[(visit * 37) % FRAMES] @ rotation.T
        cells = np.floor(frame[frame[:, 2] > -0.5] / 0.25).astype(np.int64)
        keys = (cells[:, 0] * 1_000 + cells[:, 1]) * 1_000 + cells[:, 2]
        ids, counts = np.unique(keys, return_counts=True)
        demand: dict[int, float] = {}
        for cid, count in zip(ids[:CELLS_KEPT].tolist(), counts[:CELLS_KEPT].tolist()):
            demand[cid] = demand.get(cid, 0.0) + count * 1.5 + (cid % 7)
        ordered = sorted(demand.items(), key=lambda item: (-item[1], item[0]))
        acc += sum(value for _, value in ordered[:50]) % 1_000.0

    v = np.array([0.3, -0.2, 0.9])
    w = np.array([0.1, 0.7, -0.4])
    for _ in range(TINY_ITERATIONS):
        cross = np.cross(v, w)
        v = cross / np.linalg.norm(cross) + 0.25 * w
        w = np.clip(w[::-1] + 0.01, -1.0, 1.0)
    return acc + float(v.sum())


def reference_loop() -> float:
    """Both parts once; returns their combined checksum."""
    return python_work() + array_work()
