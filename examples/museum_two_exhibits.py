#!/usr/bin/env python
"""Museum scenario: two volumetric exhibits, two coordinated mmWave APs.

Implements the paper's §5 "Multiple APs Coordination" vision: visitors
split between two exhibits; a single AP must serialize everyone, while two
wall APs coordinate — transmitting concurrently (spatial reuse) when the
inter-beam SINR allows, falling back to AP-TDMA when the audiences are too
close.  Prints per-frame airtime, the achievable group frame rate, and the
AP assignment.

Run:  python examples/museum_two_exhibits.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    MultiApDeployment,
    assign_groups,
    coordinated_frame_time,
    single_ap_frame_time,
)
from repro.geometry import Frustum
from repro.mac import UserDemand
from repro.mmwave import AccessPoint, Channel, Codebook, LinkBudget, Room
from repro.pointcloud import (
    CellGrid,
    VisibilityConfig,
    compute_visibility_batch,
    synthesize_video,
)
from repro.traces import generate_user_study

EXHIBIT_CENTERS = (np.array([4.0, 2.8, 0.0]), np.array([4.0, 7.2, 0.0]))
VISITORS_PER_EXHIBIT = 3


def main() -> None:
    room = Room(8.0, 10.0, 3.0)
    budget = LinkBudget(implementation_loss_db=8.0, reflection_loss_db=9.0)
    ap_a = AccessPoint(position=np.array([4.0, 0.3, 2.0]), boresight_az=np.pi / 2)
    ap_b = AccessPoint(position=np.array([4.0, 9.7, 2.0]), boresight_az=-np.pi / 2)
    deployment = MultiApDeployment(
        channels=[
            Channel(ap=ap_a, room=room, budget=budget),
            Channel(ap=ap_b, room=room, budget=budget),
        ],
        codebooks=[
            Codebook(ap_a.array, phase_bits=None),
            Codebook(ap_b.array, phase_bits=None),
        ],
    )

    base = synthesize_video("high", num_frames=60, points_per_frame=4000)
    videos = [base.translated(c) for c in EXHIBIT_CENTERS]
    grids = [CellGrid.covering(v.bounds, 0.5, margin=0.05) for v in videos]
    clusters = [
        generate_user_study(
            num_users=VISITORS_PER_EXHIBIT,
            duration_s=3.0,
            seed=40 + i,
            content_center=EXHIBIT_CENTERS[i],
        )
        for i in range(2)
    ]

    config = VisibilityConfig()
    sample = 45
    demands, positions = {}, {}
    uid = 0
    for ci, study in enumerate(clusters):
        occ = grids[ci].occupancy(videos[ci][sample % len(videos[ci])])
        bpp = videos[ci].quality.bytes_per_point
        # Every visitor of one exhibit sees the same frame: cull them together.
        frustums = Frustum.many(trace.pose(sample) for trace in study.traces)
        results = compute_visibility_batch(occ, frustums, config)
        for trace, vis in zip(study.traces, results):
            # Offset exhibit-1 cell ids so the two contents do not alias.
            cell_bytes = {
                cid + ci * 10**6: b
                for cid, b in vis.cell_bytes(lambda p: float(p * bpp)).items()
            }
            demands[uid] = UserDemand(uid, cell_bytes, 0.0)
            positions[uid] = trace.positions[sample]
            uid += 1

    assignment = assign_groups(deployment, positions)
    print(f"{uid} visitors across two exhibits")
    for ap, users in enumerate(assignment.ap_users):
        rss = [assignment.serving_rss_dbm[u] for u in users]
        print(f"  AP {ap}: users {users}, serving RSS "
              + ", ".join(f"{r:.1f}" for r in rss) + " dBm")

    t_single = single_ap_frame_time(deployment, demands, positions)
    t_coord = coordinated_frame_time(deployment, demands, positions, assignment)
    print(f"\nframe airtime, single AP : {t_single * 1000:6.2f} ms "
          f"({min(30.0, 1.0 / t_single):.1f} FPS)")
    print(f"frame airtime, 2 APs     : {t_coord * 1000:6.2f} ms "
          f"({min(30.0, 1.0 / t_coord):.1f} FPS)")
    print(f"coordination speedup     : {t_single / t_coord:.2f}x")


if __name__ == "__main__":
    main()
