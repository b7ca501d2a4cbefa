"""Worst-case eavesdropper placement on the safety ring around the scheduled user."""

from __future__ import annotations

import math

import numpy as np

from .channel import check_count, check_points, check_real, power_loss_linear


def worst_case_eve_position(bob_xy, ring_radius: float, uav_xyz, env,
                            grid_points: int = 360) -> tuple[float, float]:
    """Place the eavesdropper on the safety ring where it hears the swarm best.

    ``bob_xy`` is the scheduled user's (x, y) point and ``uav_xyz`` the
    swarm's (L, 3) transmitter points, in meters. Scans ``grid_points`` angles
    uniformly over [0, 2*pi) around the user and returns the (x, y) ring point
    minimizing the swarm-mean linear power loss. Ties go to the smallest
    angle; "tie" allows a 1e-12 relative slack so exactly symmetric geometries
    resolve deterministically instead of by floating-point noise in the trig
    evaluations.
    """
    bx, by = check_points("bob_xy", bob_xy, (2,)).tolist()
    ring_radius = check_real("ring_radius", ring_radius, positive=True)
    uavs = check_points("uav_xyz", uav_xyz, ("L", 3)).tolist()
    grid_points = check_count("grid_points", grid_points, minimum=8)

    thetas = 2.0 * math.pi * np.arange(grid_points) / grid_points
    ring = [(bx + ring_radius * math.cos(theta), by + ring_radius * math.sin(theta))
            for theta in thetas]
    mean_loss = np.empty(grid_points)
    for k, cand in enumerate(ring):
        total = 0.0
        for uav in uavs:
            total += power_loss_linear(env, uav, cand)
        mean_loss[k] = total / len(uavs)

    best = float(mean_loss.min())
    tied = np.nonzero(mean_loss <= best * (1.0 + 1e-12))[0]
    return ring[int(tied[0])]
