"""Node positions and worst-case eavesdropper placement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import power_loss_linear


@dataclass(frozen=True)
class Position3D:
    """Point in the cell frame; x/y horizontal meters, z altitude in meters."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y}, {self.z})")
        if self.z < 0.0:
            raise ValueError(f"altitude must be nonnegative, got {self.z}")


@dataclass(frozen=True)
class SlotGeometry:
    """Placement of the swarm, the scheduled user and the eavesdropper in one slot."""

    uav_positions: tuple[Position3D, ...]
    bob_position: Position3D
    eve_position: Position3D
    slot_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "uav_positions", tuple(self.uav_positions))
        if not self.uav_positions:
            raise ValueError("a slot needs at least one transmitter")
        if any(p.z <= 0.0 for p in self.uav_positions):
            raise ValueError("every transmitter must be airborne (z > 0)")
        if self.bob_position.z != 0.0 or self.eve_position.z != 0.0:
            raise ValueError("receivers must be on the ground (z = 0)")

    @property
    def n_uavs(self) -> int:
        return len(self.uav_positions)


def _ring_point(center: Position3D, radius: float, theta: float) -> Position3D:
    return Position3D(center.x + radius * math.cos(theta),
                      center.y + radius * math.sin(theta), 0.0)


def worst_case_eve_position(bob: Position3D, ring_radius: float,
                            uav_positions, env, grid_points: int = 360) -> Position3D:
    """Place the eavesdropper on the safety ring where it hears the swarm best.

    Scans ``grid_points`` angles uniformly over [0, 2*pi) around the scheduled
    user and returns the ring point minimizing the swarm-mean linear power
    loss. Ties go to the smallest angle; "tie" allows a 1e-12 relative slack so
    exactly symmetric geometries resolve deterministically instead of by
    floating-point noise in the trig evaluations.
    """
    uav_positions = tuple(uav_positions)
    if not uav_positions:
        raise ValueError("uav_positions must be non-empty")
    if not (math.isfinite(ring_radius) and ring_radius > 0.0):
        raise ValueError(f"ring radius must be positive, got {ring_radius}")
    if grid_points < 8:
        raise ValueError(f"grid_points must be at least 8, got {grid_points}")

    thetas = 2.0 * math.pi * np.arange(grid_points) / grid_points
    mean_loss = np.empty(grid_points)
    for k, theta in enumerate(thetas):
        cand = _ring_point(bob, ring_radius, theta)
        total = 0.0
        for uav in uav_positions:
            total += power_loss_linear(env, uav, cand)
        mean_loss[k] = total / len(uav_positions)

    best = float(mean_loss.min())
    tied = np.nonzero(mean_loss <= best * (1.0 + 1e-12))[0]
    return _ring_point(bob, ring_radius, float(thetas[int(tied[0])]))
