"""Random scenario generation: users in a square cell, swarms in hover cylinders."""

from __future__ import annotations

import math

import numpy as np

from ..channel import substream
from ..geometry import worst_case_eve_position
from ..scenario import Scenario
from .config import ScenarioConfig


def generate_topology(config: ScenarioConfig, seed: int) -> Scenario:
    """Draw one scenario from the config's distribution with the given seed.

    Users are uniform over the cell; each slot's swarm members are uniform in
    a vertical cylinder above the scheduled user (disc of the hover radius,
    altitudes between the configured bounds); the eavesdropper sits at the
    worst-case point of the safety ring. Each (slot, member) pair draws from
    its own substream, so increasing ``n_uavs`` extends swarms without
    re-randomizing existing members.
    """
    env = config.environment_params()

    users = substream(seed, "users").uniform(0.0, config.cell_size_m,
                                             size=(config.n_slots, 2))
    uav_xyz = np.empty((config.n_slots, config.n_uavs, 3))
    eve_xy = np.empty_like(users)
    for n in range(config.n_slots):
        bx, by = users[n].tolist()
        for l in range(config.n_uavs):
            rng = substream(seed, "uav", n, l)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = config.hover_radius_m * math.sqrt(rng.uniform())
            altitude = rng.uniform(config.altitude_min_m, config.altitude_max_m)
            uav_xyz[n, l] = (bx + radius * math.cos(angle),
                             by + radius * math.sin(angle), altitude)
        eve_xy[n] = worst_case_eve_position(users[n], config.eve_ring_radius_m,
                                            uav_xyz[n], env, config.eve_grid_points)

    return Scenario(env=env, uav_xyz=uav_xyz, bob_xy=users, eve_xy=eve_xy,
                    bob_antennas=config.bob_antennas,
                    eve_antennas=config.eve_antennas,
                    noise_w=config.noise_w(),
                    budgets=config.budgets())
