"""Problem instances: node positions, cached losses, budgets, power schedules."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .channel import (EnvironmentParams, check_array, check_count, check_points, check_real,
                      power_loss_linear)


@dataclass(frozen=True)
class Budgets:
    """Transmit-side resource limits. Power in watts, energy in joules, time in seconds.

    Each field is stored as a float.
    """

    p_max_w: float
    e_max_j: float
    t_total_s: float
    tau_max_s: float
    t_period_s: float

    def __post_init__(self):
        for f in fields(self):
            value = check_real(f.name, getattr(self, f.name), positive=True)
            object.__setattr__(self, f.name, value)
        if self.tau_max_s > self.t_total_s:
            raise ValueError("per-slot duration cap cannot exceed the total transmission time")
        if self.t_period_s < self.t_total_s:
            raise ValueError("the scheduling period cannot be shorter than the total "
                             "transmission time")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One downlink instance: a swarm serving N users with an eavesdropper per slot.

    Node positions are arrays in meters: the swarm's transmitters ``uav_xyz``
    (N, L, 3), one row of L members per slot, and the scheduled user
    ``bob_xy`` and the eavesdropper ``eve_xy`` (N, 2) on the ground. The
    per-slot linear power losses toward the user (``loss_bob``) and the
    eavesdropper (``loss_eve``) are precomputed as (N, L) arrays, each
    positive and finite. The noise power ``noise_w`` is stored as a float.
    """

    env: EnvironmentParams
    uav_xyz: np.ndarray
    bob_xy: np.ndarray
    eve_xy: np.ndarray
    bob_antennas: int
    eve_antennas: int
    noise_w: float
    budgets: Budgets
    loss_bob: np.ndarray = field(init=False, repr=False)
    loss_eve: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.env, EnvironmentParams):
            raise ValueError(f"env must be an EnvironmentParams, "
                             f"got {type(self.env).__name__}")
        uav = check_points("uav_xyz", self.uav_xyz, ("N", "L", 3))
        n_slots, n_uavs, _ = uav.shape
        bob, eve = (check_points(name, getattr(self, name), (n_slots, 2))
                    for name in ("bob_xy", "eve_xy"))
        if np.any(uav[..., 2] <= 0.0):
            raise ValueError("every transmitter must be airborne (z > 0)")
        for name in ("bob_antennas", "eve_antennas"):
            check_count(name, getattr(self, name))
        noise_w = check_real("noise_w", self.noise_w, positive=True)
        object.__setattr__(self, "noise_w", noise_w)

        loss_bob = np.empty((n_slots, n_uavs))
        loss_eve = np.empty_like(loss_bob)
        bobs, eves = bob.tolist(), eve.tolist()
        for n, swarm in enumerate(uav.tolist()):
            for l, xyz in enumerate(swarm):
                loss_bob[n, l] = power_loss_linear(self.env, xyz, bobs[n])
                loss_eve[n, l] = power_loss_linear(self.env, xyz, eves[n])
        for name, value in (("loss_bob", loss_bob), ("loss_eve", loss_eve)):
            check_array(name, value, positive=True)
        for name, value in (("uav_xyz", uav), ("bob_xy", bob), ("eve_xy", eve),
                            ("loss_bob", loss_bob), ("loss_eve", loss_eve)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_slots(self) -> int:
        return self.uav_xyz.shape[0]

    @property
    def n_uavs(self) -> int:
        return self.uav_xyz.shape[1]


@dataclass(frozen=True, eq=False)
class PowerSchedule:
    """Per-slot, per-UAV transmit powers in watts, shaped (N, L) like the losses.

    ``p_u`` is the total radiated power (confidential signal plus artificial
    noise), ``p_a`` the artificial-noise share; the signal power is their
    difference. Both are finite, with 0 <= p_a <= p_u, and are stored as
    read-only copies of the given arrays.
    """

    p_u: np.ndarray
    p_a: np.ndarray

    def __post_init__(self):
        p_u, p_a = (np.array(check_array(name, getattr(self, name))) for name in ("p_u", "p_a"))
        if p_u.ndim != 2 or p_u.shape != p_a.shape:
            raise ValueError(f"p_u and p_a must share one 2-D shape, got {p_u.shape}, {p_a.shape}")
        if (p_a > p_u).any():
            raise ValueError("p_a must not exceed p_u")
        for name, value in (("p_u", p_u), ("p_a", p_a)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def uniform_schedule(scenario: Scenario, p_u_w: float, p_a_w: float) -> PowerSchedule:
    """Constant schedule: every UAV in every slot uses the same power pair.

    Finite real numbers (``check_real``) are clipped into the feasible box
    (0 <= p_a <= p_u <= p_max), so a setting above the cap becomes the cap.
    """
    p_u = min(max(check_real("p_u_w", p_u_w), 0.0), scenario.budgets.p_max_w)
    p_a = min(max(check_real("p_a_w", p_a_w), 0.0), p_u)
    shape = (scenario.n_slots, scenario.n_uavs)
    return PowerSchedule(np.full(shape, p_u), np.full(shape, p_a))
