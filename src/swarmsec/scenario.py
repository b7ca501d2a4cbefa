"""Problem instances: per-slot geometry, cached losses, budgets, power schedules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import EnvironmentParams, power_loss_linear
from .geometry import SlotGeometry


@dataclass(frozen=True)
class Budgets:
    """Transmit-side resource limits. Power in watts, energy in joules, time in seconds."""

    p_max_w: float
    e_max_j: float
    t_total_s: float
    tau_max_s: float
    t_period_s: float

    def __post_init__(self):
        for name in ("p_max_w", "e_max_j", "t_total_s", "tau_max_s", "t_period_s"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.tau_max_s > self.t_total_s:
            raise ValueError("per-slot duration cap cannot exceed the total transmission time")
        if self.t_period_s < self.t_total_s:
            raise ValueError("the scheduling period cannot be shorter than the total "
                             "transmission time")


@dataclass(frozen=True)
class Scenario:
    """One downlink instance: a swarm serving N users with an eavesdropper per slot.

    The per-slot linear power losses toward the scheduled user (``loss_bob``)
    and the eavesdropper (``loss_eve``) are precomputed as (N, L) arrays.
    """

    env: EnvironmentParams
    slots: tuple[SlotGeometry, ...]
    bob_antennas: int
    eve_antennas: int
    noise_w: float
    budgets: Budgets
    loss_bob: np.ndarray = field(init=False, repr=False, compare=False)
    loss_eve: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.slots:
            raise ValueError("a scenario needs at least one slot")
        n_uavs = self.slots[0].n_uavs
        if any(s.n_uavs != n_uavs for s in self.slots):
            raise ValueError("all slots must share the same swarm size")
        if self.bob_antennas < 1 or self.eve_antennas < 1:
            raise ValueError("both receivers need at least one antenna")
        if not (np.isfinite(self.noise_w) and self.noise_w > 0.0):
            raise ValueError(f"noise power must be positive, got {self.noise_w}")

        loss_bob = np.empty((len(self.slots), n_uavs))
        loss_eve = np.empty_like(loss_bob)
        for n, slot in enumerate(self.slots):
            for l, uav in enumerate(slot.uav_positions):
                loss_bob[n, l] = power_loss_linear(self.env, uav, slot.bob_position)
                loss_eve[n, l] = power_loss_linear(self.env, uav, slot.eve_position)
        object.__setattr__(self, "loss_bob", loss_bob)
        object.__setattr__(self, "loss_eve", loss_eve)

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def n_uavs(self) -> int:
        return self.slots[0].n_uavs


@dataclass
class PowerSchedule:
    """Per-UAV, per-slot transmit powers in watts, shaped (L, N).

    ``p_u`` is the total radiated power (confidential signal plus artificial
    noise), ``p_a`` the artificial-noise share; the signal power is their
    difference.
    """

    p_u: np.ndarray
    p_a: np.ndarray

    def __post_init__(self):
        self.p_u = np.atleast_2d(np.asarray(self.p_u, dtype=float))
        self.p_a = np.atleast_2d(np.asarray(self.p_a, dtype=float))
        if self.p_u.shape != self.p_a.shape:
            raise ValueError(f"shape mismatch: {self.p_u.shape} vs {self.p_a.shape}")
        if not (np.all(np.isfinite(self.p_u)) and np.all(np.isfinite(self.p_a))):
            raise ValueError("powers must be finite")

    @property
    def p_s(self) -> np.ndarray:
        """Confidential-signal power, p_u - p_a."""
        return self.p_u - self.p_a

    @property
    def shape(self) -> tuple[int, int]:
        return self.p_u.shape

    def copy(self) -> "PowerSchedule":
        return PowerSchedule(self.p_u.copy(), self.p_a.copy())


def uniform_schedule(scenario: Scenario, p_u_w: float, p_a_w: float) -> PowerSchedule:
    """Constant schedule: every UAV in every slot uses the same power pair.

    Values are clipped into the feasible box (0 <= p_a <= p_u <= p_max), so a
    nominal setting above the cap degrades gracefully to the cap.
    """
    p_u = min(max(float(p_u_w), 0.0), scenario.budgets.p_max_w)
    p_a = min(max(float(p_a_w), 0.0), p_u)
    shape = (scenario.n_uavs, scenario.n_slots)
    return PowerSchedule(np.full(shape, p_u), np.full(shape, p_a))
