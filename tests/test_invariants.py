"""Metamorphic invariants: exact symmetries of the model, checked on seeded
default topologies.

The swarm is an unordered set of transmitters and the geometry has no
preferred origin, so relabelling the UAVs or translating the whole layout
must not change what the optimizer and the eavesdropper scan find. The slots
are scored independently and summed, so reordering them only reorders the
per-slot results. Every rate depends on the powers only through their ratio
to the noise power, so scaling both by one factor changes nothing. Values are
compared at rtol 1e-12 rather than bit for bit: a sum over the UAVs in
another order, or a vectorised loss, may round differently, and that is not
a change of the model. A golden file cannot tell those two apart; these
checks can.
"""

import dataclasses
import math

import numpy as np

from swarmsec.geometry import worst_case_eve_position
from swarmsec.harness.config import ScenarioConfig
from swarmsec.harness.experiments import initial_point
from swarmsec.harness.topology import generate_topology
from swarmsec.optimizer import run_bcd
from swarmsec.rates import secrecy_throughput_closed_form
from swarmsec.scenario import PowerSchedule, Scenario

SEEDS = range(1, 9)


def _permuted(scenario, rng):
    """The same scenario with the UAVs of each slot in a random order."""
    uav = np.array([swarm[rng.permutation(scenario.n_uavs)] for swarm in scenario.uav_xyz])
    return Scenario(env=scenario.env, uav_xyz=uav, bob_xy=scenario.bob_xy,
                    eve_xy=scenario.eve_xy, bob_antennas=scenario.bob_antennas,
                    eve_antennas=scenario.eve_antennas, noise_w=scenario.noise_w,
                    budgets=scenario.budgets)


def _slots_permuted(scenario, perm):
    """The same scenario with its slots in the order ``perm``."""
    return Scenario(env=scenario.env, uav_xyz=scenario.uav_xyz[perm],
                    bob_xy=scenario.bob_xy[perm], eve_xy=scenario.eve_xy[perm],
                    bob_antennas=scenario.bob_antennas,
                    eve_antennas=scenario.eve_antennas, noise_w=scenario.noise_w,
                    budgets=scenario.budgets)


def _random_point(scenario, rng):
    """A schedule in the power box and durations up to the per-slot cap."""
    shape = (scenario.n_slots, scenario.n_uavs)
    p_u = rng.uniform(0.0, scenario.budgets.p_max_w, shape)
    p_a = p_u * rng.uniform(0.0, 1.0, shape)
    return p_u, p_a, rng.uniform(0.0, scenario.budgets.tau_max_s, scenario.n_slots)


def test_bcd_invariant_under_uav_permutation():
    config = ScenarioConfig()
    rng = np.random.default_rng(0)
    for seed in SEEDS:
        scenario = generate_topology(config, seed)
        permuted = _permuted(scenario, rng)
        finals = []
        for s in (scenario, permuted):
            schedule, tau = initial_point(s, config)
            finals.append(run_bcd(s, schedule, tau, epsilon=config.bcd_epsilon,
                                  max_iter=config.bcd_max_iter).final)
        want, got = finals
        np.testing.assert_allclose(got.objective, want.objective, rtol=1e-12)
        np.testing.assert_allclose(got.aux, want.aux, rtol=1e-12)


def _ring_index(point, bob_xy, grid_points):
    """The scan's angle index of a ring point around the user."""
    angle = math.atan2(point[1] - bob_xy[1], point[0] - bob_xy[0])
    return round(angle / (2.0 * math.pi / grid_points)) % grid_points


def test_eve_scan_invariant_under_permutation_and_translation():
    config = ScenarioConfig()
    radius, grid = config.eve_ring_radius_m, config.eve_grid_points
    shift = np.array([256.0, -512.0])
    rng = np.random.default_rng(1)
    for seed in SEEDS:
        scenario = generate_topology(config, seed)
        for bob, swarm, eve in zip(scenario.bob_xy, scenario.uav_xyz, scenario.eve_xy):
            permuted = swarm[rng.permutation(len(swarm))]
            np.testing.assert_allclose(
                worst_case_eve_position(bob, radius, permuted, scenario.env, grid),
                eve, rtol=1e-12)
            moved = swarm + np.append(shift, 0.0)
            point = worst_case_eve_position(bob + shift, radius, moved, scenario.env, grid)
            assert _ring_index(point, bob + shift, grid) == _ring_index(eve, bob, grid)


def test_closed_form_and_bcd_invariant_under_slot_permutation():
    config = ScenarioConfig()
    rng = np.random.default_rng(2)
    for seed in SEEDS:
        scenario = generate_topology(config, seed)
        perm = rng.permutation(scenario.n_slots)
        permuted = _slots_permuted(scenario, perm)
        p_u, p_a, tau = _random_point(scenario, rng)
        value, aux, per_slot = secrecy_throughput_closed_form(
            scenario, PowerSchedule(p_u, p_a), tau)
        got = secrecy_throughput_closed_form(
            permuted, PowerSchedule(p_u[perm], p_a[perm]), tau[perm])
        np.testing.assert_allclose(got[0], value, rtol=1e-12)
        np.testing.assert_allclose(got[1], aux[:, perm], rtol=1e-12)
        np.testing.assert_allclose(got[2], per_slot[perm], rtol=1e-12)

        finals = []
        for s in (scenario, permuted):
            schedule, start = initial_point(s, config)
            finals.append(run_bcd(s, schedule, start, epsilon=config.bcd_epsilon,
                                  max_iter=config.bcd_max_iter).final)
        want, got = finals
        np.testing.assert_allclose(got.objective, want.objective, rtol=1e-12)
        np.testing.assert_allclose(got.aux, want.aux[:, perm], rtol=1e-12)
        np.testing.assert_allclose(got.tau, want.tau[perm], rtol=1e-12)


def test_closed_form_invariant_under_noise_and_power_scaling():
    # a power of two scales exactly, 3.7 rounds each product once
    config = ScenarioConfig()
    rng = np.random.default_rng(3)
    for seed in SEEDS:
        scenario = generate_topology(config, seed)
        p_u, p_a, tau = _random_point(scenario, rng)
        value, aux, _ = secrecy_throughput_closed_form(scenario, PowerSchedule(p_u, p_a), tau)
        for k in (2.0 ** 7, 3.7):
            scaled = dataclasses.replace(scenario, noise_w=k * scenario.noise_w)
            got, got_aux, _ = secrecy_throughput_closed_form(
                scaled, PowerSchedule(k * p_u, k * p_a), tau)
            np.testing.assert_allclose(got, value, rtol=1e-12)
            np.testing.assert_allclose(got_aux, aux, rtol=1e-12)
