"""Geometry: slant ranges, elevation angles, worst-case eavesdropper placement,
and the one check of node positions and budgets, in ``Scenario`` and ``Budgets``.

The slant range and the elevation angle of a link are computed inside
``path_loss_db``; these tests read them back through the loss it returns.
"""

import math

import numpy as np
import pytest

from swarmsec.channel import environment_preset, path_loss_db, power_loss_linear
from swarmsec.geometry import worst_case_eve_position
from swarmsec.scenario import Budgets, Scenario

from conftest import default_budgets, make_slot, positions


_GOOD = positions([make_slot((0.0, 0.0), [(1.0, 0.0, 120.0), (0.0, 2.0, 150.0)],
                             (100.0, 0.0))])


def _build(**fields):
    return Scenario(env=environment_preset("urban"),
                    **{**_GOOD, "bob_antennas": 2, "eve_antennas": 2, **fields},
                    noise_w=1e-13, budgets=default_budgets())


def _assert_all_rejected(bad):
    for fields in bad:
        with pytest.raises(ValueError):
            _build(**fields)


def test_position_rejects_negative_altitude():
    assert _build().loss_bob.shape == (1, 2)
    _assert_all_rejected([dict(uav_xyz=_GOOD["uav_xyz"] * [1.0, 1.0, -1.0])])


def test_position_rejects_non_finite():
    uav = _GOOD["uav_xyz"]
    _assert_all_rejected([
        dict(uav_xyz=uav + [float("nan"), 0.0, 0.0]),
        dict(uav_xyz=uav + [0.0, float("inf"), 0.0]),
        dict(uav_xyz=uav + [0.0, 0.0, float("inf")]),
        dict(bob_xy=[[float("nan"), 0.0]]),
        dict(eve_xy=[[0.0, float("inf")]]),
    ])


def test_slot_requires_airborne_transmitters():
    _assert_all_rejected([dict(uav_xyz=_GOOD["uav_xyz"] * [1.0, 1.0, 0.0])])


def test_slot_requires_ground_receivers():
    # receivers are (x, y) pairs on the ground; a third coordinate is rejected
    _assert_all_rejected([
        dict(bob_xy=[[100.0, 0.0, 10.0]]),
        dict(eve_xy=[[0.0, 0.0, 0.0]]),
    ])


def test_scenario_rejects_bad_shapes():
    uav = _GOOD["uav_xyz"]
    _assert_all_rejected([
        dict(uav_xyz=uav[0]),
        dict(uav_xyz=uav[..., :2]),
        dict(uav_xyz=uav[:, :0]),
        dict(uav_xyz=uav[:0], bob_xy=np.empty((0, 2)), eve_xy=np.empty((0, 2))),
        dict(bob_xy=[[0.0, 0.0], [1.0, 1.0]]),
    ])


def test_scenario_rejects_non_integer_antennas():
    assert _build(eve_antennas=np.int64(3)).eve_antennas == 3
    _assert_all_rejected([dict(eve_antennas=1.7), dict(bob_antennas=True),
                          dict(bob_antennas=0), dict(eve_antennas="2")])


@pytest.mark.parametrize("fields", [dict(e_max_j="300"), dict(p_max_w=True),
                                    dict(t_total_s=None), dict(tau_max_s=np.bool_(True))])
def test_budgets_reject_booleans_and_non_numbers(fields):
    with pytest.raises(ValueError, match=f"^{next(iter(fields))} must be a real number") as err:
        default_budgets(**fields)
    assert "\n" not in str(err.value)


def test_budgets_store_floats():
    budgets = Budgets(p_max_w=1, e_max_j=np.int64(300), t_total_s=np.float32(100.0),
                      tau_max_s=8, t_period_s=210.0)
    assert budgets == default_budgets()
    assert all(type(getattr(budgets, f)) is float
               for f in ("p_max_w", "e_max_j", "t_total_s", "tau_max_s", "t_period_s"))


def _free_space_db(d):
    return 20.0 * math.log10(d) + 20.0 * math.log10(4.0 * math.pi * 2.4e9 / 3.0e8)


def _loss_from_range_and_elevation(env, d, rho_deg):
    """Sigmoid-blend path loss written out from a known slant range and elevation."""
    return ((env.eta_los_db - env.eta_nlos_db)
            / (1.0 + env.a * math.exp(-env.b * (rho_deg - env.a)))
            + _free_space_db(d) + env.eta_nlos_db)


def test_distance_pythagorean_triple():
    # 30-40 horizontal legs and 120 altitude: sqrt(900+1600+14400) = 130 exactly
    env = environment_preset("urban")
    uav = (30.0, 40.0, 120.0)
    expected = _loss_from_range_and_elevation(env, 130.0, math.degrees(math.asin(12.0 / 13.0)))
    assert path_loss_db(env, uav, (0.0, 0.0)) == pytest.approx(
        expected, rel=1e-14)


def test_elevation_angle_oracle():
    # asin(120/130) for the 5-12-13 triangle scaled by 10
    env = environment_preset("urban")
    uav = (0.0, 50.0, 120.0)
    expected = _loss_from_range_and_elevation(env, 130.0, math.degrees(math.asin(12.0 / 13.0)))
    assert path_loss_db(env, uav, (0.0, 0.0)) == pytest.approx(
        expected, rel=1e-14)


def test_elevation_overhead_is_90():
    env = environment_preset("urban")
    uav = (7.0, -3.0, 150.0)
    expected = _loss_from_range_and_elevation(env, 150.0, 90.0)
    assert path_loss_db(env, uav, (7.0, -3.0)) == pytest.approx(
        expected, rel=1e-14)


def test_elevation_monotone_in_horizontal_offset():
    # with the free-space term of the known slant range taken off, what is left
    # depends on the elevation only, and grows as the elevation falls
    env = environment_preset("highrise-urban")
    rng = np.random.default_rng(3)
    ground = (0.0, 0.0)
    for _ in range(50):
        z = rng.uniform(50.0, 300.0)
        r1 = rng.uniform(1.0, 500.0)
        r2 = r1 + rng.uniform(1.0, 500.0)
        near = path_loss_db(env, (r1, 0.0, z), ground) - _free_space_db(math.hypot(r1, z))
        far = path_loss_db(env, (r2, 0.0, z), ground) - _free_space_db(math.hypot(r2, z))
        assert near < far


def test_eve_placement_lies_on_ring():
    env = environment_preset("urban")
    bob = (200.0, 300.0)
    uavs = [(230.0, 310.0, 140.0), (180.0, 290.0, 160.0)]
    eve = worst_case_eve_position(bob, 100.0, uavs, env)
    assert len(eve) == 2  # a ground point: (x, y)
    assert math.hypot(eve[0] - bob[0], eve[1] - bob[1]) == pytest.approx(100.0, abs=1e-9)


def test_eve_placement_matches_brute_force():
    # independent scan: recompute the mean linear loss at every grid angle
    env = environment_preset("suburban")
    rng = np.random.default_rng(11)
    for _ in range(5):
        bx, by = rng.uniform(0, 1000), rng.uniform(0, 1000)
        uavs = [(bx + rng.uniform(-50, 50), by + rng.uniform(-50, 50), rng.uniform(100, 200))
                for _ in range(4)]
        eve = worst_case_eve_position((bx, by), 100.0, uavs, env, grid_points=360)

        best_val, best_xy = np.inf, None
        for k in range(360):
            theta = 2.0 * math.pi * k / 360
            cand = (bx + 100.0 * math.cos(theta), by + 100.0 * math.sin(theta))
            val = sum(power_loss_linear(env, u, cand) for u in uavs) / len(uavs)
            if val < best_val:
                best_val, best_xy = val, cand
        assert eve[0] == pytest.approx(best_xy[0], abs=1e-9)
        assert eve[1] == pytest.approx(best_xy[1], abs=1e-9)


def test_eve_placement_grid_refinement_improves():
    env = environment_preset("dense-urban")
    bob = (500.0, 500.0)
    rng = np.random.default_rng(7)
    uavs = [(bob[0] + rng.uniform(-50, 50), bob[1] + rng.uniform(-50, 50),
             rng.uniform(100, 200)) for _ in range(5)]

    def mean_loss(point):
        return sum(power_loss_linear(env, u, point) for u in uavs) / len(uavs)

    coarse = mean_loss(worst_case_eve_position(bob, 100.0, uavs, env, grid_points=90))
    fine = mean_loss(worst_case_eve_position(bob, 100.0, uavs, env, grid_points=1440))
    assert fine <= coarse + 1e-15


def test_eve_placement_symmetric_tie_breaks_to_smallest_angle():
    # one transmitter directly above the user: every ring point hears it equally
    env = environment_preset("suburban")
    eve = worst_case_eve_position((100.0, 100.0), 100.0, [(100.0, 100.0, 150.0)], env)
    assert eve[0] == pytest.approx(200.0, abs=1e-9)
    assert eve[1] == pytest.approx(100.0, abs=1e-9)


def test_eve_placement_input_validation():
    env = environment_preset("suburban")
    bob = (0.0, 0.0)
    uav = (0.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        worst_case_eve_position(bob, 0.0, [uav], env)
    with pytest.raises(ValueError):
        worst_case_eve_position(bob, 100.0, [], env)
    with pytest.raises(ValueError):
        worst_case_eve_position(bob, 100.0, [uav], env, grid_points=4)
