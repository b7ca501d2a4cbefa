"""Input rules: every public entry rejects a bad input with one line naming it."""

import dataclasses

import numpy as np
import pytest

from swarmsec.channel import EnvironmentParams, environment_preset, sample_small_scale, substream
from swarmsec.geometry import worst_case_eve_position
from swarmsec.harness.baseline import baseline_null_space
from swarmsec.harness.config import ScenarioConfig
from swarmsec.harness.topology import generate_topology
from swarmsec.optimizer import (audit_feasibility, run_bcd, solve_aux_block_max,
                                solve_aux_block_min, solve_duration_lp,
                                solve_power_subproblem, throughput_at_aux)
from swarmsec.rates import (ergodic_rate_mc, fixed_point_residual, per_slot_secrecy,
                            rate_term, rate_term_gradient, secrecy_throughput_closed_form,
                            secrecy_throughput_mc, solve_fixed_point)
from swarmsec.scenario import PowerSchedule, uniform_schedule

from conftest import default_budgets, feasible_schedule, small_scenario

SCENARIO = small_scenario(n_uavs=4)
SCHEDULE = feasible_schedule(SCENARIO)
TAU = np.ones(SCENARIO.n_slots)
AUX = np.ones((4, SCENARIO.n_slots))
NAN_AUX = np.where(np.eye(4, SCENARIO.n_slots) > 0.0, np.nan, 1.0)
LANE = ([0.1, 0.2], 2, [1e9, 2e9])  # powers, antennas, losses of one lane

CASES = {
    # a nan among a (4, N) array's entries: the message printed the array
    "per_slot_secrecy nan aux": ("aux", lambda: per_slot_secrecy(SCENARIO, SCHEDULE, NAN_AUX)),
    "throughput_at_aux nan aux": ("aux", lambda: throughput_at_aux(SCENARIO, SCHEDULE, TAU,
                                                                   NAN_AUX)),
    "solve_duration_lp nan aux": ("aux", lambda: solve_duration_lp(NAN_AUX, SCHEDULE, SCENARIO)),
    "solve_power_subproblem aux shape": ("aux", lambda: solve_power_subproblem(
        AUX[:3], TAU, SCHEDULE, SCENARIO)),
    "fixed_point_residual negative aux": ("aux", lambda: fixed_point_residual(*LANE, -0.5,
                                                                              1e-13)),
    "rate_term string noise": ("noise", lambda: rate_term(*LANE, 0.0, "1e-13")),
    "rate_term boolean noise": ("noise", lambda: rate_term(*LANE, 0.0, True)),
    # a string or boolean array converted to numbers gave a rate
    "rate_term string powers": ("powers", lambda: rate_term(["0.1", "0.2"], *LANE[1:], 0.0,
                                                            1e-13)),
    "rate_term boolean powers": ("powers", lambda: rate_term([True, False], *LANE[1:], 0.0,
                                                             1e-13)),
    "rate_term_gradient zero noise": ("noise", lambda: rate_term_gradient(*LANE, 0.0, 0.0)),
    "solve_fixed_point negative powers": ("powers", lambda: solve_fixed_point(
        [-0.1, 0.2], 2, [1e9, 2e9], 1e-13)),
    "solve_fixed_point zero loss": ("losses", lambda: solve_fixed_point(
        [0.1, 0.2], 2, [0.0, 2e9], 1e-13)),
    "ergodic_rate_mc negative p_num": ("p_num", lambda: ergodic_rate_mc(
        [1.0], [-1.0], [1.0], 1.0, 1, 10, substream(0, "n"))),
    "ergodic_rate_mc boolean noise": ("noise", lambda: ergodic_rate_mc(
        [1.0], [1.0], [1.0], True, 1, 10, substream(0, "n"))),
    "ergodic_rate_mc zero loss": ("losses", lambda: ergodic_rate_mc(
        [0.0], [1.0], [1.0], 1.0, 1, 10, substream(0, "n"))),
    # one draw gave a standard error of 0
    "ergodic_rate_mc one sample": ("samples", lambda: ergodic_rate_mc(
        [1.0], [1.0], [1.0], 1.0, 1, 1, substream(0, "n"))),
    "closed form nan tau": ("tau", lambda: secrecy_throughput_closed_form(
        SCENARIO, SCHEDULE, [np.nan, 1.0])),
    "closed form tau shape": ("tau", lambda: secrecy_throughput_closed_form(
        SCENARIO, [SCHEDULE, SCHEDULE], np.ones(5))),
    "mc throughput fractional samples": ("samples", lambda: secrecy_throughput_mc(
        SCENARIO, SCHEDULE, TAU, 2.5, substream(0, "n"))),
    "mc throughput one sample": ("samples", lambda: secrecy_throughput_mc(
        SCENARIO, SCHEDULE, TAU, 1, substream(0, "n"))),
    # a nan duration audited as feasible, and a short one failed inside numpy
    "audit_feasibility nan tau": ("tau", lambda: audit_feasibility(
        SCENARIO, SCHEDULE, np.full(SCENARIO.n_slots, np.nan))),
    "audit_feasibility short tau": ("tau", lambda: audit_feasibility(
        SCENARIO, SCHEDULE, TAU[:-1])),
    # "0.5" and True were taken as watts, and None raised a TypeError
    "uniform_schedule string power": ("p_u_w", lambda: uniform_schedule(SCENARIO, "0.5", 0.1)),
    "uniform_schedule boolean power": ("p_a_w", lambda: uniform_schedule(SCENARIO, 0.5, True)),
    "uniform_schedule no power": ("p_u_w", lambda: uniform_schedule(SCENARIO, None, 0.1)),
    # nan failed on PowerSchedule's p_u, and inf was capped to p_max
    "uniform_schedule nan power": ("p_u_w", lambda: uniform_schedule(SCENARIO, np.nan, 0.1)),
    "uniform_schedule infinite power": ("p_a_w", lambda: uniform_schedule(SCENARIO, 0.5,
                                                                          np.inf)),
    # a (2, 5) schedule audited as feasible, and a (3, 4) one failed inside numpy
    "audit_feasibility schedule UAVs": ("schedule", lambda: audit_feasibility(
        SCENARIO, uniform_schedule(small_scenario(n_uavs=5), 0.1, 0.0), TAU)),
    "audit_feasibility schedule slots": ("schedule", lambda: audit_feasibility(
        SCENARIO, uniform_schedule(small_scenario(n_uavs=4, n_slots=3), 0.1, 0.0), TAU)),
    "run_bcd nan epsilon": ("epsilon", lambda: run_bcd(SCENARIO, SCHEDULE, TAU,
                                                       epsilon=np.nan)),
    "run_bcd negative tau": ("tau", lambda: run_bcd(SCENARIO, SCHEDULE, [-1.0, 1.0])),
    "baseline_null_space tau": ("tau", lambda: baseline_null_space(
        SCENARIO, [1.0, np.inf], 100, substream(1, "b"))),
    "sample_small_scale zero antennas": ("n_antennas", lambda: sample_small_scale(
        substream(0, "s"), 0, 5)),
    # 2.5 drew int(2.5) = 2 samples
    "sample_small_scale fractional samples": ("samples", lambda: sample_small_scale(
        substream(0, "s"), 2, 3, 2.5)),
    "sample_small_scale boolean samples": ("samples", lambda: sample_small_scale(
        substream(0, "s"), 2, 3, True)),
    "worst_case_eve_position zero ring": ("ring_radius", lambda: worst_case_eve_position(
        (0.0, 0.0), 0.0, [(1.0, 0.0, 100.0)], environment_preset("urban"))),
    "worst_case_eve_position grid": ("grid_points", lambda: worst_case_eve_position(
        (0.0, 0.0), 100.0, [(1.0, 0.0, 100.0)], environment_preset("urban"), 8.5)),
    # both failed on tuple unpacking
    "worst_case_eve_position 3-D user": ("bob_xy", lambda: worst_case_eve_position(
        (0.0, 0.0, 0.0), 100.0, [(1.0, 0.0, 100.0)], environment_preset("urban"))),
    "worst_case_eve_position 2-D UAVs": ("uav_xyz", lambda: worst_case_eve_position(
        (0.0, 0.0), 100.0, [[0, 0]], environment_preset("urban"))),
    "power schedule negative p_a": ("p_a", lambda: PowerSchedule(SCHEDULE.p_u,
                                                                 -SCHEDULE.p_a - 0.01)),
    "power schedule p_a above p_u": ("p_a", lambda: PowerSchedule(SCHEDULE.p_a,
                                                                  SCHEDULE.p_u)),
    # a carrier this low puts every loss below the smallest float: it loaded and
    # built, and only a later kernel rejected the losses
    "scenario zero losses": ("loss_bob", lambda: generate_topology(
        ScenarioConfig(carrier_freq_hz=1e-300, n_slots=1, eve_grid_points=8), 1)),
    # "node coordinates must be finite" named none of them
    "scenario nan user": ("bob_xy", lambda: dataclasses.replace(
        SCENARIO, bob_xy=np.full((SCENARIO.n_slots, 2), np.nan))),
    # a 2-D array given for a scalar: its repr runs over several lines
    "budgets array": ("p_max_w", lambda: default_budgets(p_max_w=np.eye(3))),
    "environment zero carrier": ("carrier_freq_hz", lambda: EnvironmentParams(
        eta_los_db=1.0, eta_nlos_db=20.0, carrier_freq_hz=0.0)),
}

# A non-schedule raised an AttributeError, TypeError or IndexError naming
# nothing, and a list given for one schedule could give a result
BATCH_ENTRIES = {
    "closed form": lambda s: secrecy_throughput_closed_form(SCENARIO, s, TAU),
    "mc throughput": lambda s: secrecy_throughput_mc(SCENARIO, s, TAU, 10, substream(0, "n")),
}
SINGLE_ENTRIES = {
    "per_slot_secrecy": lambda s: per_slot_secrecy(SCENARIO, s, AUX),
    "throughput_at_aux": lambda s: throughput_at_aux(SCENARIO, s, TAU, AUX),
    "solve_power_subproblem": lambda s: solve_power_subproblem(AUX, TAU, s, SCENARIO),
    "solve_duration_lp": lambda s: solve_duration_lp(AUX, s, SCENARIO),
    "audit_feasibility": lambda s: audit_feasibility(SCENARIO, s, TAU),
    "run_bcd": lambda s: run_bcd(SCENARIO, s, TAU),
    "solve_aux_block_min": lambda s: solve_aux_block_min(s, TAU, SCENARIO),
    "solve_aux_block_max": lambda s: solve_aux_block_max(s, TAU, SCENARIO),
}
POWERS = np.ones((SCENARIO.n_slots, SCENARIO.n_uavs))
for _entry, _call in BATCH_ENTRIES.items():
    for _label, _bad, _name in (
            ("none", None, "schedules"), ("string", "xy", "schedules"),
            ("array", POWERS, "schedules"), ("array in a list", [POWERS], "schedule"),
            ("empty list", [], "schedules")):
        CASES[f"{_entry} {_label}"] = (_name, lambda c=_call, b=_bad: c(b))
for _entry, _call in SINGLE_ENTRIES.items():
    for _label, _bad in (("none", None), ("string", "xy"), ("array", POWERS),
                         ("empty list", []), ("list", [SCHEDULE])):
        CASES[f"{_entry} {_label}"] = ("schedule", lambda c=_call, b=_bad: c(b))


@pytest.mark.parametrize("name, call", CASES.values(), ids=list(CASES))
def test_every_rejection_is_one_line_naming_its_input(name, call):
    with pytest.raises(ValueError) as err:
        call()
    message = str(err.value)
    assert "\n" not in message
    assert message.startswith(f"{name} "), message
