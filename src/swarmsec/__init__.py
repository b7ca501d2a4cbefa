"""Secrecy-throughput power and duration allocation for cooperative UAV downlinks.

A swarm of single-antenna UAVs forms a virtual multi-antenna array that serves
ground users while jamming a worst-case eavesdropper with artificial noise.
This package evaluates the achievable average secrecy throughput in closed
form (large-scale channel knowledge only), cross-checks it by Monte Carlo, and
maximizes it over per-UAV transmit/noise powers and slot durations with a
block-coordinate method.
"""

__version__ = "0.1.0"

from .channel import (ENVIRONMENT_PRESETS, EnvironmentParams, dbm_to_watts,
                      derive_seed, environment_preset, path_loss_db,
                      power_loss_linear, sample_small_scale, substream,
                      watts_to_dbm)
from .errors import NumericalError
from .geometry import Position3D, SlotGeometry, distance, elevation_angle_deg, worst_case_eve_position
from .optimizer import (IterationRecord, SolutionTrace, audit_feasibility,
                        rate_term_gradient, rate_term_tangent, run_bcd,
                        sca_surrogate_value, solve_aux_block_max,
                        solve_aux_block_min, solve_duration_lp,
                        solve_power_subproblem, throughput_at_aux)
from .rates import (AuxVariables, RateEstimate, ergodic_rate_mc,
                    fixed_point_residual, per_slot_secrecy, rate_term,
                    secrecy_throughput_closed_form, secrecy_throughput_mc,
                    solve_fixed_point)
from .scenario import Budgets, PowerSchedule, Scenario, uniform_schedule

__all__ = [
    "ENVIRONMENT_PRESETS",
    "AuxVariables",
    "Budgets",
    "EnvironmentParams",
    "IterationRecord",
    "NumericalError",
    "Position3D",
    "PowerSchedule",
    "RateEstimate",
    "Scenario",
    "SlotGeometry",
    "SolutionTrace",
    "audit_feasibility",
    "dbm_to_watts",
    "derive_seed",
    "distance",
    "elevation_angle_deg",
    "environment_preset",
    "ergodic_rate_mc",
    "fixed_point_residual",
    "path_loss_db",
    "per_slot_secrecy",
    "power_loss_linear",
    "rate_term",
    "rate_term_gradient",
    "rate_term_tangent",
    "run_bcd",
    "sample_small_scale",
    "sca_surrogate_value",
    "secrecy_throughput_closed_form",
    "secrecy_throughput_mc",
    "solve_aux_block_max",
    "solve_aux_block_min",
    "solve_duration_lp",
    "solve_fixed_point",
    "solve_power_subproblem",
    "substream",
    "throughput_at_aux",
    "uniform_schedule",
    "watts_to_dbm",
    "worst_case_eve_position",
]
