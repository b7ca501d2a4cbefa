"""Secrecy-throughput power and duration allocation for cooperative UAV downlinks.

A swarm of single-antenna UAVs forms a virtual multi-antenna array that serves
ground users while jamming a worst-case eavesdropper with artificial noise.
This package evaluates the achievable average secrecy throughput in closed
form (large-scale channel knowledge only), cross-checks it by Monte Carlo, and
maximizes it over per-UAV transmit/noise powers and slot durations with a
block-coordinate method. The building blocks live in the submodules
(``geometry``, ``channel``, ``scenario``, ``rates``, ``optimizer``,
``harness``).
"""

__version__ = "0.1.0"

from .optimizer import run_bcd
from .rates import secrecy_throughput_closed_form
from .scenario import uniform_schedule

__all__ = ["run_bcd", "secrecy_throughput_closed_form", "uniform_schedule"]
