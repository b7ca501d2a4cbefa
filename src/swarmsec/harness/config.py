"""YAML experiment configuration.

Every key carries its unit in the name. A config plus a seed fully determines
an experiment's numeric output; see the README for the key reference.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from ..channel import EnvironmentParams, dbm_to_watts, environment_preset
from ..scenario import Budgets

SWEEPABLE = ("p_max_dbm", "e_max_j", "n_uavs", "environment")


@dataclass
class ScenarioConfig:
    # propagation
    environment: str = "suburban"
    eta_los_db: float | None = None   # used only when environment == "custom"
    eta_nlos_db: float | None = None
    env_a: float = 5.0188
    env_b: float = 0.3511
    carrier_freq_hz: float = 2.4e9

    # layout
    n_uavs: int = 7
    n_slots: int = 10
    bob_antennas: int = 5
    eve_antennas: int = 3
    cell_size_m: float = 1000.0
    hover_radius_m: float = 50.0
    altitude_min_m: float = 100.0
    altitude_max_m: float = 200.0
    eve_ring_radius_m: float = 100.0
    eve_grid_points: int = 360

    # budgets and noise
    p_max_dbm: float = 30.0
    e_max_j: float = 300.0
    t_total_s: float = 100.0
    tau_max_s: float = 8.0
    t_period_s: float = 210.0
    noise_dbm: float = -107.0

    # randomness and Monte Carlo
    seed: int = 1
    mc_samples: int = 10000
    baseline_samples: int = 2000

    # optimizer initialization and stopping
    init_p_u_dbm: float = 30.0
    init_p_a_dbm: float = 0.0
    bcd_epsilon: float = 1e-3
    bcd_max_iter: int = 50

    # experiment-specific knobs
    sweep_variable: str = "e_max_j"
    sweep_values: list = field(default_factory=lambda: [50.0, 100.0, 150.0, 200.0, 250.0, 300.0])
    n_topologies: int = 100
    replicates: int = 1
    validate_p_a_dbm: list = field(default_factory=lambda: [5.0, 10.0, 15.0, 20.0])
    validate_p_s_dbm: list = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])

    def __post_init__(self):
        for name in ("sweep_values", "validate_p_a_dbm", "validate_p_s_dbm"):
            if not isinstance(getattr(self, name), (list, tuple)) or not getattr(self, name):
                raise ValueError(f"{name} must be a non-empty list")
        for name in ("validate_p_a_dbm", "validate_p_s_dbm"):
            for v in getattr(self, name):
                _as_float(name, v)
        if self.sweep_variable not in SWEEPABLE:
            raise ValueError(f"sweep_variable must be one of {SWEEPABLE}, "
                             f"got {self.sweep_variable!r}")
        self.sweep_values = [_coerce(self.sweep_variable, v) for v in self.sweep_values]
        self._check_scalars()
        for v in self.sweep_values:  # each sweep point must load too
            stepped = copy.copy(self)
            setattr(stepped, self.sweep_variable, v)
            stepped._check_scalars()

    def _check_scalars(self) -> None:
        """Range checks of the scalar fields, the budgets and the environment."""
        if self.environment == "custom" and (self.eta_los_db is None
                                             or self.eta_nlos_db is None):
            raise ValueError("environment 'custom' requires eta_los_db and eta_nlos_db")
        for name in ("n_uavs", "n_slots", "bob_antennas", "eve_antennas", "mc_samples",
                     "baseline_samples", "bcd_max_iter", "n_topologies", "replicates"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if int(self.eve_grid_points) < 8:
            raise ValueError("eve_grid_points must be at least 8")
        if not self.bcd_epsilon > 0:
            raise ValueError("bcd_epsilon must be positive")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")
        if self.altitude_min_m <= 0 or self.altitude_max_m < self.altitude_min_m:
            raise ValueError("altitudes must satisfy 0 < altitude_min_m <= altitude_max_m")
        for name in ("cell_size_m", "eve_ring_radius_m"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.hover_radius_m >= 0:
            raise ValueError("hover_radius_m must be nonnegative")
        self.budgets()
        self.environment_params()

    def environment_params(self) -> EnvironmentParams:
        if self.environment == "custom":
            base = EnvironmentParams(eta_los_db=float(self.eta_los_db),
                                     eta_nlos_db=float(self.eta_nlos_db))
        else:
            base = environment_preset(self.environment)
        return dataclasses.replace(base, a=self.env_a, b=self.env_b,
                                   carrier_freq_hz=self.carrier_freq_hz)

    def budgets(self) -> Budgets:
        return Budgets(p_max_w=dbm_to_watts(self.p_max_dbm),
                       e_max_j=self.e_max_j,
                       t_total_s=self.t_total_s,
                       tau_max_s=self.tau_max_s,
                       t_period_s=self.t_period_s)

    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)


def _as_int(name: str, v) -> int:
    """An integer config value; integral floats and integer strings pass, booleans do not."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _as_float(name: str, v) -> float:
    """A finite real config value; numeric strings pass, booleans do not."""
    if not isinstance(v, bool):
        try:
            f = float(v)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(f):
                return f
    raise ValueError(f"{name} must be a finite number, got {v!r}")


def _coerce(name: str, v):
    """A value for config field ``name``, converted to the field's type."""
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return _as_int(name, v)
    if kind == "float":
        return _as_float(name, v)
    if kind == "float | None":
        return None if v is None else _as_float(name, v)
    if kind == "str" and not isinstance(v, str):
        raise ValueError(f"{name} must be a string, got {v!r}")
    return v


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a config from a plain dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    unknown = sorted(str(k) for k in raw if k not in _FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return ScenarioConfig(**{name: _coerce(name, v) for name, v in raw.items()})


def config_to_dict(config: ScenarioConfig) -> dict:
    return dataclasses.asdict(config)


def load_config(path) -> ScenarioConfig:
    """Load a YAML config file; unknown keys or bad values raise ValueError."""
    text = Path(path).read_text()
    raw = yaml.safe_load(text)
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def save_config(config: ScenarioConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=True))
