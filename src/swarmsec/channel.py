"""Elevation-dependent air-to-ground path loss and small-scale fading draws.

Large-scale loss follows the sigmoid line-of-sight-probability model: the
LoS/NLoS excess losses are blended by the elevation angle, on top of free-space
attenuation. Small-scale fading is unit-variance circularly-symmetric complex
Gaussian, drawn from seeded substreams so every experiment is replayable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

LIGHT_SPEED_M_S = 3.0e8


@dataclass(frozen=True)
class EnvironmentParams:
    """Propagation constants of one deployment environment."""

    eta_los_db: float
    eta_nlos_db: float
    a: float = 5.0188
    b: float = 0.3511
    carrier_freq_hz: float = 2.4e9

    def __post_init__(self):
        for name in ("a", "b", "carrier_freq_hz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("eta_los_db", "eta_nlos_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


ENVIRONMENT_PRESETS = {
    "suburban": EnvironmentParams(eta_los_db=0.1, eta_nlos_db=21.0),
    "urban": EnvironmentParams(eta_los_db=1.0, eta_nlos_db=20.0),
    "dense-urban": EnvironmentParams(eta_los_db=1.6, eta_nlos_db=23.0),
    "highrise-urban": EnvironmentParams(eta_los_db=2.3, eta_nlos_db=34.0),
}


def environment_preset(name: str) -> EnvironmentParams:
    """Look up a named preset; raises ValueError on unknown names."""
    try:
        return ENVIRONMENT_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; choose one of {sorted(ENVIRONMENT_PRESETS)}"
        ) from None


def dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"power {dbm} dBm is out of range") from None


def path_loss_db(env: EnvironmentParams, uav, ground) -> float:
    """Air-to-ground path loss in dB between one transmitter and one ground node.

    ``uav`` is an airborne (x, y, z) point and ``ground`` an (x, y) point on
    the ground, in meters. The loss is a function of the slant range d and the
    elevation angle asin(z / d) in degrees.
    """
    x, y, z = uav
    gx, gy = ground
    if z <= 0.0:
        raise ValueError(f"transmitter altitude must be positive, got {z}")
    d = math.sqrt(z ** 2 + (x - gx) ** 2 + (y - gy) ** 2)
    rho = math.degrees(math.asin(z / d))
    excess_span = env.eta_los_db - env.eta_nlos_db
    blended = excess_span / (1.0 + env.a * math.exp(-env.b * (rho - env.a)))
    free_space = 20.0 * math.log10(d) + 20.0 * math.log10(
        4.0 * math.pi * env.carrier_freq_hz / LIGHT_SPEED_M_S)
    return blended + free_space + env.eta_nlos_db


def power_loss_linear(env: EnvironmentParams, uav, ground) -> float:
    """Absolute power attenuation factor, 10**(path_loss_db / 10)."""
    return 10.0 ** (path_loss_db(env, uav, ground) / 10.0)


def _entropy_word(part) -> int:
    """Map one key part (int or str) to a stable 64-bit entropy word."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "big")
    raise TypeError(f"substream key parts must be int or str, got {type(part).__name__}")


def substream(seed: int, *key) -> np.random.Generator:
    """Independent generator derived from a base seed and a key path.

    The same (seed, key) always yields the same stream; distinct keys give
    statistically independent streams. Keys mix ints and short strings, e.g.
    ``substream(7, "uav", slot, member)``.
    """
    words = [_entropy_word(seed)] + [_entropy_word(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(words))


def derive_seed(seed: int, *key) -> int:
    """Collapse (seed, key) to a plain integer seed for child scenarios."""
    words = [_entropy_word(seed)] + [_entropy_word(k) for k in key]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def sample_small_scale(rng: np.random.Generator, n_antennas: int, n_tx: int,
                       samples: int | None = None) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian fading matrices.

    Returns shape (n_antennas, n_tx), or (samples, n_antennas, n_tx) when a
    batch size is given. Real and imaginary parts each carry variance 1/2.
    """
    if n_antennas < 1 or n_tx < 1:
        raise ValueError("matrix dimensions must be positive")
    shape = (n_antennas, n_tx) if samples is None else (int(samples), n_antennas, n_tx)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return math.sqrt(0.5) * (re + 1j * im)
