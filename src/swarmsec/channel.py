"""Elevation-dependent air-to-ground path loss and small-scale fading draws.

Large-scale loss follows the sigmoid line-of-sight-probability model: the
LoS/NLoS excess losses are blended by the elevation angle, on top of free-space
attenuation. Small-scale fading is unit-variance circularly-symmetric complex
Gaussian, drawn from seeded substreams so every experiment is replayable.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

LIGHT_SPEED_M_S = 3.0e8

#: fading draws per block of every per-draw pass of the Monte Carlo engine, so
#: a pass's working set stays in cache; read at call time
DRAW_BLOCK = 2048


def check_real(name: str, value) -> float:
    """A real number as a float; booleans, strings and other types are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class EnvironmentParams:
    """Propagation constants of one deployment environment.

    Each field is stored as a float. The per-link constants of the loss formula
    are derived once here and kept in a plain attribute, not a field, so they
    stay out of the repr, equality, hashing and ``dataclasses.asdict``.
    """

    eta_los_db: float
    eta_nlos_db: float
    a: float = 5.0188
    b: float = 0.3511
    carrier_freq_hz: float = 2.4e9

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_real(f.name, getattr(self, f.name)))
        for name in ("a", "b", "carrier_freq_hz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("eta_los_db", "eta_nlos_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "_link_constants", (
            self.eta_los_db - self.eta_nlos_db, self.a, -self.b, self.eta_nlos_db,
            20.0 * math.log10(4.0 * math.pi * self.carrier_freq_hz / LIGHT_SPEED_M_S)))


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


def power_loss_linear(env: EnvironmentParams, uav, ground) -> float:
    """Absolute power attenuation factor between one transmitter and one ground node.

    ``uav`` is an airborne (x, y, z) point and ``ground`` an (x, y) point on
    the ground, in meters. The loss in dB is a function of the slant range d
    and the elevation angle asin(z / d) in degrees; this returns 10**(dB / 10).
    """
    x, y, z = uav
    gx, gy = ground
    if z <= 0.0:
        raise ValueError(f"transmitter altitude must be positive, got {z}")
    d = math.sqrt(z ** 2 + (x - gx) ** 2 + (y - gy) ** 2)
    rho = math.degrees(math.asin(z / d))
    excess_span, a, neg_b, eta_nlos_db, free_space_1m = env._link_constants
    blended = excess_span / (1.0 + a * math.exp(neg_b * (rho - a)))
    loss_db = blended + (20.0 * math.log10(d) + free_space_1m) + eta_nlos_db
    return 10.0 ** (loss_db / 10.0)


def path_loss_db(env: EnvironmentParams, uav, ground) -> float:
    """Air-to-ground path loss in dB, 10 * log10(power_loss_linear(...))."""
    return 10.0 * math.log10(power_loss_linear(env, uav, ground))


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
                       samples: int | None = None, losses=None) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian fading matrices.

    Returns shape (n_antennas, n_tx), or (samples, n_antennas, n_tx) when a
    batch size is given. Real and imaginary parts each carry variance 1/2.
    With (n_tx,) ``losses``, each transmitter's column is scaled by
    1/sqrt(loss) as it is drawn: the fading through that path loss (see
    ``fill_small_scale``).
    """
    if n_antennas < 1 or n_tx < 1:
        raise ValueError("matrix dimensions must be positive")
    shape = (n_antennas, n_tx) if samples is None else (int(samples), n_antennas, n_tx)
    return fill_small_scale(rng, np.empty(shape, dtype=complex), losses)


def draw_blocks(samples: int) -> list[slice]:
    """Runs of consecutive draws covering ``samples``, ``DRAW_BLOCK`` at most each."""
    block = DRAW_BLOCK
    return [slice(i, i + block) for i in range(0, samples, block)]


def fill_small_scale(rng: np.random.Generator, h: np.ndarray, losses=None) -> np.ndarray:
    """Draw ``sample_small_scale``'s fading into the complex array h (..., n_tx)
    in place, all real parts, then all imaginary parts; returns h.

    Each draw is a unit normal times sqrt(1/2), or with (n_tx,) ``losses``
    times sqrt(1/2) / sqrt(loss) of its transmitter, written straight into h.
    The normals go through one buffer of at most ``DRAW_BLOCK`` entries of h's
    first axis (the draws of a batch), block after block: a generator gives
    the same numbers in consecutive pieces as in one call. Losses must be
    positive and finite.
    """
    scale = math.sqrt(0.5)
    if losses is not None:
        losses = np.asarray(losses, dtype=float)
        if losses.shape != h.shape[-1:]:
            raise ValueError(f"losses must have shape {h.shape[-1:]}, got {losses.shape}")
        if not (np.all(np.isfinite(losses)) and np.all(losses > 0.0)):
            raise ValueError("losses must be positive and finite")
        scale = scale / np.sqrt(losses)
    normals = np.empty((min(len(h), DRAW_BLOCK),) + h.shape[1:])
    for part in (h.real, h.imag):
        for block in draw_blocks(len(h)):
            out = part[block]
            np.multiply(rng.standard_normal(out=normals[:len(out)]), scale, out=out)
    return h
