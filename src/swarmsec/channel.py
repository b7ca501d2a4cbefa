"""Elevation-dependent air-to-ground path loss and small-scale fading draws.

Large-scale loss follows the sigmoid line-of-sight-probability model: the
LoS/NLoS excess losses are blended by the elevation angle, on top of free-space
attenuation. Small-scale fading is unit-variance circularly-symmetric complex
Gaussian, drawn from seeded substreams so every experiment is replayable.
This lowest layer also holds the input rules: every public entry checks each
of its inputs once, by one of the ``check_*`` helpers below, and every
rejection is a one-line ValueError that names the input.
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

# ``power_loss_linear``'s math, bound once: the eavesdropper scan calls it for
# every (ring point, UAV) link. ``math.degrees(t)`` is ``t * (180 / pi)``, bit
# for bit.
_sqrt, _asin, _exp, _log10, _INF = math.sqrt, math.asin, math.exp, math.log10, math.inf
_DEGREES_PER_RADIAN = 180.0 / math.pi


def _one_line(value) -> str:
    """``repr(value)`` with each run of whitespace made one space."""
    return " ".join(repr(value).split())


def check_real(name: str, value, positive: bool = False) -> float:
    """A finite real number as a float; booleans, strings and other types are
    rejected. With ``positive``, it must also be positive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_one_line(value)}")
    value = float(value)
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        raise ValueError(f"{name} must be {'positive and ' * positive}finite, got {value}")
    return value


def check_array(name: str, value, positive: bool = False, shape=None) -> np.ndarray:
    """A float array, finite and nonnegative, or positive with ``positive``, and
    of the given ``shape`` if one is given. Only integer and float arrays are
    converted: booleans, strings, bytes and objects are rejected."""
    try:
        value = np.asarray(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of real numbers") from None
    if value.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of real numbers")
    value = value.astype(float, copy=False)
    if shape is not None and value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    # two reductions and no temporary array; min and max propagate a NaN
    lo, hi = (value.min(), value.max()) if value.size else (1.0, 1.0)
    if not (hi < math.inf and (lo > 0.0 if positive else lo >= 0.0)):
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'} "
                         f"and finite")
    return value


def check_points(name: str, value, shape: tuple) -> np.ndarray:
    """Coordinates of any sign: a new, nonempty, finite float array of ``shape``
    ("L" in ("L", 3) is any length), from integers or floats only."""
    try:
        value = np.asarray(value)
    except ValueError:  # a ragged nesting
        value = np.asarray(value, dtype=object)
    if (value.dtype.kind not in "iuf" or value.size == 0 or value.ndim != len(shape)
            or any(n != k for n, k in zip(value.shape, shape) if isinstance(k, int))
            or not np.isfinite(value).all()):
        pattern = str(shape).replace("'", "")
        raise ValueError(f"{name} must be a finite real array of shape {pattern}, "
                         f"got {value.dtype} {value.shape}")
    return value.astype(float)


def check_count(name: str, value, minimum: int = 1) -> int:
    """An integer count of at least ``minimum``; floats and booleans are rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{name} must be an integer of at least {minimum}, "
                         f"got {_one_line(value)}")
    return int(value)


def check_seed(name: str, value) -> int:
    """A 64-bit seed word: an integer k, 0 <= k < 2**64; booleans are rejected."""
    value = check_count(name, value, minimum=0)
    if value >= 2 ** 64:
        raise ValueError(f"{name} must be below 2**64, got {value}")
    return value


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
            value = check_real(f.name, getattr(self, f.name),
                               positive=f.name in ("a", "b", "carrier_freq_hz"))
            object.__setattr__(self, f.name, value)
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


def power_loss_linear(env: EnvironmentParams, uav_xyz, ground_xy) -> float:
    """Absolute power attenuation factor between one transmitter and one ground node.

    ``uav_xyz`` is an airborne (x, y, z) point and ``ground_xy`` an (x, y) point
    on the ground, in meters. The loss in dB is a function of the slant range d
    and the elevation angle asin(z / d) in degrees; this returns 10**(dB / 10).
    An ``env`` that is not an ``EnvironmentParams``, z <= 0, and a link whose
    range or loss is out of float range each raise ValueError.
    """
    x, y, z = uav_xyz
    gx, gy = ground_xy
    if z <= 0.0:
        raise ValueError(f"uav_xyz altitude must be positive, got {z}")
    # each square a product, correctly rounded (``t ** 2`` goes through libm's
    # pow); a product overflows to inf or underflows to 0 without raising, so
    # the range is checked
    dx, dy = x - gx, y - gy
    d = _sqrt(z * z + dx * dx + dy * dy)
    try:  # env is checked here, not by isinstance: the scan calls this on every link
        excess_span, a, neg_b, eta_nlos_db, free_space_1m = env._link_constants
        if 0.0 < d < _INF:
            rho = _asin(z / d) * _DEGREES_PER_RADIAN
            blended = excess_span / (1.0 + a * _exp(neg_b * (rho - a)))
            loss_db = blended + (20.0 * _log10(d) + free_space_1m) + eta_nlos_db
            return 10.0 ** (loss_db / 10.0)
    except AttributeError:
        raise ValueError(f"env must be an EnvironmentParams, got {type(env).__name__}") from None
    except OverflowError:
        pass
    raise ValueError(f"path loss from transmitter {tuple(map(float, uav_xyz))} to ground "
                     f"point {tuple(map(float, ground_xy))} is out of float range")


def path_loss_db(env: EnvironmentParams, uav_xyz, ground_xy) -> float:
    """Air-to-ground path loss in dB, 10 * log10(power_loss_linear(...))."""
    return 10.0 * math.log10(power_loss_linear(env, uav_xyz, ground_xy))


def _entropy_word(name: str, part) -> int:
    """Map one part of a (seed, key) path to a stable 64-bit entropy word: a
    string by its hash, anything else by ``check_seed``."""
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "big")
    return check_seed(name, part)


def _seed_sequence(seed, key) -> np.random.SeedSequence:
    return np.random.SeedSequence([_entropy_word("seed", seed)]
                                  + [_entropy_word("seed key part", k) for k in key])


def substream(seed: int, *key) -> np.random.Generator:
    """Independent generator derived from a base seed and a key path.

    The same (seed, key) always yields the same stream; distinct keys give
    statistically independent streams. Keys mix ints and short strings, e.g.
    ``substream(7, "uav", slot, member)``; the seed and every integer part
    must pass ``check_seed``, so no two integers alias one stream.
    """
    return np.random.default_rng(_seed_sequence(seed, key))


def derive_seed(seed: int, *key) -> int:
    """Collapse (seed, key) to a plain integer seed for child scenarios."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def sample_small_scale(rng: np.random.Generator, n_antennas: int, n_tx: int,
                       samples: int | None = None, losses=None) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian fading matrices.

    Returns shape (n_antennas, n_tx), or (samples, n_antennas, n_tx) when a
    batch size is given. Real and imaginary parts each carry variance 1/2.
    With (n_tx,) ``losses``, each transmitter's column is scaled by
    1/sqrt(loss) as it is drawn: the fading through that path loss (see
    ``fill_small_scale``).
    """
    n_antennas, n_tx = check_count("n_antennas", n_antennas), check_count("n_tx", n_tx)
    shape = ((n_antennas, n_tx) if samples is None
             else (check_count("samples", samples, minimum=0), n_antennas, n_tx))
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
        losses = check_array("losses", losses, positive=True, shape=h.shape[-1:])
        scale = scale / np.sqrt(losses)
    normals = np.empty((min(len(h), DRAW_BLOCK),) + h.shape[1:])
    for part in (h.real, h.imag):
        for block in draw_blocks(len(h)):
            out = part[block]
            np.multiply(rng.standard_normal(out=normals[:len(out)]), scale, out=out)
    return h
