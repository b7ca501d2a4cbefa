"""Path-loss model, unit conversions, seeded substreams, fading statistics."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest

from swarmsec import channel
from swarmsec.channel import (ENVIRONMENT_PRESETS, EnvironmentParams,
                              dbm_to_watts, environment_preset,
                              fill_small_scale, path_loss_db, power_loss_linear,
                              sample_small_scale, substream)


def test_preset_table():
    assert set(ENVIRONMENT_PRESETS) == {"suburban", "urban", "dense-urban",
                                        "highrise-urban"}
    assert environment_preset("suburban").eta_los_db == 0.1
    assert environment_preset("suburban").eta_nlos_db == 21.0
    assert environment_preset("urban").eta_los_db == 1.0
    assert environment_preset("urban").eta_nlos_db == 20.0
    assert environment_preset("dense-urban").eta_los_db == 1.6
    assert environment_preset("dense-urban").eta_nlos_db == 23.0
    assert environment_preset("highrise-urban").eta_los_db == 2.3
    assert environment_preset("highrise-urban").eta_nlos_db == 34.0
    for env in ENVIRONMENT_PRESETS.values():
        assert env.a == 5.0188 and env.b == 0.3511
        assert env.carrier_freq_hz == 2.4e9
        assert env.eta_nlos_db >= env.eta_los_db


def test_unknown_preset_raises():
    with pytest.raises(ValueError):
        environment_preset("rural")


def test_dbm_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(-107.0) == pytest.approx(10.0 ** (-13.7), rel=1e-15)


def test_path_loss_overhead_suburban_frozen_value():
    # d = 100 m straight overhead at 2.4 GHz, suburban excess losses:
    # elevation 90 deg, so the sigmoid blend plus free space gives 80.146 dB
    env = environment_preset("suburban")
    val = path_loss_db(env, (0.0, 0.0, 100.0), (0.0, 0.0))
    assert val == pytest.approx(80.14599702029236, rel=1e-13)


def test_path_loss_matches_inline_formula():
    # independent recomputation of the sigmoid-blend model from the slant
    # range d and the elevation angle rho written out for each link
    env = environment_preset("urban")
    origin = (0.0, 0.0)
    d_generic = math.sqrt(50.0 ** 2 + 40.0 ** 2 + 130.0 ** 2)
    links = [  # (uav, ground, d, rho in degrees)
        ((60.0, -25.0, 130.0), (10.0, 15.0), d_generic,
         math.degrees(math.asin(130.0 / d_generic))),
        # 30-40 horizontal legs and 120 altitude: sqrt(900+1600+14400) = 130
        ((30.0, 40.0, 120.0), origin, 130.0, math.degrees(math.asin(12.0 / 13.0))),
        # the 5-12-13 triangle scaled by 10
        ((0.0, 50.0, 120.0), origin, 130.0, math.degrees(math.asin(12.0 / 13.0))),
        # straight overhead: elevation 90 degrees
        ((7.0, -3.0, 150.0), (7.0, -3.0), 150.0, 90.0),
    ]
    for uav, ground, d, rho in links:
        expected = ((env.eta_los_db - env.eta_nlos_db)
                    / (1.0 + env.a * math.exp(-env.b * (rho - env.a)))
                    + 20.0 * math.log10(d)
                    + 20.0 * math.log10(4.0 * math.pi * 2.4e9 / 3.0e8)
                    + env.eta_nlos_db)
        assert path_loss_db(env, uav, ground) == pytest.approx(expected, rel=1e-14)


def test_path_loss_rejects_bad_links():
    env = environment_preset("urban")
    grounded = ((0.0, 0.0, 0.0), (1.0, 0.0))
    underground = ((0.0, 0.0, -5.0), (1.0, 0.0))
    off_ground = ((0.0, 0.0, 120.0), (1.0, 0.0, 5.0))  # a ground point has no z
    for uav, ground in (grounded, underground, off_ground):
        with pytest.raises(ValueError):
            path_loss_db(env, uav, ground)


def test_path_loss_increases_with_distance_at_fixed_elevation():
    # scaling all coordinates keeps the elevation angle, so only d grows
    env = environment_preset("suburban")
    ground = (0.0, 0.0)
    base = path_loss_db(env, (30.0, 40.0, 120.0), ground)
    scaled = path_loss_db(env, (60.0, 80.0, 240.0), ground)
    assert scaled == pytest.approx(base + 20.0 * math.log10(2.0), rel=1e-12)


def test_higher_elevation_reduces_excess_loss():
    # same slant range, steeper angle: the LoS blend must not increase the loss
    env = environment_preset("highrise-urban")
    ground = (0.0, 0.0)
    low = path_loss_db(env, (120.0, 0.0, 50.0), ground)
    d = math.hypot(120.0, 50.0)
    high = path_loss_db(env, (30.0, 0.0, math.sqrt(d * d - 900.0)), ground)
    assert high < low
    # and over random pairs of altitudes on one slant range
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = rng.uniform(100.0, 600.0)
        z_low = rng.uniform(20.0, 0.9 * d)
        z_high = rng.uniform(z_low + 1.0, d)
        low = path_loss_db(env, (math.sqrt(d * d - z_low ** 2), 0.0, z_low), ground)
        high = path_loss_db(env, (0.0, math.sqrt(d * d - z_high ** 2), z_high),
                            ground)
        assert high < low


def test_power_loss_linear_matches_db():
    env = environment_preset("urban")
    uav, ground = (10.0, 0.0, 110.0), (0.0, 0.0)
    db = path_loss_db(env, uav, ground)
    assert power_loss_linear(env, uav, ground) == pytest.approx(10.0 ** (db / 10.0),
                                                                rel=1e-14)


def _two_step_power_loss(env, uav, ground):
    """The loss as two steps, dB first, with every environment constant
    recomputed per link: the form the stored per-link constants replaced. The
    squares are products, as in the kernel."""
    x, y, z = uav
    gx, gy = ground
    d = math.sqrt(z * z + (x - gx) * (x - gx) + (y - gy) * (y - gy))
    rho = math.degrees(math.asin(z / d))
    excess_span = env.eta_los_db - env.eta_nlos_db
    blended = excess_span / (1.0 + env.a * math.exp(-env.b * (rho - env.a)))
    free_space = 20.0 * math.log10(d) + 20.0 * math.log10(
        4.0 * math.pi * env.carrier_freq_hz / 3.0e8)
    loss_db = blended + free_space + env.eta_nlos_db
    return 10.0 ** (loss_db / 10.0)


# Links on which ``t ** 2`` (libm's pow) and ``t * t`` give different losses in
# the suburban preset: the first five of 277 349 ring-like links drawn by
# numpy's default_rng(2026), with the user uniform on [-500, 500]^2 m, the UAV
# uniform within 50 m of it horizontally at 100-200 m, and the ground point on
# the 100 m ring around the user.
_POW_SQUARE_LINKS = [
    ((458.55337566982513, -205.64696473574253, 112.31906830072921),
     (348.0436120945088, -166.9164837449035)),
    ((118.71974468190477, 99.23924096165513, 105.76249702354022),
     (117.19484109289448, -2.928234738884413)),
    ((-44.14755539443195, 7.387818664803903, 135.22836582295355),
     (-133.9576770000868, 44.39297024737599)),
    ((-351.11858497959577, 482.5095626100171, 125.92927404870272),
     (-328.0623609051897, 580.534583404447)),
    ((-235.91443176682367, 349.5994776855612, 137.42598860828895),
     (-307.7140550249551, 270.5822650701427)),
]


def test_power_loss_linear_equals_the_two_step_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    envs = list(ENVIRONMENT_PRESETS.values()) + [
        EnvironmentParams(eta_los_db=0.7, eta_nlos_db=18.5, a=9.61, b=0.16,
                          carrier_freq_hz=5.8e9)]
    for env in envs:
        for _ in range(250):
            uav = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)),
                   float(rng.uniform(1.0, 400.0)))
            ground = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))
            assert power_loss_linear(env, uav, ground) == _two_step_power_loss(env, uav, ground)
        for uav, ground in _POW_SQUARE_LINKS:
            assert power_loss_linear(env, uav, ground) == _two_step_power_loss(env, uav, ground)


@pytest.mark.parametrize("uav, ground, warning", [
    pytest.param((0.0, 0.0, 1e200), (0.0, 0.0), None, id="float z squared overflows"),
    pytest.param((0.0, 0.0, 100.0), (1e200, 0.0), None, id="float ring point squared overflows"),
    pytest.param(np.array([0.0, 0.0, 1e-300]), np.array([0.0, 0.0]), None,
                 id="numpy z squared underflows above its ground point"),
    pytest.param(np.array([0.0, 0.0, 1e160]), np.array([0.0, 0.0]), RuntimeWarning,
                 id="numpy z squared overflows"),
])
def test_power_loss_linear_rejects_a_squared_range_out_of_float_range(uav, ground, warning):
    # the squares are products, which leave float range without raising
    expected = (f"path loss from transmitter {tuple(map(float, uav))} to ground point "
                f"{tuple(map(float, ground))} is out of float range")
    with pytest.warns(warning) if warning else contextlib.nullcontext():
        with pytest.raises(ValueError) as err:
            power_loss_linear(environment_preset("urban"), uav, ground)
    assert str(err.value) == expected


def test_power_loss_linear_names_a_numpy_link_in_plain_floats():
    # the squared range fits a float, the loss 10**310 does not
    uav, ground = (0.0, 0.0, 1e153), (0.0, 0.0)
    with pytest.raises(ValueError) as err:
        power_loss_linear(environment_preset("urban"), np.array(uav), np.array(ground))
    assert str(err.value) == (f"path loss from transmitter {uav} to ground point {ground} "
                              f"is out of float range")


def test_environment_params_validation():
    with pytest.raises(ValueError):
        EnvironmentParams(eta_los_db=1.0, eta_nlos_db=20.0, a=-1.0)
    with pytest.raises(ValueError):
        EnvironmentParams(eta_los_db=float("nan"), eta_nlos_db=20.0)


@pytest.mark.parametrize("fields", [dict(a=True), dict(eta_los_db="1"),
                                    dict(carrier_freq_hz=None), dict(b=[0.3])])
def test_environment_params_reject_booleans_and_non_numbers(fields):
    with pytest.raises(ValueError, match=f"^{next(iter(fields))} must be a real number") as err:
        EnvironmentParams(**{"eta_los_db": 1.0, "eta_nlos_db": 20.0, **fields})
    assert "\n" not in str(err.value)


def test_environment_params_store_floats_and_keep_derived_constants_private():
    env = EnvironmentParams(eta_los_db=1, eta_nlos_db=np.int64(20), a=np.float32(5.0))
    assert all(type(getattr(env, f)) is float
               for f in ("eta_los_db", "eta_nlos_db", "a", "b", "carrier_freq_hz"))
    assert env == EnvironmentParams(eta_los_db=1.0, eta_nlos_db=20.0, a=5.0)
    assert hash(env) == hash(EnvironmentParams(eta_los_db=1.0, eta_nlos_db=20.0, a=5.0))
    assert repr(env) == ("EnvironmentParams(eta_los_db=1.0, eta_nlos_db=20.0, a=5.0, "
                         "b=0.3511, carrier_freq_hz=2400000000.0)")
    assert set(dataclasses.asdict(env)) == {"eta_los_db", "eta_nlos_db", "a", "b",
                                            "carrier_freq_hz"}
    # a replaced field rederives the constants
    near = dataclasses.replace(env, carrier_freq_hz=1e9)
    uav, ground = (0.0, 0.0, 100.0), (0.0, 0.0)
    assert power_loss_linear(near, uav, ground) == _two_step_power_loss(near, uav, ground)
    assert power_loss_linear(near, uav, ground) < power_loss_linear(env, uav, ground)


def test_substream_reproducible_and_keyed():
    a1 = substream(7, "uav", 3, 2).standard_normal(8)
    a2 = substream(7, "uav", 3, 2).standard_normal(8)
    b = substream(7, "uav", 3, 1).standard_normal(8)
    c = substream(8, "uav", 3, 2).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_substream_rejects_bad_key_parts():
    with pytest.raises(ValueError, match="^seed key part must be an integer of at least 0"):
        substream(1, 2.5)


def test_small_scale_shapes():
    rng = substream(0, "shape")
    assert sample_small_scale(rng, 3, 5).shape == (3, 5)
    assert sample_small_scale(rng, 3, 5, samples=11).shape == (11, 3, 5)
    assert sample_small_scale(rng, 3, 5, samples=0).shape == (0, 3, 5)
    with pytest.raises(ValueError):
        sample_small_scale(rng, 0, 5)


def test_loss_scaled_draws_match_draw_then_divide():
    # each draw scaled once by sqrt(1/2)/sqrt(loss) against the unit draw
    # divided by sqrt(loss) afterwards, on the same stream: the two round
    # differently, by at most two ulps of each entry
    losses = np.array([0.3, 1.0, 1e8, 3.7e9, 2.2e10, 5e11, 7e13])
    want = sample_small_scale(substream(5, "scaled"), 4, 7, 3000) / np.sqrt(losses)
    got = sample_small_scale(substream(5, "scaled"), 4, 7, 3000, losses)
    for part in ("real", "imag"):
        g, w = getattr(got, part), getattr(want, part)
        assert np.all(np.abs(g - w) <= 4.5e-16 * np.abs(w))
    # drawn into a row block of a larger array, draws first, or draws last
    # through a transposed view, as the null-space baseline stacks its user's
    # and eavesdropper's rows: the same values, nothing else written
    h = np.zeros((3000, 6, 7), dtype=complex)
    fill_small_scale(substream(5, "scaled"), h[:, 1:5], losses)
    assert np.array_equal(h[:, 1:5], got) and np.all(h[:, [0, 5]] == 0.0)
    g = np.zeros((6, 7, 3000), dtype=complex)
    fill_small_scale(substream(5, "scaled"), g.transpose(2, 0, 1)[:, 1:5], losses)
    assert np.array_equal(g[1:5].transpose(2, 0, 1), got) and np.all(g[[0, 5]] == 0.0)
    rng = substream(5, "bad")
    for bad in (np.zeros(7), -losses, np.where(losses > 1.0, losses, np.nan),
                np.full(7, np.inf), losses[:6], losses[None]):
        with pytest.raises(ValueError, match="losses"):
            sample_small_scale(rng, 4, 7, 10, bad)


def test_fill_in_draw_blocks_follows_the_stream(monkeypatch):
    # the stream gives all real parts, then all imaginary parts, whatever the
    # block size: blocks of 7 and 64 draws (ragged last blocks) and one block
    # of all 300 draws give the same values, into a strided row block of a
    # larger array and into a 2-D array, and write nothing else
    losses = np.array([0.3, 1.0, 1e8, 3.7e9, 2.2e10])
    for shape in ((300, 4, 5), (9, 5)):
        re, im = substream(6, "blocks").standard_normal((2,) + shape)
        for block in (300, 7, 64):
            monkeypatch.setattr(channel, "DRAW_BLOCK", block)
            h = np.zeros(shape[:-2] + (shape[-2] + 2, 5), dtype=complex)
            got = fill_small_scale(substream(6, "blocks"), h[..., 1:-1, :], losses)
            scale = math.sqrt(0.5) / np.sqrt(losses)
            assert np.array_equal(got.real, re * scale) and np.array_equal(got.imag, im * scale)
            assert np.all(h[..., [0, -1], :] == 0.0)
            got = fill_small_scale(substream(6, "blocks"), np.empty(shape, dtype=complex))
            scale = math.sqrt(0.5)
            assert np.array_equal(got.real, re * scale) and np.array_equal(got.imag, im * scale)


def test_small_scale_statistics():
    # circularly symmetric unit-variance complex Gaussian entries
    h = sample_small_scale(substream(42, "stats"), 1, 1, samples=1_000_000).ravel()
    re, im = h.real, h.imag
    assert abs(re.mean()) < 3e-3 and abs(im.mean()) < 3e-3
    assert re.var() == pytest.approx(0.5, rel=5e-3)
    assert im.var() == pytest.approx(0.5, rel=5e-3)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=5e-3)
    # fourth standardized moment of each part close to the Gaussian value 3
    kurt_re = np.mean(((re - re.mean()) / re.std()) ** 4)
    assert 2.9 < kurt_re < 3.1
    # real/imag uncorrelated (circular symmetry)
    assert abs(np.mean(re * im)) < 3e-3
