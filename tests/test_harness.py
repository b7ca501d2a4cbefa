"""Config round-trips, topology generation, baseline scheme, experiment drivers."""

import csv
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import swarmsec
from swarmsec.channel import dbm_to_watts, fill_small_scale, sample_small_scale, substream
from swarmsec.errors import InfeasibleStartError
from swarmsec.harness.baseline import _null_space_rates, baseline_null_space
from swarmsec.harness.cli import main
from swarmsec.harness.config import (SWEEPABLE, ScenarioConfig, config_from_dict,
                                     config_to_dict, load_config, save_config)
from swarmsec.harness.experiments import _config_sha256, initial_point, run_experiment
from swarmsec.harness.topology import generate_topology
from swarmsec.optimizer import audit_feasibility, run_bcd
from swarmsec.rates import LOG2E, secrecy_throughput_closed_form

from conftest import logdet2_quadratic, null_space_rates_qr


def tiny_config(**overrides):
    base = dict(n_uavs=3, n_slots=2, bob_antennas=2, eve_antennas=2,
                mc_samples=1500, baseline_samples=400, bcd_max_iter=6,
                init_p_u_dbm=27.0, init_p_a_dbm=10.0, n_topologies=2,
                replicates=2, validate_p_a_dbm=[10.0],
                validate_p_s_dbm=[0.0, 10.0], sweep_values=[100.0, 300.0],
                seed=3)
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# config

def test_config_defaults_are_valid():
    cfg = ScenarioConfig()
    assert cfg.environment == "suburban"
    assert cfg.budgets().p_max_w == pytest.approx(1.0)
    assert cfg.budgets().e_max_j == 300.0
    assert cfg.noise_w() == pytest.approx(10.0 ** (-13.7))
    assert cfg.environment_params().eta_nlos_db == 21.0


def test_config_round_trip(tmp_path):
    cfg = tiny_config(environment="urban", p_max_dbm=27.5, sweep_variable="p_max_dbm")
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    # and a second round trip is a fixed point
    save_config(loaded, tmp_path / "cfg2.yaml")
    assert (tmp_path / "cfg.yaml").read_text() == (tmp_path / "cfg2.yaml").read_text()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"n_uavs": 3, "warp_factor": 9})
    # the speed of light is a constant of the channel model, not a key
    with pytest.raises(ValueError, match="unknown config keys: light_speed_m_s"):
        config_from_dict({"light_speed_m_s": 3.0e8})


#: each entry, alone on top of the defaults, must fail at load with a ValueError
BAD_CONFIG_VALUES = [
    {"n_uavs": True},
    {"eve_antennas": 1.7},
    {"cell_size_m": -5},
    {"hover_radius_m": -50},
    {"eve_ring_radius_m": 0},
    {"sweep_values": []},
    {"validate_p_a_dbm": "abc"},
    {"validate_p_s_dbm": [0.0, "x"]},
    {"p_max_dbm": "abc"},
    {"sweep_variable": "n_uavs", "sweep_values": [6.7, True]},
    {"sweep_values": [50, "abc"]},
    {"sweep_variable": "environment", "sweep_values": ["urban", "atlantis"]},
    {"e_max_j": -5},
    {"seed": 2 ** 64},
    {"tau_max_s": 200},
    {"t_period_s": 50.0},
    {"carrier_freq_hz": -1},
    {"p_max_dbm": float("nan")},
    {"p_max_dbm": 1e308},  # 10**(p/10) overflows a float
    {"p_max_dbm": 10 ** 400},  # no float holds it
    {"altitude_max_m": float("inf")},
    {"altitude_min_m": float("nan")},
    {"cell_size_m": float("inf")},
    {"hover_radius_m": float("inf")},
    {"noise_dbm": float("nan")},
    {"eve_grid_points": 4},
    {"bcd_epsilon": float("nan")},
    {"bcd_epsilon": -1},
    # every power in dBm converts to watts at load, not mid-run
    {"noise_dbm": 4000},
    {"noise_dbm": -4000},  # underflows to 0 W
    {"init_p_u_dbm": 4000},
    {"init_p_a_dbm": 4000},
    {"validate_p_a_dbm": [10.0, 4000]},
    {"validate_p_s_dbm": [4000]},
    {"baseline_samples": 1},  # fails only after replicate 0 is optimized
    {"mc_samples": 1},  # validate certified tol_ok with a standard error of 0
]


def test_config_rejects_bad_values():
    # YAML, keyword construction and replace (CLI overrides, sweep steps)
    # all get the same checks
    for raw in BAD_CONFIG_VALUES:
        with pytest.raises(ValueError):
            config_from_dict(raw)
        with pytest.raises(ValueError):
            ScenarioConfig(**raw)
        with pytest.raises(ValueError):
            dataclasses.replace(ScenarioConfig(), **raw)
    with pytest.raises(ValueError):
        ScenarioConfig(environment="atlantis")
    with pytest.raises(ValueError):
        ScenarioConfig(environment="custom")  # needs explicit excess losses
    with pytest.raises(ValueError):
        ScenarioConfig(sweep_variable="noise_dbm")
    with pytest.raises(ValueError):
        ScenarioConfig(n_uavs=0)
    with pytest.raises(ValueError):
        ScenarioConfig(altitude_min_m=200.0, altitude_max_m=100.0)


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=4), st.sampled_from(["5", "1e3", "urban", "custom"]),
                    st.sampled_from(SWEEPABLE))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))
_KEYS = st.one_of(st.sampled_from([f.name for f in dataclasses.fields(ScenarioConfig)]),
                  st.text(max_size=4), st.integers())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(_KEYS, _VALUES, max_size=4))
def test_config_from_dict_loads_or_raises_value_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ValueError:
        return
    cfg.budgets()
    cfg.environment_params()


def test_config_cannot_be_changed_after_construction():
    # attribute assignment would skip every check of __post_init__
    cfg = ScenarioConfig(n_uavs=2, n_slots=1)
    for name, value in (("eve_antennas", 1.7), ("seed", -5), ("bcd_epsilon", math.nan)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == ScenarioConfig(n_uavs=2, n_slots=1)


def test_config_list_fields_are_tuples():
    # a list field could be appended to behind the checks, and would make the
    # generated __hash__ raise TypeError
    cfg = ScenarioConfig(n_uavs=2, n_slots=2, sweep_values=[100.0],
                         validate_p_a_dbm=[5.0, 10.0])
    assert cfg.sweep_values == (100.0,) and cfg.validate_p_a_dbm == (5.0, 10.0)
    for name in ("sweep_values", "validate_p_a_dbm", "validate_p_s_dbm"):
        with pytest.raises(AttributeError):
            getattr(cfg, name).append(-1.0)
    assert hash(ScenarioConfig()) == hash(ScenarioConfig())
    assert hash(cfg) == hash(dataclasses.replace(cfg))
    # the YAML form and the manifest hash still see plain lists
    data = config_to_dict(ScenarioConfig())
    assert data["sweep_values"] == [50.0, 100.0, 150.0, 200.0, 250.0, 300.0]
    assert all(type(data[name]) is list for name in
               ("sweep_values", "validate_p_a_dbm", "validate_p_s_dbm"))
    default = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    canonical = yaml.safe_dump(config_to_dict(default), sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "103c1a61c04292570ba4ced02384bfdae5d833eb0a07f2bf7e74dc8650b9f284")


def test_manifest_hash_dumpers_give_identical_text():
    # the manifest hashes libyaml's emitter output where PyYAML has it; it must
    # be the pure-Python SafeDumper's text, which the frozen hashes were made of
    configs = [ScenarioConfig(),
               ScenarioConfig(environment="custom", eta_los_db=0.5, eta_nlos_db=25.0),
               ScenarioConfig(bcd_epsilon=1e-300, e_max_j=1.5e300,
                              validate_p_s_dbm=[-0.0, 1e-300])]
    assert config_to_dict(configs[0])["eta_los_db"] is None
    for cfg in configs:
        data = config_to_dict(cfg)
        canonical = yaml.safe_dump(data, sort_keys=True)
        if hasattr(yaml, "CSafeDumper"):
            assert yaml.dump(data, Dumper=yaml.CSafeDumper, sort_keys=True) == canonical
        assert _config_sha256(cfg) == hashlib.sha256(canonical.encode()).hexdigest()


def test_config_custom_environment():
    cfg = ScenarioConfig(environment="custom", eta_los_db=0.5, eta_nlos_db=25.0)
    env = cfg.environment_params()
    assert env.eta_los_db == 0.5 and env.eta_nlos_db == 25.0


def test_config_coerces_yaml_scalars():
    cfg = config_from_dict({"n_uavs": "5", "p_max_dbm": "25", "eta_los_db": None})
    assert cfg.n_uavs == 5 and isinstance(cfg.n_uavs, int)
    assert cfg.p_max_dbm == 25.0 and isinstance(cfg.p_max_dbm, float)
    assert cfg.eta_los_db is None


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.yaml")


def test_default_yaml_ships_defaults():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
    assert cfg == ScenarioConfig()


# ---------------------------------------------------------------------------
# topology

def test_topology_deterministic():
    cfg = tiny_config()
    s1 = generate_topology(cfg, seed=9)
    s2 = generate_topology(cfg, seed=9)
    assert np.array_equal(s1.loss_bob, s2.loss_bob)
    assert np.array_equal(s1.loss_eve, s2.loss_eve)
    for name in ("uav_xyz", "bob_xy", "eve_xy"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))
    s3 = generate_topology(cfg, seed=10)
    assert not np.array_equal(s1.loss_bob, s3.loss_bob)


def test_topology_respects_bounds():
    cfg = tiny_config(n_uavs=4, n_slots=5)
    scenario = generate_topology(cfg, seed=21)
    assert scenario.uav_xyz.shape == (5, 4, 3)
    for uavs, bob, eve in zip(scenario.uav_xyz, scenario.bob_xy, scenario.eve_xy):
        assert np.all((0.0 <= bob) & (bob <= 1000.0))
        for x, y, z in uavs:
            assert math.hypot(x - bob[0], y - bob[1]) <= 50.0 + 1e-9
            assert 100.0 <= z <= 200.0
        assert math.hypot(*(eve - bob)) == pytest.approx(100.0, abs=1e-9)


def test_topology_growing_swarm_extends_existing_members():
    small = generate_topology(tiny_config(n_uavs=2), seed=5)
    large = generate_topology(tiny_config(n_uavs=4), seed=5)
    assert np.array_equal(large.uav_xyz[:, :2], small.uav_xyz)
    assert np.array_equal(large.bob_xy, small.bob_xy)


# ---------------------------------------------------------------------------
# baseline

def test_baseline_requires_null_space():
    cfg = tiny_config(n_uavs=2, bob_antennas=2)
    scenario = generate_topology(cfg, seed=1)
    with pytest.raises(ValueError):
        baseline_null_space(scenario, np.ones(2), 100, substream(1, "b"))


def test_baseline_rejects_bad_durations():
    scenario = generate_topology(tiny_config(n_uavs=4), seed=1)
    for tau in ([-1.0, 1.0], [float("nan"), 1.0], [float("inf"), 0.0], [1.0]):
        with pytest.raises(ValueError):
            baseline_null_space(scenario, tau, 100, substream(1, "b"))


def test_baseline_rejects_bad_sample_counts():
    scenario = generate_topology(tiny_config(n_uavs=4), seed=1)
    for samples in (1, 2.5, True):
        with pytest.raises(ValueError):
            baseline_null_space(scenario, np.ones(2), samples, substream(1, "b"))


def test_baseline_zero_signal_fraction_is_zero():
    # with no signal power neither receiver has a rate: the user's log-det is
    # taken at level 0 and the eavesdropper's two Grams are equal
    g = _stacked_draws(4, 2, 2, 200, 2)
    r_bob, r_eve = _null_space_rates(g, 2, 0.0, 2.0, 1e-13)
    assert np.all(r_bob == 0.0) and np.all(r_eve == 0.0)


def test_baseline_deterministic_given_stream():
    scenario = generate_topology(tiny_config(n_uavs=4), seed=3)
    a = baseline_null_space(scenario, np.ones(2), 300, substream(3, "b"))
    b = baseline_null_space(scenario, np.ones(2), 300, substream(3, "b"))
    assert a.mean == b.mean and a.std_error == b.std_error


def _svd_covariance_rates(h_bob, h_eve, c_sig, c_an, noise):
    """Per-draw (r_bob, r_eve) of the null-space scheme written with explicit
    signal and noise covariances, for channels (M, N_B, L) and (M, N_E, L)."""
    nb = h_bob.shape[1]
    _, sv, vh = np.linalg.svd(h_bob, full_matrices=True)
    r_bob = np.sum(np.log1p(c_sig * sv ** 2 / noise), axis=1) * LOG2E
    row_mix = np.einsum("mel,mrl->mer", h_eve, vh[:, :nb, :].conj())
    null_mix = np.einsum("mel,mrl->mer", h_eve, vh[:, nb:, :].conj())
    sig_cov = c_sig * np.einsum("mer,mfr->mef", row_mix, row_mix.conj())
    an_cov = c_an * np.einsum("mer,mfr->mef", null_mix, null_mix.conj())
    an_cov += noise * np.eye(h_eve.shape[1])
    r_eve = (np.linalg.slogdet(sig_cov + an_cov)[1] - np.linalg.slogdet(an_cov)[1]) * LOG2E
    return r_bob, r_eve


def _svd_covariance_baseline(scenario, tau, samples, rng):
    """The null-space baseline written with explicit signal and noise covariances."""
    n_uavs, nb, ne = scenario.n_uavs, scenario.bob_antennas, scenario.eve_antennas
    phi = nb / (nb + ne)
    pooled = n_uavs * scenario.budgets.p_max_w
    c_sig, c_an = phi * pooled / nb, (1.0 - phi) * pooled / (n_uavs - nb)
    diffs, variances = [], []
    for n, stream in enumerate(rng.spawn(scenario.n_slots)):
        h_bob = sample_small_scale(stream, nb, n_uavs, samples) / np.sqrt(scenario.loss_bob[n])
        h_eve = sample_small_scale(stream, ne, n_uavs, samples) / np.sqrt(scenario.loss_eve[n])
        r_bob, r_eve = _svd_covariance_rates(h_bob, h_eve, c_sig, c_an, scenario.noise_w)
        vals = r_bob - r_eve
        diffs.append(vals.mean())
        variances.append(vals.var(ddof=1) / samples)
    period = scenario.budgets.t_period_s
    return (float(np.dot(tau, np.maximum(diffs, 0.0)) / period),
            float(math.sqrt(np.dot(tau ** 2, variances)) / period))


def test_baseline_matches_svd_covariance_oracle():
    # the last two cases have fewer swarm members than receive antennas, so the
    # null space is thin: there the baseline and the SVD oracle are each off by
    # up to about 1e-9 per draw against a 50-digit reference, and a relative bound
    # of 1e-12 would test the oracle's rounding, not the baseline
    tight, thin = {"rel": 1e-12}, {"abs": 1e-9}
    for n_uavs, nb, ne, tol in ((4, 2, 2, tight), (7, 3, 3, tight), (9, 5, 3, tight),
                                (7, 5, 3, thin), (5, 2, 4, thin)):
        cfg = tiny_config(n_uavs=n_uavs, bob_antennas=nb, eve_antennas=ne)
        scenario = generate_topology(cfg, seed=n_uavs)
        tau = np.array([1.0, 2.0])
        est = baseline_null_space(scenario, tau, 300, substream(n_uavs, "b"))
        mean, stderr = _svd_covariance_baseline(scenario, tau, 300, substream(n_uavs, "b"))
        assert mean > 0.0
        assert est.mean == pytest.approx(mean, **tol)
        assert est.std_error == pytest.approx(stderr, **tol)

    # another split, phi = 0.4 of 7 UAVs' pooled 1 W, on the null-space rates
    nb, n_uavs = 3, 7
    c_sig, c_an = 0.4 * n_uavs / nb, 0.6 * n_uavs / (n_uavs - nb)
    g = _stacked_draws(n_uavs, nb, 3, 300, 7)
    h = g.transpose(2, 0, 1).copy()
    want = _svd_covariance_rates(h[:, :nb], h[:, nb:], c_sig, c_an, 1e-13)
    for rate, oracle in zip(_null_space_rates(g, nb, c_sig, c_an, 1e-13), want):
        assert rate == pytest.approx(oracle, rel=1e-12)


def test_baseline_full_signal_matches_independent_estimator():
    # with the whole budget on the signal there is no artificial noise; the
    # secrecy rate has a direct log-det form this re-implements with plain loops
    nb, ne, n_uavs, samples = 2, 2, 4, 200
    scenario = generate_topology(tiny_config(n_uavs=n_uavs, bob_antennas=nb,
                                             eve_antennas=ne), seed=7)
    noise = scenario.noise_w
    c_sig = 1.0 * n_uavs * scenario.budgets.p_max_w / nb
    for n, stream in enumerate(substream(11, "chk").spawn(scenario.n_slots)):
        h_bob = sample_small_scale(stream, nb, n_uavs, samples) / np.sqrt(scenario.loss_bob[n])
        h_eve = sample_small_scale(stream, ne, n_uavs, samples) / np.sqrt(scenario.loss_eve[n])
        r_bob, r_eve = _null_space_rates(np.concatenate([h_bob, h_eve], axis=1)
                                         .transpose(1, 2, 0).copy(), nb, c_sig, 0.0, noise)
        vals = np.empty(samples)
        for m in range(samples):
            _, sv, vh = np.linalg.svd(h_bob[m], full_matrices=True)
            want_bob = float(np.sum(np.log1p(c_sig * sv ** 2 / noise))) * LOG2E
            g = h_eve[m] @ vh[:nb].conj().T
            gram = np.eye(ne) + c_sig * (g @ g.conj().T) / noise
            vals[m] = want_bob - float(np.linalg.slogdet(gram)[1]) * LOG2E
        assert (r_bob - r_eve).mean() == pytest.approx(vals.mean(), rel=1e-9)


def _stacked_draws(n_uavs, nb, ne, samples, seed):
    """Draws-last stacked channels [H_b; H_e], (N_B + N_E, L, M), drawn as the
    baseline draws them, at losses of a few 1e10 (about 30 dB at 1 W)."""
    g = np.empty((nb + ne, n_uavs, samples), dtype=complex)
    h = g.transpose(2, 0, 1)
    stream = substream(seed, "split")
    fill_small_scale(stream, h[:, :nb], np.linspace(2.0, 6.0, n_uavs) * 1e10)
    fill_small_scale(stream, h[:, nb:], np.linspace(1.0, 3.0, n_uavs) * 1e10)
    return g


def _split_matches_qr(g, nb):
    """The reflections' per-draw (r_bob, r_eve) on g against the QR oracle on
    the same draws, at the default power split and 1 W; returns them."""
    n_uavs, ne = g.shape[1], g.shape[0] - nb
    c_sig, c_an = n_uavs / (nb + ne), ne * n_uavs / ((nb + ne) * (n_uavs - nb))
    want = null_space_rates_qr(g.transpose(2, 0, 1).copy(), nb, c_sig, c_an, 1e-13)
    got = _null_space_rates(g, nb, c_sig, c_an, 1e-13)
    # where the null space is thin (L - N_B < N_E), no form meets 1e-12 per
    # draw: see test_baseline_matches_svd_covariance_oracle
    tol = {"rel": 1e-12} if n_uavs - nb >= ne else {"abs": 1e-9}
    for rate, oracle in zip(got, want):
        assert rate == pytest.approx(oracle, **tol)
    return got


@pytest.mark.parametrize("n_uavs, nb, ne", [(4, 2, 2), (7, 3, 3), (9, 5, 3), (7, 5, 3),
                                            (5, 2, 4), (6, 5, 3), (3, 1, 2), (4, 1, 3),
                                            (3, 1, 3)])
def test_null_space_split_matches_qr_oracle(n_uavs, nb, ne):
    _split_matches_qr(_stacked_draws(n_uavs, nb, ne, 500, n_uavs * 10 + nb), nb)


def test_null_space_split_handmade_rows_match_qr_oracle():
    # draw 0: a zero first user row; 1: a user row with no tail, so its
    # reflection is skipped (tau = 0); 2: lower triangular user rows, so no
    # reflection runs; 3: zero eavesdropper rows; 4: as drawn. A zero user row
    # below the first leaves one signal direction to the first reflection's
    # phase convention, which LAPACK (a real beta) does not share with the
    # baseline, so the oracle scores another split there
    nb = 2
    g = _stacked_draws(6, nb, 3, 5, 1)
    g[0, :, 0] = 0.0
    g[0, 1:, 1] = 0.0
    g[0, 1:, 2] = 0.0
    g[1, 2:, 2] = 0.0
    g[nb:, :, 3] = 0.0
    r_bob, r_eve = _split_matches_qr(g, nb)
    assert r_eve[3] == 0.0 and r_bob[3] > 0.0


# ---------------------------------------------------------------------------
# experiments

def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def _assert_deterministic(exp, config, tmp_path, primary):
    r1 = run_experiment(config, exp, tmp_path / "a")
    r2 = run_experiment(config, exp, tmp_path / "b")
    c1 = _read_csv(tmp_path / "a" / primary)
    c2 = _read_csv(tmp_path / "b" / primary)
    assert set(c1) == set(c2)
    for col in c1:
        if col != "wall_time_s":
            assert c1[col] == c2[col], f"column {col} differs between reruns"
    return r1, r2


def test_validate_experiment(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg, "validate", tmp_path)
    assert len(result.rows) == 2  # one p_a level times two signal levels
    cols = _read_csv(tmp_path / "validate.csv")
    assert cols["tol_ok"] == ["1", "1"]
    assert all(float(v) >= 0.0 for v in cols["r_mc_stderr"])


def _per_point_validate(config):
    """(r_mc, r_mc_stderr) at each ``validate`` grid point, estimated one point
    at a time: a fresh ``validate-mc`` substream per point, fading drawn as
    sqrt(1/2) * (re + 1j im), and quadratic-form ``slogdet`` log-dets."""
    scenario = generate_topology(config, config.seed)
    n_slots, n_uavs, samples = scenario.n_slots, scenario.n_uavs, config.mc_samples
    receivers = ((scenario.loss_bob, scenario.bob_antennas),
                 (scenario.loss_eve, scenario.eve_antennas))
    tau = np.ones(n_slots)
    period = scenario.budgets.t_period_s
    estimates = []
    for p_a_dbm in config.validate_p_a_dbm:
        for p_s_dbm in config.validate_p_s_dbm:
            p_a = np.full(n_uavs, dbm_to_watts(p_a_dbm))
            p_s = np.maximum(p_a + dbm_to_watts(p_s_dbm) - p_a, 0.0)
            streams = substream(config.seed, "validate-mc").spawn(2 * n_slots)
            diffs, variances = [], []
            for i in range(n_slots):
                means, errors = [], []
                for k, (losses, n_antennas) in enumerate(receivers):
                    stream, shape = streams[2 * i + k], (samples, n_antennas, n_uavs)
                    s = math.sqrt(0.5) * (stream.standard_normal(shape)
                                          + 1j * stream.standard_normal(shape))
                    h = s / np.sqrt(losses[i])
                    vals = (logdet2_quadratic(h, p_s + p_a, scenario.noise_w)
                            - logdet2_quadratic(h, p_a, scenario.noise_w))
                    means.append(vals.mean())
                    errors.append(vals.std(ddof=1) / math.sqrt(samples))
                diffs.append(means[0] - means[1])
                variances.append(errors[0] ** 2 + errors[1] ** 2)
            estimates.append((float(np.dot(tau, diffs) / period),
                              float(math.sqrt(np.dot(tau ** 2, variances)) / period)))
    return estimates


def test_validate_matches_per_point_oracle(tmp_path):
    # validate draws each slot's fading once for the whole grid and reads the
    # log-dets off tridiagonal forms of the Gram; the same draws redrawn at
    # every point and scored by slogdet must give the same cells
    for env in ("suburban", "urban", "dense-urban", "highrise-urban"):
        cfg = ScenarioConfig(environment=env, n_slots=2, mc_samples=1000, seed=5)
        result = run_experiment(cfg, "validate", tmp_path / env)
        oracle = _per_point_validate(cfg)
        assert len(result.rows) == len(oracle) == 28
        c = {name: i for i, name in enumerate(result.header)}
        for row, (mean, stderr) in zip(result.rows, oracle):
            assert row[c["r_mc"]] == pytest.approx(mean, rel=1e-12)
            assert row[c["r_mc_stderr"]] == pytest.approx(stderr, rel=1e-8)
            abs_gap = abs(row[c["r_closed"]] - mean)
            assert row[c["tol_ok"]] == (abs_gap <= 0.05 * max(mean, 0.01) + 2.0 * stderr)


def test_validate_solves_one_fixed_point_batch_per_run(tmp_path, monkeypatch):
    # the whole grid is one closed-form lane stack: one solve_fixed_point call,
    # whose time each point carries a share of; the first point also carries
    # the Monte Carlo call, and the column sums to no more than the run
    from swarmsec import rates

    calls = []
    solve = rates.solve_fixed_point

    def counted(p, *args):
        calls.append(p.shape)
        return solve(p, *args)

    monkeypatch.setattr(rates, "solve_fixed_point", counted)
    cfg = tiny_config(validate_p_a_dbm=[5.0, 15.0], validate_p_s_dbm=[0.0, 10.0, 20.0],
                      mc_samples=200)
    result = run_experiment(cfg, "validate", tmp_path)
    assert len(result.rows) == 6
    assert calls == [(6, 4, cfg.n_slots, cfg.n_uavs)]
    walls = [float(v) for v in _read_csv(tmp_path / "validate.csv")["wall_time_s"]]
    assert all(w >= 0.0 for w in walls)
    assert sum(walls) <= result.wall_time_s


def test_optimize_experiment(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg, "optimize", tmp_path)
    trace = _read_csv(tmp_path / "optimize_trace.csv")
    assert trace["iteration"][0] == "0"
    objectives = [float(v) for v in trace["objective"]]
    assert all(b >= a - 1e-8 * (1 + abs(a)) for a, b in zip(objectives, objectives[1:]))
    assert set(trace["non_monotone"]) <= {"0"}
    solution = _read_csv(tmp_path / "optimize_solution.csv")
    assert len(solution["slot"]) == cfg.n_slots * cfg.n_uavs
    p_u = np.array([float(v) for v in solution["p_u_w"]])
    p_a = np.array([float(v) for v in solution["p_a_w"]])
    assert np.all(p_a <= p_u + 1e-12) and np.all(p_u <= cfg.budgets().p_max_w + 1e-9)
    # the row for slot n and UAV l holds schedule[n, l] (here L = 3 != N = 2)
    scenario = generate_topology(cfg, cfg.seed)
    final = run_bcd(scenario, *initial_point(scenario, cfg), epsilon=cfg.bcd_epsilon,
                    max_iter=cfg.bcd_max_iter).final
    for k, (n, l) in enumerate(zip(solution["slot"], solution["uav"])):
        n, l = int(n), int(l)
        assert p_u[k] == final.schedule.p_u[n, l] and p_a[k] == final.schedule.p_a[n, l]
    assert result.files[-1].name == "optimize_manifest.json"


def test_baseline_experiment(tmp_path):
    cfg = tiny_config()
    run_experiment(cfg, "baseline", tmp_path)
    cols = _read_csv(tmp_path / "baseline.csv")
    assert cols["replicate"] == ["0", "1"]
    assert cols["seed"][0] != cols["seed"][1]  # paired topologies differ
    assert all(float(v) >= 0.0 for v in cols["baseline_mean"])


def test_sweep_experiment_nondecreasing(tmp_path):
    cfg = tiny_config(sweep_variable="e_max_j", sweep_values=[20.0, 100.0])
    run_experiment(cfg, "sweep", tmp_path)
    cols = _read_csv(tmp_path / "sweep.csv")
    values = [float(v) for v in cols["objective"]]
    assert values == sorted(values)
    assert set(cols["start"]) <= {"cold", "warm", "hold"}


def test_convergence_experiment(tmp_path):
    cfg = tiny_config()
    run_experiment(cfg, "convergence", tmp_path)
    cols = _read_csv(tmp_path / "convergence.csv")
    assert cols["topology"] == ["0", "1"]
    assert set(cols["monotone"]) == {"1"}
    assert all(float(f) >= float(i) - 1e-9
               for i, f in zip(cols["initial_objective"], cols["final_objective"]))


def test_experiment_rerun_is_byte_identical(tmp_path):
    _assert_deterministic("convergence", tiny_config(), tmp_path, "convergence.csv")
    # the optimize solution dump has no timing column: full files must match
    run_experiment(tiny_config(), "optimize", tmp_path / "o1")
    run_experiment(tiny_config(), "optimize", tmp_path / "o2")
    assert ((tmp_path / "o1" / "optimize_solution.csv").read_bytes()
            == (tmp_path / "o2" / "optimize_solution.csv").read_bytes())


def test_optimize_trace_row_0_is_the_audited_start(tmp_path):
    # row 0 shows the start's clipped objective and its audited violation, as
    # every later row does. An eavesdropper with more antennas than the user
    # makes the first start's secrecy rates negative. Without its rounding
    # steps, initial_point's 3 slots of 1.95/3 s at 1 W would overshoot the
    # 1.95 J budget and its 11 slots of 7/11 s the 7 s total time
    configs = (ScenarioConfig(bob_antennas=2, eve_antennas=4, n_slots=3, e_max_j=1.95),
               ScenarioConfig(n_slots=11, t_total_s=7.0, tau_max_s=7.0))
    objectives = []
    for i, cfg in enumerate(configs):
        run_experiment(cfg, "optimize", tmp_path / str(i))
        row = {k: float(v[0])
               for k, v in _read_csv(tmp_path / str(i) / "optimize_trace.csv").items()}
        scenario = generate_topology(cfg, cfg.seed)
        schedule, tau = initial_point(scenario, cfg)
        value, _, per_slot = secrecy_throughput_closed_form(scenario, schedule, tau)
        assert row["objective"] == value
        assert row["objective_clipped"] == float(np.dot(tau, np.maximum(per_slot, 0.0))
                                                 / cfg.t_period_s)
        assert row["objective_clipped"] >= max(row["objective"], 0.0)
        assert row["max_violation"] == 0.0
        objectives.append(value)
    assert objectives[0] < 0.0


def test_process_pool_matches_serial_run(tmp_path):
    # two workers must give the serial run's cells, wall time exempt
    for exp in ("convergence", "baseline"):
        run_experiment(tiny_config(), exp, tmp_path / f"{exp}1", jobs=1)
        run_experiment(tiny_config(), exp, tmp_path / f"{exp}2", jobs=2)
        serial = _read_csv(tmp_path / f"{exp}1" / f"{exp}.csv")
        pooled = _read_csv(tmp_path / f"{exp}2" / f"{exp}.csv")
        assert set(serial) == set(pooled)
        for col in serial:
            if col != "wall_time_s":
                assert serial[col] == pooled[col], f"{exp} column {col} differs"


def test_manifest_contents(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg, "convergence", tmp_path)
    manifest = json.loads((tmp_path / "convergence_manifest.json").read_text())
    assert manifest["experiment"] == "convergence"
    assert manifest["seed"] == cfg.seed
    canonical = yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
    assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert "convergence.csv" in manifest["files"]
    assert manifest["csv_schema_version"] == 1
    # result.files lists the CSVs (recorded in the manifest) plus the manifest
    assert [f.name for f in result.files[:-1]] == manifest["files"]
    # the versions the determinism contract holds within
    assert manifest["versions"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "pyyaml": importlib.metadata.version("PyYAML"),
        "libyaml": hasattr(yaml, "CSafeDumper")}


_VALIDATE_VERSIONS_SCRIPT = """
import json, sys
from swarmsec.harness.config import load_config
from swarmsec.harness.experiments import run_experiment

result = run_experiment(load_config(sys.argv[1]), "validate", sys.argv[2])
print(json.loads(result.files[-1].read_text())["versions"]["scipy"])
print("scipy.optimize" in sys.modules)
"""


def test_validate_manifest_reads_scipy_version_without_the_lp_solver(tmp_path):
    # a fresh interpreter: validate loads no duration LP, so the manifest
    # imports the bare scipy package for its version, never scipy.optimize
    import scipy

    path = tmp_path / "validate.yaml"
    save_config(tiny_config(n_slots=1, mc_samples=200), path)
    env = dict(os.environ, PYTHONPATH=str(Path(swarmsec.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _VALIDATE_VERSIONS_SCRIPT, str(path),
                          str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [scipy.__version__, "False"]


#: each experiment's CSV tables in the order it writes them, primary first
TABLES = {"validate": ["validate.csv"],
          "optimize": ["optimize_trace.csv", "optimize_solution.csv"],
          "baseline": ["baseline.csv"],
          "sweep": ["sweep.csv"],
          "convergence": ["convergence.csv"]}


@pytest.mark.parametrize("experiment", TABLES)
def test_run_experiment_writes_its_tables_then_the_manifest(tmp_path, experiment):
    # the primary table gives the result its header and rows
    result = run_experiment(tiny_config(), experiment, tmp_path)
    assert [f.name for f in result.files] == TABLES[experiment] + [f"{experiment}_manifest.json"]
    with open(result.files[0], newline="") as fh:
        written = list(csv.reader(fh))
    assert written[0] == result.header
    assert len(written) == 1 + len(result.rows)


def test_run_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(tiny_config(), "frobnicate", tmp_path)


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True, "2"])
def test_run_experiment_rejects_a_bad_jobs_count(tmp_path, jobs):
    with pytest.raises(ValueError, match="jobs must be an integer"):
        run_experiment(tiny_config(), "convergence", tmp_path / "out", jobs=jobs)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CLI

def _write_tiny_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    save_config(tiny_config(), path)
    return path


def test_cli_missing_config_no_partial_output(tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = main(["optimize", "--config", str(tmp_path / "absent.yaml"),
               "--out-dir", str(out_dir)])
    assert rc == 1
    assert not out_dir.exists()
    assert "error:" in capsys.readouterr().err


def test_cli_bad_yaml(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("n_uavs: [unclosed\n")
    rc = main(["optimize", "--config", str(bad), "--out-dir", str(tmp_path / "r")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    return err


def test_cli_bad_config_values_exit_1(tmp_path, capsys):
    out_dir = tmp_path / "results"
    for i, raw in enumerate(BAD_CONFIG_VALUES):
        path = tmp_path / f"bad{i}.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["optimize", "--config", str(path), "--out-dir", str(out_dir)]) == 1
        _assert_one_error_line(capsys)
    assert not out_dir.exists()


@pytest.mark.parametrize("raw", [
    # a zero slant range: z * z underflows right above the user
    {"altitude_min_m": 1e-300, "altitude_max_m": 1e-300, "hover_radius_m": 0.0},
    # the squared ranges overflow
    {"eve_ring_radius_m": 1e200},
    {"altitude_min_m": 1e160, "altitude_max_m": 1e160},
])
def test_cli_link_out_of_float_range_exits_1(tmp_path, capsys, raw):
    path = tmp_path / "extreme.yaml"
    path.write_text(yaml.safe_dump(raw))
    out_dir = tmp_path / "results"
    assert main(["validate", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    # the kernel names the link, before Scenario's loss check could name a matrix
    assert _assert_one_error_line(capsys).startswith("error: path loss from transmitter")
    assert not out_dir.exists()


def test_cli_validate_one_sample_exits_1(tmp_path, capsys):
    # one draw has no standard error: every row passed tol_ok with a 0 in it
    out_dir = tmp_path / "results"
    config = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    assert main(["validate", "--config", str(config), "--samples", "1",
                 "--out-dir", str(out_dir)]) == 1
    assert _assert_one_error_line(capsys).startswith("error: mc_samples ")
    assert not out_dir.exists()


def test_cli_seed_of_64_bits_or_more_exits_1(tmp_path, capsys):
    # 2**64 was masked to seed 0: it exited 0 and wrote seed 0's solution
    out_dir = tmp_path / "results"
    config = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    assert main(["optimize", "--config", str(config), "--seed", str(2 ** 64),
                 "--out-dir", str(out_dir)]) == 1
    assert _assert_one_error_line(capsys).startswith("error: seed ")
    assert not out_dir.exists()


def test_cli_standard_errors_of_tiny_rates_stay_positive(tmp_path):
    # at 1e100 m every rate is near 1e-190: the squares of its per-draw values
    # underflow, and the standard errors came out exactly 0
    path = tmp_path / "far.yaml"
    save_config(tiny_config(n_uavs=4, altitude_min_m=1e100, altitude_max_m=1e100,
                            validate_p_s_dbm=[0.0, 30.0], replicates=1), path)
    for experiment, flags, column in (("validate", ["--samples", "200"], "r_mc_stderr"),
                                      ("baseline", [], "baseline_stderr")):
        out_dir = tmp_path / experiment
        assert main([experiment, "--config", str(path), "--out-dir", str(out_dir)]
                    + flags) == 0
        errors = [float(v) for v in _read_csv(out_dir / f"{experiment}.csv")[column]]
        assert errors and all(0.0 < e < 1e-150 for e in errors), errors


def test_cli_numerical_error_exits_1(tmp_path, capsys, monkeypatch):
    from swarmsec.errors import NumericalError
    from swarmsec.harness import cli

    def fail(*args, **kwargs):
        raise NumericalError("fixed point not certified at lane (0, 3)", {"residual": 1.0})

    monkeypatch.setattr(cli, "run_experiment", fail)
    rc = main(["optimize", "--config", str(_write_tiny_yaml(tmp_path)),
               "--out-dir", str(tmp_path / "results")])
    assert rc == 1
    _assert_one_error_line(capsys)


def test_initial_point_fits_the_budgets():
    cfg = tiny_config()
    scenario = generate_topology(cfg, seed=4)
    _, tau = initial_point(scenario, cfg)
    assert np.array_equal(tau, np.ones(cfg.n_slots))  # feasible starts keep 1 s
    lean = tiny_config(e_max_j=0.5)  # 2 slots at 27 dBm would need 1.0 J
    scenario = generate_topology(lean, seed=4)
    schedule, tau = initial_point(scenario, lean)
    assert np.all(tau < 1.0)
    assert max(audit_feasibility(scenario, schedule, tau).values()) == 0.0


def test_sweep_skips_a_warm_start_the_budget_cuts_off(tmp_path, monkeypatch):
    # the point optimized at 100 J breaks a 5 J budget: run_bcd rejects the
    # carried start, and the sweep keeps the cold run at 5 J
    from swarmsec.harness import experiments

    rejected = []

    def recording(*args, **kwargs):
        try:
            return run_bcd(*args, **kwargs)
        except InfeasibleStartError as exc:
            rejected.append(exc)
            raise

    monkeypatch.setattr(experiments, "run_bcd", recording)
    cfg = tiny_config(sweep_variable="e_max_j", sweep_values=[100.0, 5.0])
    run_experiment(cfg, "sweep", tmp_path)
    cols = _read_csv(tmp_path / "sweep.csv")
    assert cols["sweep_value"] == ["100", "5"]
    assert cols["start"] == ["cold", "cold"]
    assert len(rejected) == 1


def test_cli_optimize_small_energy_budget(tmp_path):
    # the default start (10 slots, 1 W, 1 s) would use 10 J of a 5 J budget
    path = tmp_path / "lean.yaml"
    path.write_text("e_max_j: 5\n")
    out_dir = tmp_path / "results"
    assert main(["optimize", "--config", str(path), "--out-dir", str(out_dir)]) == 0
    trace = _read_csv(out_dir / "optimize_trace.csv")
    assert max(float(v) for v in trace["max_violation"]) <= 1e-9


def test_cli_unknown_experiment_exits_with_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", str(_write_tiny_yaml(tmp_path))])
    assert exc.value.code == 2


@pytest.mark.parametrize("experiment, flag", [
    ("baseline", "--samples"), ("optimize", "--samples"), ("sweep", "--samples"),
    ("convergence", "--samples"), ("validate", "--jobs"), ("optimize", "--jobs"),
    ("sweep", "--jobs")])
def test_cli_offers_a_flag_only_where_it_is_read(tmp_path, experiment, flag):
    # --samples overrides mc_samples, which only validate reads; --jobs
    # parallelizes only the per-topology baseline and convergence
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--config", str(_write_tiny_yaml(tmp_path)), flag, "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("experiment, flags, keys", [
    pytest.param("optimize", [], {}, id="none"),
    pytest.param("optimize", ["--seed", "7"], {"seed": 7}, id="seed"),
    pytest.param("validate", ["--samples", "50"], {"mc_samples": 50}, id="samples"),
    pytest.param("sweep", ["--variable", "p_max_dbm", "--values", "20, 25"],
                 {"sweep_variable": "p_max_dbm", "sweep_values": [20.0, 25.0]}, id="sweep")])
def test_cli_flags_set_their_config_keys(tmp_path, experiment, flags, keys):
    # the run's config is the file's with each given flag under its key
    path = _write_tiny_yaml(tmp_path)
    out_dir = tmp_path / "results"
    assert main([experiment, "--config", str(path), "--out-dir", str(out_dir)] + flags) == 0
    manifest = json.loads((out_dir / f"{experiment}_manifest.json").read_text())
    assert manifest["config"] == {**config_to_dict(load_config(path)), **keys}


def test_cli_jobs_below_one_exits_1(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["convergence", "--config", str(_write_tiny_yaml(tmp_path)),
                 "--out-dir", str(out_dir), "--jobs", "0"]) == 1
    _assert_one_error_line(capsys)
    assert not out_dir.exists()


def test_cli_optimize_runs(tmp_path, capsys):
    cfg_path = _write_tiny_yaml(tmp_path)
    out_dir = tmp_path / "results"
    rc = main(["optimize", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "optimize_trace.csv").exists()
    assert (out_dir / "optimize_solution.csv").exists()
    assert (out_dir / "optimize_manifest.json").exists()
    assert "optimize" in capsys.readouterr().out


def test_cli_sweep_value_override(tmp_path, capsys):
    cfg_path = _write_tiny_yaml(tmp_path)
    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir),
               "--variable", "e_max_j", "--values", "50,150,250"])
    assert rc == 0
    cols = _read_csv(out_dir / "sweep.csv")
    assert cols["sweep_value"] == ["50", "150", "250"]
    assert cols["sweep_variable"] == ["e_max_j"] * 3
    # a value of the wrong type fails at load, with the config's own message
    bad_dir = tmp_path / "bad"
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(bad_dir),
                 "--variable", "n_uavs", "--values", "3,6.7"]) == 1
    assert "n_uavs must be an integer" in capsys.readouterr().err
    assert not bad_dir.exists()


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = _write_tiny_yaml(tmp_path)
    main(["optimize", "--config", str(cfg_path), "--out-dir", str(tmp_path / "s1"),
          "--seed", "101"])
    main(["optimize", "--config", str(cfg_path), "--out-dir", str(tmp_path / "s2"),
          "--seed", "102"])
    c1 = _read_csv(tmp_path / "s1" / "optimize_trace.csv")
    c2 = _read_csv(tmp_path / "s2" / "optimize_trace.csv")
    assert c1["objective"] != c2["objective"]


# the package, its parser, a validate run and an optimize run whose budgets
# never bind leave scipy.optimize unloaded; the first duration LP whose box
# vertex breaks a budget row loads it. Runs on one process (jobs = 1) never
# load the process pool
_LAZY_LP_SCRIPT = """
import sys
from swarmsec.harness.cli import build_parser
from swarmsec.harness.config import load_config
from swarmsec.harness.experiments import run_experiment

build_parser()
for experiment, path in zip(["validate", "optimize", "optimize"], sys.argv[1:4]):
    run_experiment(load_config(path), experiment, sys.argv[4])
    print("scipy.optimize" in sys.modules)
print("concurrent.futures.process" in sys.modules)
"""


def test_lp_solver_loads_at_the_first_lp(tmp_path):
    # a fresh interpreter: this one may have loaded scipy.optimize already
    configs = [tmp_path / f"{name}.yaml" for name in ("validate", "slack", "tight")]
    # 2 slots of at most 8 s at 1 W use at most 16 J: only the 5 J budget binds
    for path, config in zip(configs, [tiny_config(n_slots=1, mc_samples=200),
                                      tiny_config(), tiny_config(e_max_j=5.0)]):
        save_config(config, path)
    env = dict(os.environ, PYTHONPATH=str(Path(swarmsec.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _LAZY_LP_SCRIPT, *map(str, configs),
                          str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "True", "False"]


# ---------------------------------------------------------------------------
# documentation

def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
