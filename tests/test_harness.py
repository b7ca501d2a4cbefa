"""Config round-trips, topology generation, baseline scheme, experiment drivers."""

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsec.channel import sample_small_scale, substream
from swarmsec.harness.baseline import baseline_null_space, baseline_power_split
from swarmsec.harness.cli import main
from swarmsec.harness.config import (SWEEPABLE, ScenarioConfig, config_from_dict,
                                     config_to_dict, load_config, save_config)
from swarmsec.harness.experiments import initial_point, run_experiment
from swarmsec.harness.topology import generate_topology
from swarmsec.optimizer import audit_feasibility
from swarmsec.rates import LOG2E, secrecy_throughput_closed_form


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
]


def test_config_rejects_bad_values():
    for raw in BAD_CONFIG_VALUES:
        with pytest.raises(ValueError):
            config_from_dict(raw)
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

def test_baseline_power_split_ratio():
    assert baseline_power_split(5, 3) == pytest.approx(5.0 / 8.0)
    assert baseline_power_split(1, 1) == 0.5
    with pytest.raises(ValueError):
        baseline_power_split(0, 3)


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


def test_baseline_zero_signal_fraction_is_zero():
    scenario = generate_topology(tiny_config(n_uavs=4), seed=2)
    est = baseline_null_space(scenario, np.ones(2), 200, substream(2, "b"),
                              signal_fraction=0.0)
    assert est.mean == 0.0


def test_baseline_deterministic_given_stream():
    scenario = generate_topology(tiny_config(n_uavs=4), seed=3)
    a = baseline_null_space(scenario, np.ones(2), 300, substream(3, "b"))
    b = baseline_null_space(scenario, np.ones(2), 300, substream(3, "b"))
    assert a.mean == b.mean and a.std_error == b.std_error


def _svd_covariance_baseline(scenario, tau, samples, rng, signal_fraction=None):
    """The null-space baseline written with explicit signal and noise covariances."""
    n_uavs, nb, ne = scenario.n_uavs, scenario.bob_antennas, scenario.eve_antennas
    phi = nb / (nb + ne) if signal_fraction is None else signal_fraction
    pooled = n_uavs * scenario.budgets.p_max_w
    c_sig, c_an = phi * pooled / nb, (1.0 - phi) * pooled / (n_uavs - nb)
    noise = scenario.noise_w
    diffs, variances = [], []
    for n, stream in enumerate(rng.spawn(scenario.n_slots)):
        h_bob = sample_small_scale(stream, nb, n_uavs, samples) / np.sqrt(scenario.loss_bob[n])
        h_eve = sample_small_scale(stream, ne, n_uavs, samples) / np.sqrt(scenario.loss_eve[n])
        _, sv, vh = np.linalg.svd(h_bob, full_matrices=True)
        r_bob = np.sum(np.log1p(c_sig * sv ** 2 / noise), axis=1) * LOG2E
        row_mix = np.einsum("mel,mrl->mer", h_eve, vh[:, :nb, :].conj())
        null_mix = np.einsum("mel,mrl->mer", h_eve, vh[:, nb:, :].conj())
        sig_cov = c_sig * np.einsum("mer,mfr->mef", row_mix, row_mix.conj())
        an_cov = c_an * np.einsum("mer,mfr->mef", null_mix, null_mix.conj())
        an_cov += noise * np.eye(ne)
        r_eve = (np.linalg.slogdet(sig_cov + an_cov)[1]
                 - np.linalg.slogdet(an_cov)[1]) * LOG2E
        vals = r_bob - r_eve
        diffs.append(vals.mean())
        variances.append(vals.var(ddof=1) / samples)
    period = scenario.budgets.t_period_s
    return (float(np.dot(tau, np.maximum(diffs, 0.0)) / period),
            float(math.sqrt(np.dot(tau ** 2, variances)) / period))


def test_baseline_matches_svd_covariance_oracle():
    for n_uavs, nb, ne, phi in ((4, 2, 2, None), (7, 3, 3, 0.4), (9, 5, 3, None)):
        cfg = tiny_config(n_uavs=n_uavs, bob_antennas=nb, eve_antennas=ne)
        scenario = generate_topology(cfg, seed=n_uavs)
        tau = np.array([1.0, 2.0])
        est = baseline_null_space(scenario, tau, 300, substream(n_uavs, "b"),
                                  signal_fraction=phi)
        mean, stderr = _svd_covariance_baseline(scenario, tau, 300,
                                                substream(n_uavs, "b"), phi)
        assert mean > 0.0
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(stderr, rel=1e-12)


def test_baseline_full_signal_matches_independent_estimator():
    # with the whole budget on the signal there is no artificial noise; the
    # secrecy rate has a direct log-det form this re-implements with plain loops
    cfg = tiny_config(n_uavs=4, n_slots=2, bob_antennas=2, eve_antennas=2)
    scenario = generate_topology(cfg, seed=7)
    tau = np.array([1.0, 2.0])
    samples = 200
    est = baseline_null_space(scenario, tau, samples, substream(11, "chk"),
                              signal_fraction=1.0)

    nb, ne, n_uavs = 2, 2, 4
    noise = scenario.noise_w
    c_sig = 1.0 * n_uavs * scenario.budgets.p_max_w / nb
    streams = substream(11, "chk").spawn(scenario.n_slots)
    diffs = []
    for n in range(scenario.n_slots):
        stream = streams[n]
        h_bob = sample_small_scale(stream, nb, n_uavs, samples) / np.sqrt(scenario.loss_bob[n])
        h_eve = sample_small_scale(stream, ne, n_uavs, samples) / np.sqrt(scenario.loss_eve[n])
        vals = np.empty(samples)
        for m in range(samples):
            _, sv, vh = np.linalg.svd(h_bob[m], full_matrices=True)
            r_bob = float(np.sum(np.log1p(c_sig * sv ** 2 / noise))) * LOG2E
            g = h_eve[m] @ vh[:nb].conj().T
            gram = np.eye(ne) + c_sig * (g @ g.conj().T) / noise
            r_eve = float(np.linalg.slogdet(gram)[1]) * LOG2E
            vals[m] = r_bob - r_eve
        diffs.append(max(vals.mean(), 0.0))
    expected = float(np.dot(tau, diffs) / scenario.budgets.t_period_s)
    assert est.mean == pytest.approx(expected, rel=1e-9)


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
    # an eavesdropper with more antennas than the user makes the start's
    # secrecy rates negative, and 3 slots of 1.95/3 s at 1 W overshoot the
    # 1.95 J budget by one rounding step: row 0 shows the start's clipped
    # objective and its audited violation, as every later row does
    cfg = ScenarioConfig(bob_antennas=2, eve_antennas=4, n_slots=3, e_max_j=1.95)
    run_experiment(cfg, "optimize", tmp_path)
    row = {k: float(v[0]) for k, v in _read_csv(tmp_path / "optimize_trace.csv").items()}
    scenario = generate_topology(cfg, cfg.seed)
    schedule, tau = initial_point(scenario, cfg)
    value, _, per_slot = secrecy_throughput_closed_form(scenario, schedule, tau)
    violation = max(audit_feasibility(scenario, schedule, tau).values())
    assert row["objective"] == value < 0.0
    assert row["objective_clipped"] == float(np.dot(tau, np.maximum(per_slot, 0.0))
                                             / cfg.t_period_s)
    assert row["objective_clipped"] >= max(row["objective"], 0.0)
    assert row["max_violation"] == violation > 0.0


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


def test_run_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(tiny_config(), "frobnicate", tmp_path)


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


def test_cli_bad_config_values_exit_1(tmp_path, capsys):
    out_dir = tmp_path / "results"
    for i, raw in enumerate(BAD_CONFIG_VALUES):
        path = tmp_path / f"bad{i}.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["optimize", "--config", str(path), "--out-dir", str(out_dir)]) == 1
        _assert_one_error_line(capsys)
    assert not out_dir.exists()


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
    schedule, tau = initial_point(generate_topology(lean, seed=4), lean)
    assert np.all(tau < 1.0)
    assert np.all(schedule.p_u @ tau <= lean.e_max_j + 1e-12)


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
