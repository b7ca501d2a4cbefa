"""Acceptance gate: eight end-to-end checks at the reference settings.

Each test prints one summary line (PASS/FAIL plus the key figures); the
project pytest options include -s so the lines always show. Checks with a
wall-clock budget assert it too.
"""

import csv
import itertools
import time

import numpy as np

from swarmsec.harness.config import ScenarioConfig
from swarmsec.harness.experiments import run_experiment
from swarmsec.optimizer import (solve_aux_block_max, solve_aux_block_min,
                                solve_duration_lp, solve_power_subproblem)
from swarmsec.rates import (LOG2E, fixed_point_residual,
                            per_slot_secrecy, rate_term, rate_term_gradient,
                            solve_fixed_point)
from swarmsec.scenario import Budgets, PowerSchedule

from conftest import small_scenario

PRESETS = ("suburban", "urban", "dense-urban", "highrise-urban")


def _verdict(num, label, ok, detail):
    print(f"\n[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {num} failed ({detail})"


def _cols(result):
    return {name: i for i, name in enumerate(result.header)}


# ---------------------------------------------------------------------------
# 1. closed-form throughput against the Monte Carlo oracle on every preset

def test_criterion_1_closed_form_tracks_monte_carlo(tmp_path):
    worst_rel, slowest, ok = 0.0, 0.0, True
    for preset in PRESETS:
        config = ScenarioConfig(environment=preset, n_slots=1)
        start = time.perf_counter()
        result = run_experiment(config, "validate", tmp_path / preset)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        c = _cols(result)
        assert len(result.rows) == 28  # 4 AN levels x 7 signal levels
        for row in result.rows:
            bound = 0.05 * max(row[c["r_mc"]], 0.01) + 2.0 * row[c["r_mc_stderr"]]
            ok = ok and row[c["abs_gap"]] <= bound
            worst_rel = max(worst_rel, row[c["rel_gap"]])
        ok = ok and elapsed <= 120.0
    _verdict(1, "closed form within 5% of 1e4-sample Monte Carlo (2-sigma), 4 preset grids",
             ok, f"worst relative gap {worst_rel:.1e}, slowest preset {slowest:.1f}s of 120s")


# ---------------------------------------------------------------------------
# 2. fixed-point solver: residual at the root, root minimizes the rate term

def test_criterion_2_fixed_point_residual_and_minimality():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst, minimal = 0.0, True
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        n = int(rng.integers(1, 6))
        losses = 10.0 ** rng.uniform(7.0, 10.0, size)
        p = 10.0 ** rng.uniform(-3.0, 0.0, size)
        t = solve_fixed_point(p, n, losses, 1e-13)
        worst = max(worst, abs(fixed_point_residual(p, n, losses, t, 1e-13)))
        value = rate_term(p, n, losses, t, 1e-13)
        for delta in (-0.2, -0.05, 0.05, 0.2):
            probe = rate_term(p, n, losses, max(t + delta, 0.0), 1e-13)
            minimal = minimal and value <= probe + 1e-12
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and minimal and elapsed <= 5.0
    _verdict(2, "|residual| <= 1e-12 and 5-point minimality on 1000 instances",
             ok, f"worst residual {worst:.1e}, minimal {minimal}, {elapsed:.1f}s of 5s")


# ---------------------------------------------------------------------------
# 3. analytic power gradient against centered finite differences

def test_criterion_3_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 8))
        n = int(rng.integers(1, 6))
        losses = 10.0 ** rng.uniform(7.0, 10.0, size)
        p = 10.0 ** rng.uniform(-3.0, 0.0, size)
        t = rng.uniform(0.0, 3.0)
        grad = rate_term_gradient(p, n, losses, t, 1e-13)
        for i in range(size):
            h = 1e-6 * max(p[i], 1e-3)
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            fd = (rate_term(up, n, losses, t, 1e-13)
                  - rate_term(down, n, losses, t, 1e-13)) / (2.0 * h)
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6
    _verdict(3, "gradient matches centered differences on 100 random points",
             ok, f"worst relative error {worst:.1e} of 1e-6, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. optimizer traces: monotone ascent and quick convergence at the defaults

def test_criterion_4_bcd_monotone_and_quick(tmp_path):
    config = ScenarioConfig()  # suburban, L=7, 30 dBm, 300 J, epsilon 1e-3
    start = time.perf_counter()
    result = run_experiment(config, "convergence", tmp_path)
    elapsed = time.perf_counter() - start
    c = _cols(result)
    assert len(result.rows) == 100
    monotone = all(row[c["monotone"]] for row in result.rows)
    feasible = max(row[c["max_violation"]] for row in result.rows) <= 1e-9
    iters = [row[c["iterations"]] for row in result.rows]
    quick = float(np.mean([row[c["converged"]] and row[c["iterations"]] <= 10
                           for row in result.rows]))
    ok = monotone and feasible and quick >= 0.8 and elapsed <= 600.0
    _verdict(4, "100 topologies: nondecreasing traces, >=80% converge within 10 iterations",
             ok, f"monotone {monotone}, {quick:.0%} within 10 "
                 f"(median {int(np.median(iters))}), {elapsed:.0f}s of 600s")


# ---------------------------------------------------------------------------
# 5. subproblem solvers against brute-force oracles

def _duration_vertex_oracle(coeff, p_u, e_max, t_total, tau_max):
    # enumerate all basic feasible points of the 3-slot duration polytope
    n = 3
    rows = [np.eye(n)[i] for i in range(n)]          # tau_i <= tau_max
    rows += [-np.eye(n)[i] for i in range(n)]        # -tau_i <= 0
    rows += [p_u[:, l] for l in range(p_u.shape[1])]  # per-UAV energy rows
    rows += [np.ones(n)]                             # total hover time
    rhs = [tau_max] * n + [0.0] * n + [e_max] * p_u.shape[1] + [t_total]
    a, b = np.array(rows), np.array(rhs)
    best = -np.inf
    for idx in itertools.combinations(range(len(rows)), n):
        sub = a[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(idx)])
        if np.all(a @ x <= b + 1e-9):
            best = max(best, float(coeff @ x))
    return best


def test_criterion_5_subproblems_match_oracles():
    start = time.perf_counter()

    lp_gap = 0.0
    rng = np.random.default_rng(5)
    for seed in range(12):  # 3 slots, 2 transmitters: exact vertex enumeration
        budgets = Budgets(p_max_w=1.0, e_max_j=float(rng.uniform(2.0, 8.0)),
                          t_total_s=12.0, tau_max_s=8.0, t_period_s=210.0)
        scenario = small_scenario(n_uavs=2, n_slots=3, rng_seed=seed, budgets=budgets,
                                  eve_distance_m=float(rng.uniform(40.0, 200.0)))
        u = rng.uniform(0.1, 1.0, (3, 2))
        schedule = PowerSchedule(u, rng.uniform(0.0, 1.0, (3, 2)) * u)
        bob_total, eve_an = solve_aux_block_min(schedule, np.ones(3), scenario)
        bob_an, eve_total = solve_aux_block_max(schedule, np.ones(3), scenario)
        aux = np.stack([bob_total, bob_an, eve_total, eve_an])
        tau = solve_duration_lp(aux, schedule, scenario)
        coeff = per_slot_secrecy(scenario, schedule, aux) / budgets.t_period_s
        oracle = _duration_vertex_oracle(coeff, schedule.p_u, budgets.e_max_j,
                                         budgets.t_total_s, budgets.tau_max_s)
        lp_gap = max(lp_gap, abs(float(coeff @ tau) - oracle))

    step, power_gap = 0.05, 0.0
    for seed in range(5):  # 1 transmitter, 2 slots: exhaustive 0.05 W mesh
        budgets = Budgets(p_max_w=1.0, e_max_j=5.0, t_total_s=12.0,
                          tau_max_s=8.0, t_period_s=210.0)
        scenario = small_scenario(n_uavs=1, n_slots=2, rng_seed=seed,
                                  budgets=budgets, eve_distance_m=60.0)
        tau = np.array([3.0, 4.0])
        anchor = PowerSchedule(np.full((2, 1), 0.3), np.full((2, 1), 0.1))
        bob_total, eve_an = solve_aux_block_min(anchor, tau, scenario)
        bob_an, eve_total = solve_aux_block_max(anchor, tau, scenario)
        aux = np.stack([bob_total, bob_an, eve_total, eve_an])
        out = solve_power_subproblem(aux, tau, anchor, scenario)

        # independent vectorized surrogate over the mesh (constants dropped)
        nb, ne, noise = scenario.bob_antennas, scenario.eve_antennas, scenario.noise_w
        qb, qe = scenario.loss_bob[:, 0], scenario.loss_eve[:, 0]
        beta_b = nb / (qb * noise * np.exp(bob_total))
        beta_e = ne / (qe * noise * np.exp(eve_an))
        cb = nb / (noise * np.exp(bob_an) * qb)
        ce = ne / (noise * np.exp(eve_total) * qe)
        gamma_b = LOG2E * cb / (1.0 + cb * anchor.p_a[:, 0])
        gamma_e = LOG2E * ce / (1.0 + ce * anchor.p_u[:, 0])
        grid = np.arange(0.0, 1.0 + step / 2, step)
        u1, a1, u2, a2 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
        feas = (a1 <= u1) & (a2 <= u2) & (tau[0] * u1 + tau[1] * u2 <= 5.0 + 1e-12)
        val = (tau[0] * (np.log1p(beta_b[0] * u1) * LOG2E - gamma_e[0] * u1
                         + np.log1p(beta_e[0] * a1) * LOG2E - gamma_b[0] * a1)
               + tau[1] * (np.log1p(beta_b[1] * u2) * LOG2E - gamma_e[1] * u2
                           + np.log1p(beta_e[1] * a2) * LOG2E - gamma_b[1] * a2))
        best = np.unravel_index(np.argmax(np.where(feas, val, -np.inf)), val.shape)
        grid_point = np.array([grid[i] for i in best])
        solver_point = np.array([out.p_u[0, 0], out.p_a[0, 0],
                                 out.p_u[1, 0], out.p_a[1, 0]])
        power_gap = max(power_gap, float(np.max(np.abs(solver_point - grid_point))))

    elapsed = time.perf_counter() - start
    ok = lp_gap <= 1e-9 and power_gap <= step + 1e-9 and elapsed <= 60.0
    _verdict(5, "duration LP matches vertex enumeration; power block within one 0.05 W mesh step",
             ok, f"LP gap {lp_gap:.1e}, power offset {power_gap:.3f} of {step}, "
                 f"{elapsed:.1f}s of 60s")


# ---------------------------------------------------------------------------
# 6. optimized scheme against the pooled-power null-space benchmark

def test_criterion_6_dominates_null_space_baseline(tmp_path):
    start = time.perf_counter()
    ok, notes = True, []
    for n_uavs in (7, 9):
        config = ScenarioConfig(n_uavs=n_uavs, replicates=50)
        result = run_experiment(config, "baseline", tmp_path / f"uavs{n_uavs}")
        c = _cols(result)
        wins = sum(row[c["proposed_clipped"]] >= row[c["baseline_mean"]]
                   for row in result.rows)
        ok = ok and wins >= 0.95 * len(result.rows)
        notes.append(f"L={n_uavs}: {wins}/{len(result.rows)}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 600.0
    _verdict(6, "optimized throughput beats the null-space baseline on >=95% of paired topologies",
             ok, f"{', '.join(notes)}, {elapsed:.0f}s of 600s")


# ---------------------------------------------------------------------------
# 7. throughput trends in power cap, energy budget, swarm size, environment

def test_criterion_7_throughput_trends(tmp_path):
    start = time.perf_counter()
    ok, notes = True, []
    sweeps = (("p_max_dbm", [20.0, 25.0, 30.0, 35.0]),
              ("e_max_j", [50.0, 100.0, 150.0, 200.0, 250.0, 300.0]),
              ("n_uavs", [5, 6, 7, 8, 9]))
    for variable, values in sweeps:
        config = ScenarioConfig(sweep_variable=variable, sweep_values=values)
        result = run_experiment(config, "sweep", tmp_path / variable)
        c = _cols(result)
        objs = [row[c["objective"]] for row in result.rows]
        nondecr = all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        ok = ok and nondecr
        notes.append(f"{variable} {'nondecreasing' if nondecr else 'NOT monotone'}")

    env_runs = []
    for rep in range(2):
        config = ScenarioConfig(sweep_variable="environment", sweep_values=list(PRESETS))
        result = run_experiment(config, "sweep", tmp_path / f"environment-{rep}")
        c = _cols(result)
        env_runs.append([row[c["objective"]] for row in result.rows])
    identical = env_runs[0] == env_runs[1]
    spread = min(abs(a - b) for a, b in itertools.combinations(env_runs[0], 2))
    ok = ok and identical and spread > 1e-6
    notes.append(f"presets reproducible={identical} separated by >= {spread:.3f}")

    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 600.0
    _verdict(7, "throughput nondecreasing in power cap, energy, swarm size; preset ordering stable",
             ok, f"{'; '.join(notes)}; {elapsed:.0f}s of 600s")


# ---------------------------------------------------------------------------
# 8. byte-identical CSV numbers on rerun (wall-time columns exempt)

def _csv_numbers_match(path_a, path_b):
    with open(path_a, newline="") as fh:
        rows_a = list(csv.reader(fh))
    with open(path_b, newline="") as fh:
        rows_b = list(csv.reader(fh))
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return False
    keep = [i for i, name in enumerate(rows_a[0]) if name != "wall_time_s"]
    return all([ra[i] for i in keep] == [rb[i] for i in keep]
               for ra, rb in zip(rows_a[1:], rows_b[1:]))


def test_criterion_8_reruns_reproduce_csv_numbers(tmp_path):
    cases = (("validate", ScenarioConfig(n_slots=1, mc_samples=2000, seed=7)),
             ("optimize", ScenarioConfig(n_uavs=5, n_slots=4, seed=7)),
             ("baseline", ScenarioConfig(replicates=6, baseline_samples=500, seed=7)),
             ("sweep", ScenarioConfig(sweep_variable="e_max_j",
                                      sweep_values=[100.0, 300.0],
                                      n_uavs=5, n_slots=4, seed=7)),
             ("convergence", ScenarioConfig(n_topologies=6, n_uavs=5, n_slots=4,
                                            seed=7)))
    start = time.perf_counter()
    ok, compared = True, 0
    for experiment, config in cases:
        first = run_experiment(config, experiment, tmp_path / experiment / "a")
        second = run_experiment(config, experiment, tmp_path / experiment / "b")
        for path_a, path_b in zip(first.files, second.files):
            if path_a.suffix != ".csv":
                continue
            ok = ok and path_a.name == path_b.name
            ok = ok and _csv_numbers_match(path_a, path_b)
            compared += 1
    elapsed = time.perf_counter() - start
    _verdict(8, "rerunning every experiment reproduces each CSV byte for byte "
                "(wall-time columns exempt)",
             ok, f"{compared} files across {len(cases)} experiments, {elapsed:.0f}s")
