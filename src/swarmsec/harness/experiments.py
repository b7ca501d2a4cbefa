"""Experiment drivers with deterministic CSV output and run manifests.

Five experiments are available:

- ``validate``: closed-form throughput against Monte Carlo over a power grid.
- ``optimize``: one block-coordinate run; emits the trace and the solution.
- ``baseline``: optimized scheme vs the null-space benchmark, paired topologies.
- ``sweep``: re-optimize while one config variable steps through given values.
- ``convergence``: iteration counts and monotonicity over many topologies.

Every numeric cell is written with repr-faithful formatting so a rerun with
the same config and seed reproduces the files byte for byte; wall-time
columns are the documented exception.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .. import __version__
from ..channel import dbm_to_watts, derive_seed, substream
from ..optimizer import FEASIBILITY_TOL, audit_feasibility, run_bcd
from ..rates import secrecy_throughput_closed_form, secrecy_throughput_mc
from ..scenario import PowerSchedule, Scenario, uniform_schedule
from .baseline import baseline_null_space
from .config import ScenarioConfig, config_to_dict
from .topology import generate_topology

EXPERIMENTS = ("validate", "optimize", "baseline", "sweep", "convergence")
CSV_SCHEMA_VERSION = 1


@dataclass
class ExperimentResult:
    experiment: str
    header: list
    rows: list
    files: list
    wall_time_s: float


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _config_sha256(config: ScenarioConfig) -> str:
    canonical = yaml.safe_dump(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(out_dir: Path, experiment: str, config: ScenarioConfig,
                    files, wall_time_s: float) -> Path:
    manifest = {
        "experiment": experiment,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "package_version": __version__,
        "config_sha256": _config_sha256(config),
        "config": config_to_dict(config),
        "seed": config.seed,
        "files": [f.name for f in files],
        "total_wall_time_s": wall_time_s,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = out_dir / f"{experiment}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def initial_point(scenario: Scenario, config: ScenarioConfig):
    """Starting point for the optimizer: uniform powers and equal slot durations.

    Each slot gets one second, shortened where a budget would otherwise be
    broken: the per-slot cap, the total time, or the energy that N slots at
    the start power use.
    """
    schedule = uniform_schedule(scenario,
                                dbm_to_watts(config.init_p_u_dbm),
                                dbm_to_watts(config.init_p_a_dbm))
    b, n = scenario.budgets, scenario.n_slots
    duration = min(1.0, b.tau_max_s, b.t_total_s / n)
    p_u = float(schedule.p_u.max())
    if p_u > 0.0:
        duration = min(duration, b.e_max_j / (n * p_u))
    return schedule, np.full(n, duration)


def _optimize_once(config: ScenarioConfig, seed: int):
    scenario = generate_topology(config, seed)
    schedule, tau = initial_point(scenario, config)
    trace = run_bcd(scenario, schedule, tau, epsilon=config.bcd_epsilon,
                    max_iter=config.bcd_max_iter)
    return scenario, trace


# ---------------------------------------------------------------------------
# individual experiments

def _run_validate(config: ScenarioConfig):
    scenario = generate_topology(config, config.seed)
    tau = np.ones(scenario.n_slots)
    header = ["environment", "p_a_dbm", "p_s_dbm", "r_closed", "r_mc",
              "r_mc_stderr", "abs_gap", "rel_gap", "tol_ok", "wall_time_s"]
    rows = []
    for p_a_dbm in config.validate_p_a_dbm:
        for p_s_dbm in config.validate_p_s_dbm:
            start = time.perf_counter()
            p_a = dbm_to_watts(float(p_a_dbm))
            p_u = p_a + dbm_to_watts(float(p_s_dbm))
            shape = (scenario.n_uavs, scenario.n_slots)
            schedule = PowerSchedule(np.full(shape, p_u), np.full(shape, p_a))
            r_closed, _, _ = secrecy_throughput_closed_form(scenario, schedule, tau)
            # the same substream at every grid point: common random numbers
            mc = secrecy_throughput_mc(scenario, schedule, tau, config.mc_samples,
                                       substream(config.seed, "validate-mc"))
            abs_gap = abs(r_closed - mc.mean)
            rel_gap = abs_gap / max(mc.mean, 0.01)
            tol_ok = abs_gap <= 0.05 * max(mc.mean, 0.01) + 2.0 * mc.std_error
            rows.append([config.environment, float(p_a_dbm), float(p_s_dbm),
                         r_closed, mc.mean, mc.std_error, abs_gap, rel_gap,
                         tol_ok, time.perf_counter() - start])
    return header, rows, []


def _run_optimize(config: ScenarioConfig):
    scenario, trace = _optimize_once(config, config.seed)
    header = ["iteration", "objective", "objective_clipped", "max_violation",
              "non_monotone"]
    rows = [[i, rec.objective, rec.objective_clipped, rec.diagnostics["max_violation"],
             rec.diagnostics["non_monotone"]]
            for i, rec in enumerate([trace.initial] + trace.iterations)]

    final = trace.final
    solution_header = ["slot", "uav", "p_u_w", "p_a_w", "tau_s"]
    solution_rows = []
    for n in range(scenario.n_slots):
        for l in range(scenario.n_uavs):
            solution_rows.append([n, l, final.schedule.p_u[l, n],
                                  final.schedule.p_a[l, n], final.tau[n]])
    extra = [("optimize_solution.csv", solution_header, solution_rows)]
    return header, rows, extra


def _baseline_one(args):
    config, replicate = args
    start = time.perf_counter()
    seed = derive_seed(config.seed, "replicate", replicate)
    scenario, trace = _optimize_once(config, seed)
    tau = np.ones(scenario.n_slots)
    bench = baseline_null_space(scenario, tau, config.baseline_samples,
                                substream(seed, "baseline-mc"))
    final = trace.final
    return [replicate, seed, config.n_uavs, final.objective,
            final.objective_clipped, bench.mean, bench.std_error,
            config.baseline_samples, len(trace.iterations), trace.converged,
            time.perf_counter() - start]


def _run_baseline(config: ScenarioConfig, jobs: int):
    header = ["replicate", "seed", "n_uavs", "proposed_objective",
              "proposed_clipped", "baseline_mean", "baseline_stderr",
              "baseline_samples", "bcd_iterations", "bcd_converged",
              "wall_time_s"]
    tasks = [(config, k) for k in range(config.replicates)]
    rows = _pmap(_baseline_one, tasks, jobs)
    return header, rows, []


def _carry_schedule(prev: PowerSchedule, n_uavs: int) -> PowerSchedule:
    """Adapt a schedule to a new swarm size; added members start silent."""
    carried = prev.copy()
    have = carried.p_u.shape[0]
    if n_uavs > have:
        pad = np.zeros((n_uavs - have, carried.p_u.shape[1]))
        carried = PowerSchedule(np.vstack([carried.p_u, pad]),
                                np.vstack([carried.p_a, pad]))
    elif n_uavs < have:
        carried = PowerSchedule(carried.p_u[:n_uavs], carried.p_a[:n_uavs])
    return carried


def _run_sweep(config: ScenarioConfig, jobs: int):
    """Re-optimize at each sweep value from a cold start and, when possible,
    warm-started from the previous point's solution, keeping the better
    stationary point. Growing budgets keep the previous solution feasible, so
    the emitted curve is nondecreasing by construction for increasing sweeps
    over p_max_dbm, e_max_j, or n_uavs. Runs serially (the chain is ordered).
    """
    del jobs  # warm starts chain the points; parallel execution would break them
    header = ["sweep_variable", "sweep_value", "objective", "objective_clipped",
              "iterations", "converged", "monotone", "max_violation", "start",
              "wall_time_s"]
    variable = config.sweep_variable
    rows = []
    kept = None  # the record kept at the previous sweep value
    for value in config.sweep_values:
        start_time = time.perf_counter()
        stepped = dataclasses.replace(config, **{variable: value})
        scenario = generate_topology(stepped, config.seed)

        candidates = []  # (label, record, trace; None for the held point)
        cold_schedule, cold_tau = initial_point(scenario, stepped)
        cold = run_bcd(scenario, cold_schedule, cold_tau, epsilon=stepped.bcd_epsilon,
                       max_iter=stepped.bcd_max_iter)
        candidates.append(("cold", cold.final, cold))

        if kept is not None:
            warm_schedule = _carry_schedule(kept.schedule, scenario.n_uavs)
            if (max(audit_feasibility(scenario, warm_schedule, kept.tau).values())
                    <= FEASIBILITY_TOL):
                warm = run_bcd(scenario, warm_schedule, kept.tau,
                               epsilon=stepped.bcd_epsilon,
                               max_iter=stepped.bcd_max_iter)
                candidates.append(("hold", warm.initial, None))
                candidates.append(("warm", warm.final, warm))

        label, kept, trace = max(candidates, key=lambda c: c[1].objective)
        rows.append([variable, value, kept.objective, kept.objective_clipped,
                     len(trace.iterations) if trace else 0,
                     trace.converged if trace else True,
                     trace.is_monotone() if trace else True,
                     kept.diagnostics["max_violation"],
                     label, time.perf_counter() - start_time])
    return header, rows, []


def _convergence_one(args):
    config, index = args
    start = time.perf_counter()
    seed = derive_seed(config.seed, "topology", index)
    _, trace = _optimize_once(config, seed)
    final = trace.final
    return [index, seed, len(trace.iterations), trace.converged,
            trace.is_monotone(), trace.initial.objective, final.objective,
            final.diagnostics["max_violation"], time.perf_counter() - start]


def _run_convergence(config: ScenarioConfig, jobs: int):
    header = ["topology", "seed", "iterations", "converged", "monotone",
              "initial_objective", "final_objective", "max_violation",
              "wall_time_s"]
    tasks = [(config, k) for k in range(config.n_topologies)]
    rows = _pmap(_convergence_one, tasks, jobs)
    return header, rows, []


def _pmap(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# entry point

def run_experiment(config: ScenarioConfig, experiment: str, out_dir,
                   jobs: int = 1) -> ExperimentResult:
    """Run one named experiment and write its CSV files plus a manifest."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; "
                         f"choose one of {', '.join(EXPERIMENTS)}")
    start = time.perf_counter()
    if experiment == "validate":
        header, rows, extra = _run_validate(config)
    elif experiment == "optimize":
        header, rows, extra = _run_optimize(config)
    elif experiment == "baseline":
        header, rows, extra = _run_baseline(config, jobs)
    elif experiment == "sweep":
        header, rows, extra = _run_sweep(config, jobs)
    else:
        header, rows, extra = _run_convergence(config, jobs)
    wall = time.perf_counter() - start

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    primary_name = "optimize_trace.csv" if experiment == "optimize" else f"{experiment}.csv"
    files = []
    primary = out_dir / primary_name
    _write_csv(primary, header, rows)
    files.append(primary)
    for name, extra_header, extra_rows in extra:
        path = out_dir / name
        _write_csv(path, extra_header, extra_rows)
        files.append(path)
    files.append(_write_manifest(out_dir, experiment, config, files, wall))

    return ExperimentResult(experiment=experiment, header=header, rows=rows,
                            files=files, wall_time_s=wall)
