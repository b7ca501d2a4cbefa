"""Experiment drivers with deterministic CSV output and run manifests.

Each driver returns its CSV tables as an ordered ``{file name: (header,
rows)}`` dict, primary table first. Every numeric cell is written with
repr-faithful formatting so a rerun with the same config and seed reproduces
the files byte for byte; wall-time columns are the documented exception.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import platform
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .. import __version__
from ..channel import check_count, dbm_to_watts, derive_seed, substream
from ..errors import InfeasibleStartError
from ..optimizer import audit_feasibility, run_bcd
from ..rates import secrecy_throughput_closed_form, secrecy_throughput_mc
from ..scenario import PowerSchedule, Scenario, uniform_schedule
from .baseline import baseline_null_space
from .config import ScenarioConfig, config_to_dict
from .topology import generate_topology

CSV_SCHEMA_VERSION = 1
#: libyaml's emitter where PyYAML was built with it: the same text as
#: ``yaml.safe_dump``, several times faster
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


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
    canonical = yaml.dump(config_to_dict(config), Dumper=_YAML_DUMPER, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@functools.cache
def _versions() -> dict:
    """The python, numpy, scipy and PyYAML versions of this process, and
    whether libyaml's emitter writes the config hash: a rerun reproduces the
    CSVs byte for byte only on the same versions. Computed once per process.
    scipy is imported here if no duration LP has loaded it: the bare package,
    not ``scipy.optimize``, so ``validate`` still never loads the LP solver.
    """
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "libyaml": _YAML_DUMPER is getattr(yaml, "CSafeDumper", None)}


def _write_manifest(out_dir: Path, experiment: str, config: ScenarioConfig,
                    files, wall_time_s: float) -> Path:
    manifest = {
        "experiment": experiment,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "package_version": __version__,
        "versions": _versions(),
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
    the start power use. That duration can break its budget by a rounding
    step, so it is stepped down one float at a time until ``audit_feasibility``
    reports no violation at all (the powers are clipped into their box).
    """
    schedule = uniform_schedule(scenario,
                                dbm_to_watts(config.init_p_u_dbm),
                                dbm_to_watts(config.init_p_a_dbm))
    b, n = scenario.budgets, scenario.n_slots
    duration = min(1.0, b.tau_max_s, b.t_total_s / n)
    p_u = float(schedule.p_u.max())
    if p_u > 0.0:
        duration = min(duration, b.e_max_j / (n * p_u))
    tau = np.full(n, duration)
    while max(audit_feasibility(scenario, schedule, tau).values()) > 0.0:
        tau = np.nextafter(tau, 0.0)
    return schedule, tau


def _optimize_once(config: ScenarioConfig, seed: int):
    scenario = generate_topology(config, seed)
    schedule, tau = initial_point(scenario, config)
    trace = run_bcd(scenario, schedule, tau, epsilon=config.bcd_epsilon,
                    max_iter=config.bcd_max_iter)
    return scenario, trace


# ---------------------------------------------------------------------------
# individual experiments

def _run_validate(config: ScenarioConfig, jobs: int):
    """Closed form against Monte Carlo at each grid point. One closed-form
    call scores the whole grid as one lane stack, and one Monte Carlo call
    draws each slot's fading once and scores every point on those draws
    (common random numbers). Each point's ``wall_time_s`` is its share of
    building the grid and scoring it in closed form, 1/S of it for S points;
    the Monte Carlo call's time is charged to the first point's, so the
    column adds up to the work done."""
    scenario = generate_topology(config, config.seed)
    tau = np.ones(scenario.n_slots)
    shape = (scenario.n_slots, scenario.n_uavs)
    header = ["environment", "p_a_dbm", "p_s_dbm", "r_closed", "r_mc",
              "r_mc_stderr", "abs_gap", "rel_gap", "tol_ok", "wall_time_s"]
    start = time.perf_counter()
    points, schedules = [], []
    for p_a_dbm in config.validate_p_a_dbm:
        for p_s_dbm in config.validate_p_s_dbm:
            p_a = dbm_to_watts(p_a_dbm)
            p_u = p_a + dbm_to_watts(p_s_dbm)
            points.append((p_a_dbm, p_s_dbm))
            schedules.append(PowerSchedule(np.full(shape, p_u), np.full(shape, p_a)))
    closed = secrecy_throughput_closed_form(scenario, schedules, tau)
    walls = [(time.perf_counter() - start) / len(schedules)] * len(schedules)

    start = time.perf_counter()
    estimates = secrecy_throughput_mc(scenario, schedules, tau, config.mc_samples,
                                      substream(config.seed, "validate-mc"))
    walls[0] += time.perf_counter() - start
    rows = []
    for (p_a_dbm, p_s_dbm), (r_closed, _, _), mc, wall in zip(points, closed, estimates,
                                                               walls):
        abs_gap = abs(r_closed - mc.mean)
        rel_gap = abs_gap / max(mc.mean, 0.01)
        tol_ok = abs_gap <= 0.05 * max(mc.mean, 0.01) + 2.0 * mc.std_error
        rows.append([config.environment, p_a_dbm, p_s_dbm,
                     r_closed, mc.mean, mc.std_error, abs_gap, rel_gap, tol_ok, wall])
    return {"validate.csv": (header, rows)}


def _run_optimize(config: ScenarioConfig, jobs: int):
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
            solution_rows.append([n, l, final.schedule.p_u[n, l],
                                  final.schedule.p_a[n, l], final.tau[n]])
    return {"optimize_trace.csv": (header, rows),
            "optimize_solution.csv": (solution_header, solution_rows)}


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
    return {"baseline.csv": (header, _pmap(_baseline_one, tasks, jobs))}


def _carry_schedule(prev: PowerSchedule, n_uavs: int) -> PowerSchedule:
    """Adapt a schedule to a new swarm size; added members start silent."""
    have = prev.p_u.shape[1]
    if n_uavs == have:
        return prev
    if n_uavs < have:
        return PowerSchedule(prev.p_u[:, :n_uavs], prev.p_a[:, :n_uavs])
    pad = ((0, 0), (0, n_uavs - have))
    return PowerSchedule(np.pad(prev.p_u, pad), np.pad(prev.p_a, pad))


def _run_sweep(config: ScenarioConfig, jobs: int):
    """Re-optimize at each sweep value from a cold start and, when ``run_bcd``
    accepts the carried start, from the previous point's solution, keeping the
    best of the two runs and that start (``hold``). Growing budgets keep the
    previous solution feasible, so the curve is nondecreasing by construction
    for increasing sweeps over p_max_dbm, e_max_j, or n_uavs. Runs serially,
    since each point warm-starts from the previous one.
    """
    header = ["sweep_variable", "sweep_value", "objective", "objective_clipped",
              "iterations", "converged", "monotone", "max_violation", "start",
              "wall_time_s"]
    variable = config.sweep_variable
    rows = []
    kept = None  # the record kept at the previous sweep value
    for value in config.sweep_values:
        start_time = time.perf_counter()
        stepped = dataclasses.replace(config, **{variable: value})
        scenario, cold = _optimize_once(stepped, config.seed)
        candidates = [("cold", cold.final, cold)]  # (label, record, trace; None for the held point)

        if kept is not None:
            try:
                warm = run_bcd(scenario, _carry_schedule(kept.schedule, scenario.n_uavs),
                               kept.tau, epsilon=stepped.bcd_epsilon,
                               max_iter=stepped.bcd_max_iter)
            except InfeasibleStartError:
                pass  # a shrunken budget cuts the carried point off: cold start only
            else:
                candidates += [("hold", warm.initial, None), ("warm", warm.final, warm)]

        label, kept, trace = max(candidates, key=lambda c: c[1].objective)
        rows.append([variable, value, kept.objective, kept.objective_clipped,
                     len(trace.iterations) if trace else 0,
                     trace.converged if trace else True,
                     trace.is_monotone() if trace else True,
                     kept.diagnostics["max_violation"],
                     label, time.perf_counter() - start_time])
    return {"sweep.csv": (header, rows)}


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
    return {"convergence.csv": (header, _pmap(_convergence_one, tasks, jobs))}


def _pmap(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: it loads multiprocessing, logging and socket, which a
    # serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


#: each experiment's name, its one-line help and its driver; every driver
#: takes the config and the worker count, which only ``baseline`` and
#: ``convergence`` use
EXPERIMENTS = {
    "validate": ("compare the closed-form throughput against Monte Carlo", _run_validate),
    "optimize": ("run the block-coordinate optimizer on one topology", _run_optimize),
    "baseline": ("compare the optimizer against the null-space benchmark", _run_baseline),
    "sweep": ("re-optimize while stepping one config variable", _run_sweep),
    "convergence": ("iteration statistics over many random topologies", _run_convergence),
}


# ---------------------------------------------------------------------------
# entry point

def run_experiment(config: ScenarioConfig, experiment: str, out_dir,
                   jobs: int = 1) -> ExperimentResult:
    """Run one named experiment and write its CSV files plus a manifest.

    The result's ``header`` and ``rows`` are those of the primary table.
    ``jobs`` (an integer of at least 1) is the worker-process count of
    ``baseline`` and ``convergence``; the other experiments run serially."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; "
                         f"choose one of {', '.join(EXPERIMENTS)}")
    jobs = check_count("jobs", jobs)
    start = time.perf_counter()
    tables = EXPERIMENTS[experiment][1](config, jobs)
    wall = time.perf_counter() - start

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [out_dir / name for name in tables]
    for path, table in zip(files, tables.values()):
        _write_csv(path, *table)
    files.append(_write_manifest(out_dir, experiment, config, files, wall))

    header, rows = next(iter(tables.values()))
    return ExperimentResult(experiment=experiment, header=header, rows=rows,
                            files=files, wall_time_s=wall)
