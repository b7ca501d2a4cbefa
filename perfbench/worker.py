"""Benchmark worker: runs the swarmsec experiment workloads and checks every item.

``run.py`` starts this script in a child process with BLAS pinned to one
thread and ``src`` on the path. It prints ``ready <monotonic time>`` once the
default config is loaded (the end of set-up) and, as its last line, one JSON
object with the result of each workload. ``--probe`` stops after set-up.

A workload is a pool of chunks; a chunk is one ``run_experiment`` call on a
config derived from ``configs/default.yaml``. The seed shuffles the pool, so
each seed runs a different mix of items whose reference values were recorded
at the commit that defined the benchmark (``reference.json``).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR_NAME = ".perfbench_out"

PRESETS = ("suburban", "urban", "dense-urban", "highrise-urban")
POOL_SEEDS = tuple(range(1, 49))     # config seeds of the convergence/baseline chunks
VALIDATE_SEEDS = tuple(range(1, 9))  # topology seeds of the validate rounds

#: end-to-end metrics of an untraced run: name -> unit
END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: printed and recorded with the end-to-end metrics, but carrying no bound:
#: the timings before the host-speed rescaling, which drift with the host
#: (see README.md), the item count and the calibration kernel's median time
UNBOUNDED = {
    "items": "count",
    "items_per_s_raw": "1/s",
    "item_p50_s_raw": "s",
    "item_p90_s_raw": "s",
    "setup_s_raw": "s",
    "kernel_s": "s",
}

#: the calibration kernel's time on the reference host at a quiet moment (its
#: 10th percentile over 15 minutes); items_per_s is rescaled to this host speed
KERNEL_REF_S = 0.04

#: per-layer metrics of a traced run: name -> unit
PER_LAYER = {
    "geometry.eve_scan_s": "s",
    "geometry.eve_scan_calls": "count",
    "channel.loss_calls": "count",
    "channel.substream_calls": "count",
    "scenario.build_s": "s",
    "harness.topology_s": "s",
    "harness.topology_self_s": "s",
    "rates.fixed_point_s": "s",
    "rates.fixed_point_calls": "count",
    "rates.closed_form_s": "s",
    "rates.closed_form_calls": "count",
    "rates.mc_s": "s",
    "rates.mc_calls": "count",
    "rates.mc_draws": "count",
    "optimizer.bcd_s": "s",
    "optimizer.bcd_self_s": "s",
    "optimizer.bcd_iterations": "count",
    "optimizer.bcd_converged_ratio": "ratio",
    "optimizer.aux_s": "s",
    "optimizer.power_s": "s",
    "optimizer.power_calls": "count",
    "optimizer.power_inner_steps": "count",
    "optimizer.lp_s": "s",
    "optimizer.lp_calls": "count",
    "optimizer.eval_s": "s",
    "harness.baseline_s": "s",
    "harness.baseline_draws": "count",
    "harness.write_s": "s",
    "rates.errors": "count",
    "optimizer.errors": "count",
    "harness.errors": "count",
    "trace.items": "count",
    "trace.overhead_s": "s",
}


@dataclasses.dataclass(frozen=True)
class Chunk:
    key: str          # reference key, e.g. "seed=3" or "urban/seed=3"
    overrides: dict   # config fields replaced for this run_experiment call
    items: int
    first: int = 0    # index of the chunk's first item among the key's references


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    rounds: tuple     # tuple of tuples of Chunk; the seed shuffles the rounds
    ref_columns: tuple
    trace_chunks: int  # chunks in the fixed traced pass

    def order(self, seed: int, smoke: bool):
        """Chunks in the order this seed runs them; smoke chunks hold one item."""
        rounds = list(self.rounds)
        random.Random(seed).shuffle(rounds)
        chunks = [c for r in rounds for c in r]
        return [_one_item(c) for c in chunks] if smoke else chunks


def _one_item(chunk: Chunk) -> Chunk:
    """The first item of a chunk alone: same seeds, so the same reference values."""
    o = dict(chunk.overrides)
    for key in ("n_topologies", "replicates"):
        if key in o:
            o[key] = 1
    for key in ("validate_p_a_dbm", "validate_p_s_dbm"):
        if key in o:
            o[key] = o[key][:1]
    return Chunk(chunk.key, o, 1, chunk.first)


def _workloads() -> dict:
    # 5 topologies or replicates per chunk, and one row of a preset's grid:
    # short chunks let the calibration kernel run often enough to follow the
    # host (see README.md)
    conv = tuple((Chunk(f"seed={s}", {"seed": s, "n_topologies": 5}, 5),)
                 for s in POOL_SEEDS)
    base = tuple((Chunk(f"seed={s}", {"seed": s, "n_uavs": 9, "n_slots": 2,
                                      "replicates": 5, "baseline_samples": 2000}, 5),)
                 for s in POOL_SEEDS)
    p_a = [5.0, 10.0, 15.0, 20.0]
    p_s = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    # the grid points are independent (one topology, common random numbers)
    val = tuple(tuple(Chunk(f"{env}/seed={s}",
                            {"seed": s, "environment": env, "n_slots": 1,
                             "mc_samples": 10000, "validate_p_a_dbm": [a],
                             "validate_p_s_dbm": p_s}, len(p_s), i * len(p_s))
                      for env in PRESETS for i, a in enumerate(p_a))
                for s in VALIDATE_SEEDS)
    return {
        "convergence-ref": Workload("convergence-ref", "convergence", conv,
                                    ("initial_objective", "final_objective"), 10),
        "validate-presets": Workload("validate-presets", "validate", val,
                                     ("r_closed", "r_mc"), 16),
        "baseline-l9": Workload("baseline-l9", "baseline", base,
                                ("proposed_objective", "baseline_mean"), 10),
    }


WORKLOADS = _workloads()


# ---------------------------------------------------------------------------
# output checks

def certificate_failures(experiment: str, row: dict) -> list:
    """Per-item conditions of acceptance criteria 1 (validate), 4 and 6."""
    fails = []
    if experiment == "convergence":
        if not row["monotone"]:
            fails.append("objective trace not monotone")
        if not row["max_violation"] <= 1e-9:
            fails.append(f"infeasible by {row['max_violation']:.3e}")
    elif experiment == "validate":
        if not row["tol_ok"]:
            fails.append(f"closed form off Monte Carlo by {row['rel_gap']:.3e}")
    elif experiment == "baseline":
        if not row["proposed_clipped"] >= row["baseline_mean"]:
            fails.append("null-space baseline beats the optimized scheme")
    return fails


def reference_failures(values, ref, columns, rtol: float, atol: float) -> list:
    if ref is None:
        return ["no reference value recorded"]
    return [f"{name} {v!r} differs from reference {r!r}"
            for name, v, r in zip(columns, values, ref)
            if not abs(v - r) <= rtol * abs(r) + atol]


def load_references(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# running chunks

class Pass:
    """Items run by one sequence of chunks, with their checks."""

    def __init__(self, wl: Workload, references: dict):
        self.wl = wl
        self.refs = references["workloads"][wl.name]
        self.rtol, self.atol = references["rtol"], references["atol"]
        self.attempted = 0
        self.failures: list[str] = []
        self.item_times: list[float] = []
        self.rows: list[tuple] = []   # item results without wall-time columns

    def run(self, config, chunk: Chunk, out_dir: Path) -> None:
        # looked up per call, so a traced pass goes through the tracer's wrapper
        from swarmsec.harness import experiments

        self.attempted += chunk.items
        cfg = dataclasses.replace(config, **chunk.overrides)
        try:
            result = experiments.run_experiment(cfg, self.wl.experiment, out_dir, jobs=1)
        except Exception as exc:  # an item that raises counts as failed
            self.failures.extend([f"{chunk.key}: raised {exc!r}"] * chunk.items)
            self.rows.append((chunk.key, "raised"))
            return
        chunk_refs = self.refs["chunks"].get(chunk.key, [])
        if len(result.rows) != chunk.items:
            self.failures.append(f"{chunk.key}: {len(result.rows)} rows, "
                                 f"expected {chunk.items}")
        for i, raw in enumerate(result.rows):
            row = dict(zip(result.header, raw))
            self.item_times.append(row["wall_time_s"])
            self.rows.append((chunk.key,) + tuple(
                v for name, v in row.items() if name != "wall_time_s"))
            values = [row[c] for c in self.wl.ref_columns]
            j = chunk.first + i
            ref = chunk_refs[j] if j < len(chunk_refs) else None
            bad = (certificate_failures(self.wl.experiment, row)
                   + reference_failures(values, ref, self.wl.ref_columns,
                                        self.rtol, self.atol))
            if bad:
                self.failures.append(f"{chunk.key} item {i}: {'; '.join(bad)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def _loop_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(50000):
        acc += i * i
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus) -> int:
    """Pin this process to the CPU of ``cpus`` that runs a fixed loop fastest.

    The virtual CPUs of a shared host can differ in speed by more than half
    (a busy neighbour on the same core), and the scheduler moves a process
    between them; the workloads are single-threaded, so they run on one CPU,
    picked again before each chunk.
    """
    best_s, best_cpu = float("inf"), None
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        t = min(_loop_seconds() for _ in range(2))
        if t < best_s:
            best_s, best_cpu = t, cpu
    os.sched_setaffinity(0, {best_cpu})
    return best_cpu


def run_chunks(p: Pass, chunks, config, out_dir, cpus) -> float:
    """Run chunks; return the time inside them, without the CPU picks."""
    wall = 0.0
    for chunk in chunks:
        pin_to_fastest_cpu(cpus)
        start = time.perf_counter()
        p.run(config, chunk, out_dir)
        wall += time.perf_counter() - start
    return wall


class CalibrationKernel:
    """A fixed mix of interpreter and small-array numpy work, timed on demand.

    Other tenants of a shared host slow the benchmark by up to 2x, in spells
    that last from seconds to minutes. Timed just before and just after a
    chunk, on the same CPU, this kernel slows with the chunk (correlation
    0.7 per chunk on the reference host). Dividing each chunk's time by it
    takes most of the host's drift out of ``items_per_s``. The kernel is the
    benchmark's own code, so no change to swarmsec moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x, self.y = rng.random(64), rng.random(64)
        self.a, self.b = rng.random((8, 8)) + 8.0 * np.eye(8), rng.random(8)

    def seconds(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        for _ in range(1500):
            (np.sin(self.x) * self.y + np.log1p(self.x)).sum()
            np.linalg.solve(self.a, self.b)
        return time.perf_counter() - start


def timed_pass(wl, chunks, config, seconds, references, out_dir, cpus):
    """Closed loop: one chunk after another until ``seconds`` have passed.

    Each chunk's time, and each of its items' times, is rescaled by
    ``KERNEL_REF_S`` over the mean of the kernel timed before and after the
    chunk: ``items_per_s`` and the percentiles are those of a host on which
    the kernel takes ``KERNEL_REF_S``. The unscaled figures carry no bound.
    """
    p = Pass(wl, references)
    kernel = CalibrationKernel()
    wall = scaled = 0.0
    kernel_times, times = [], []
    for chunk in itertools.cycle(chunks):
        pin_to_fastest_cpu(cpus)
        done = len(p.item_times)
        before = kernel.seconds()
        start = time.perf_counter()
        p.run(config, chunk, out_dir)
        elapsed = time.perf_counter() - start
        after = kernel.seconds()
        scale = KERNEL_REF_S / ((before + after) / 2)
        wall += elapsed
        scaled += elapsed * scale
        times += [t * scale for t in p.item_times[done:]]
        kernel_times += [before, after]
        if wall >= seconds:
            break
    metrics = {"items_per_s": len(times) / scaled, "item_p50_s": statistics.median(times),
               "item_p90_s": _p90(times)}
    return p, metrics, {"items": len(times), "items_per_s_raw": len(times) / wall,
                        "item_p50_s_raw": statistics.median(p.item_times),
                        "item_p90_s_raw": _p90(p.item_times),
                        "kernel_s": statistics.median(kernel_times)}


def _p90(times: list) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


# ---------------------------------------------------------------------------
# the traced pass

def install_probes(tracer) -> None:
    """Wrap the public functions of each swarmsec layer at every binding."""
    from swarmsec import channel, geometry, optimizer, rates, scenario
    from swarmsec.harness import baseline, experiments, topology

    def bcd_done(counters, trace):
        counters["optimizer.bcd_iterations"] += len(trace.iterations)
        counters["optimizer.bcd_converged"] += int(trace.converged)
        counters["optimizer.power_inner_steps"] += sum(
            rec.diagnostics["power_inner_iters"] for rec in trace.iterations)

    def mc_call(counters, arguments):
        counters["rates.mc_draws"] += arguments["samples"]

    def baseline_call(counters, arguments):
        counters["harness.baseline_draws"] += (arguments["samples"]
                                               * arguments["scenario"].n_slots)

    def experiment_done(counters, result):
        counters["harness.experiment_wall_s"] += result.wall_time_s

    t = tracer
    t.patch_everywhere(channel.power_loss_linear,
                       t.counted("channel.loss_calls", channel.power_loss_linear))
    t.patch_everywhere(channel.substream,
                       t.counted("channel.substream_calls", channel.substream))
    spans = (
        (geometry.worst_case_eve_position, "geometry.eve_scan", None, None),
        (topology.generate_topology, "harness.topology", None, None),
        (rates.solve_fixed_point, "rates.fixed_point", None, None),
        (rates.secrecy_throughput_closed_form, "rates.closed_form", None, None),
        (rates.ergodic_rate_mc, "rates.mc", mc_call, None),
        (optimizer.run_bcd, "optimizer.bcd", None, bcd_done),
        (optimizer.solve_aux_block_min, "optimizer.aux", None, None),
        (optimizer.solve_aux_block_max, "optimizer.aux", None, None),
        (optimizer.solve_power_subproblem, "optimizer.power", None, None),
        (optimizer.solve_duration_lp, "optimizer.lp", None, None),
        (optimizer.throughput_at_aux, "optimizer.eval", None, None),
        (baseline.baseline_null_space, "harness.baseline", baseline_call, None),
        (experiments.run_experiment, "harness.run_experiment", None, experiment_done),
    )
    for fn, name, on_call, on_return in spans:
        t.patch_everywhere(fn, t.spanned(name, fn, on_call, on_return))
    t.patch_attr(scenario.Scenario, "__post_init__",
                 t.spanned("scenario.build", scenario.Scenario.__post_init__))


def layer_metrics(tracer, items: int, overhead_s: float) -> dict:
    c = tracer.counters
    bcd_calls = c["optimizer.bcd_calls"]
    return {
        "geometry.eve_scan_s": tracer.busy_s("geometry.eve_scan"),
        "geometry.eve_scan_calls": c["geometry.eve_scan_calls"],
        "channel.loss_calls": c["channel.loss_calls"],
        "channel.substream_calls": c["channel.substream_calls"],
        "scenario.build_s": tracer.busy_s("scenario.build"),
        "harness.topology_s": tracer.busy_s("harness.topology"),
        "harness.topology_self_s": tracer.self_s("harness.topology"),
        "rates.fixed_point_s": tracer.busy_s("rates.fixed_point"),
        "rates.fixed_point_calls": c["rates.fixed_point_calls"],
        "rates.closed_form_s": tracer.busy_s("rates.closed_form"),
        "rates.closed_form_calls": c["rates.closed_form_calls"],
        "rates.mc_s": tracer.busy_s("rates.mc"),
        "rates.mc_calls": c["rates.mc_calls"],
        "rates.mc_draws": c["rates.mc_draws"],
        "optimizer.bcd_s": tracer.busy_s("optimizer.bcd"),
        "optimizer.bcd_self_s": tracer.self_s("optimizer.bcd"),
        "optimizer.bcd_iterations": c["optimizer.bcd_iterations"],
        # 0 when the workload runs no optimizer
        "optimizer.bcd_converged_ratio": (c["optimizer.bcd_converged"] / bcd_calls
                                          if bcd_calls else 0.0),
        "optimizer.aux_s": tracer.busy_s("optimizer.aux"),
        "optimizer.power_s": tracer.busy_s("optimizer.power"),
        "optimizer.power_calls": c["optimizer.power_calls"],
        "optimizer.power_inner_steps": c["optimizer.power_inner_steps"],
        "optimizer.lp_s": tracer.busy_s("optimizer.lp"),
        "optimizer.lp_calls": c["optimizer.lp_calls"],
        "optimizer.eval_s": tracer.busy_s("optimizer.eval"),
        "harness.baseline_s": tracer.busy_s("harness.baseline"),
        "harness.baseline_draws": c["harness.baseline_draws"],
        "harness.write_s": (tracer.busy_s("harness.run_experiment")
                            - c["harness.experiment_wall_s"]),
        "rates.errors": c["rates.errors"],
        "optimizer.errors": c["optimizer.errors"],
        "harness.errors": c["harness.errors"],
        "trace.items": items,
        "trace.overhead_s": overhead_s,
    }


def traced_passes(wl, chunks, config, references, out_dir, spans_path, cpus):
    """Each chunk untraced, then traced; returns checks and layer metrics.

    Alternating chunk by chunk exposes both passes to the same host state,
    so their difference measures the tracing overhead.
    """
    from tracer import Tracer, leftover_wrappers

    tracer = Tracer()
    plain, traced = Pass(wl, references), Pass(wl, references)
    plain_wall = traced_wall = 0.0
    for i, chunk in enumerate(chunks):
        plain_wall += run_chunks(plain, [chunk], config, out_dir, cpus)
        tracer.run_id = f"{wl.name}/{i}:{chunk.key}"
        install_probes(tracer)
        try:
            traced_wall += run_chunks(traced, [chunk], config, out_dir, cpus)
        finally:
            tracer.restore()

    problems = []
    if traced.rows != plain.rows:
        problems.append("traced and untraced passes gave different item results")
    left = leftover_wrappers()
    if left:
        problems.append(f"tracer left bindings patched: {', '.join(left)}")
    metrics = layer_metrics(tracer, len(traced.item_times), traced_wall - plain_wall)
    if metrics["optimizer.power_calls"] != metrics["optimizer.power_inner_steps"]:
        problems.append("power-step count differs from the iteration diagnostics")
    spans_path.write_text(json.dumps({
        "workload": wl.name, "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall, **tracer.dump()}) + "\n")
    return plain, traced, metrics, problems


# ---------------------------------------------------------------------------
# entry point

def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_workload(wl: Workload, config, seed: int, seconds: float, trace: bool,
                 smoke: bool, references: dict, out_root: Path, cpus) -> dict:
    """Warm up, then either the timed untraced pass or the traced comparison."""
    chunks = wl.order(seed, smoke)
    out_dir = out_root / f"{wl.name}-seed{seed}-csv"
    warm = Pass(wl, references)
    run_chunks(warm, [_one_item(chunks[0])], config, out_dir, cpus)

    problems: list[str] = []
    unbounded: dict = {}
    if trace:
        n = 2 if smoke else wl.trace_chunks
        plain, traced, metrics, problems = traced_passes(
            wl, chunks[:n], config, references, out_dir,
            out_root / f"{wl.name}-seed{seed}-spans.json", cpus)
        passes = (warm, plain, traced)
    else:
        timed, metrics, unbounded = timed_pass(wl, chunks, config, seconds, references,
                                               out_dir, cpus)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = (warm, timed)
    shutil.rmtree(out_dir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures] + problems
    return {
        "workload": wl.name,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "correct": not failures,
        "failures": failures[:20],
        "metrics": metrics,
        "unbounded": unbounded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--cpus", default=None,
                        help="CPUs to pick from before each chunk (default: this process's)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    import numpy  # noqa: F401  (set-up covers the numeric stack)
    import scipy  # noqa: F401
    import swarmsec
    from swarmsec.harness import load_config
    config = load_config(root / "configs" / "default.yaml")
    package = Path(swarmsec.__file__).resolve()
    if root / "src" not in package.parents:
        print(f"error: swarmsec imported from {package}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    print(f"ready {time.monotonic()!r}", flush=True)  # same clock as run.py's
    if args.probe:
        return 0

    references = load_references()
    out_root = root / OUT_DIR_NAME
    out_root.mkdir(exist_ok=True)
    cpus = ({int(c) for c in args.cpus.split(",")} if args.cpus
            else os.sched_getaffinity(0))
    results = {name: run_workload(WORKLOADS[name], config, args.seed, args.seconds,
                                  bool(args.trace), args.smoke, references, out_root, cpus)
               for name in args.workload}
    print(json.dumps({"environment": environment(args.seed), "results": results}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
