"""Benchmark entry point for swarmsec; run it from the repository root.

    python3 perfbench/run.py --workload convergence-ref --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

It measures the package in ``src/`` of the current directory from the
outside: a child process (BLAS pinned to one thread through its environment)
runs the workload, and this process times set-up, prints every metric with
its unit and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics of an untraced run, ``--trace 1`` the per-layer metrics of
a traced run. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from worker import (END_TO_END, KERNEL_REF_S, PER_LAYER, UNBOUNDED,  # noqa: E402
                    WORKLOADS, CalibrationKernel, pin_to_fastest_cpu)

WORKER = Path(__file__).resolve().parent / "worker.py"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5        # fresh processes timed for setup_s
DEADLINE_S = 170.0      # the whole command ends within this many seconds
UNITS = {**END_TO_END, **PER_LAYER}


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(args: list, env: dict, deadline: float) -> tuple[float, list]:
    """Run the worker; return its set-up time and its stdout lines."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise RuntimeError("worker did not report the end of set-up")
    return float(lines[0].split()[1]) - start, lines


def report(name: str, result: dict, env_info: dict) -> None:
    fail_ratio = result["failed"] / result["attempted"]
    print(f"== {name}: seed {env_info['seed']}, {result['attempted']} items checked, "
          f"fail_ratio {fail_ratio:.4g} (failed/attempted)")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<32} {value:>16.6g} {UNITS[metric]}")
    for metric, value in result["unbounded"].items():
        print(f"  {metric:<32} {value:>16.6g} {UNBOUNDED[metric]}  (no bound)")
    for line in result["failures"]:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one item per chunk; for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd().resolve()
    missing = [p for p in ("src/swarmsec/__init__.py", "configs/default.yaml")
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from a swarmsec checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env(root)
    common = ["--root", str(root)]
    cpus = os.sched_getaffinity(0)
    try:
        setup, setup_raw = [], []
        if not args.trace:
            os.environ.update(BLAS_ENV)  # before the kernel loads numpy, as in the worker
            kernel = CalibrationKernel()
            for _ in range(SETUP_PROBES):
                pin_to_fastest_cpu(cpus)  # the probe inherits the pin
                before = kernel.seconds()
                probe_s = spawn([*common, "--probe"], env, deadline)[0]
                after = kernel.seconds()
                # rescaled to the host speed of the timed metrics (worker.timed_pass)
                setup.append(probe_s * KERNEL_REF_S / ((before + after) / 2))
                setup_raw.append(probe_s)
        pin_to_fastest_cpu(cpus)
        worker_args = [*common, "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--cpus", ",".join(map(str, sorted(cpus)))]
        worker_args += [a for n in names for a in ("--workload", n)]
        if args.smoke:
            worker_args.append("--smoke")
        lines = spawn(worker_args, env, deadline)[1]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = json.loads(lines[-1])
    env_info = payload["environment"]
    print("environment: " + json.dumps(env_info, sort_keys=True))

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = payload["results"][name]
        if not args.trace:
            result["metrics"]["setup_s"] = statistics.median(setup)
            result["unbounded"]["setup_s_raw"] = statistics.median(setup_raw)
        report(name, result, env_info)
        record = {**result, "environment": env_info, "setup_samples_s": setup,
                  "setup_samples_raw_s": setup_raw}
        out = root / ".perfbench_out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")

        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for metric, value in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": UNITS[metric]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
