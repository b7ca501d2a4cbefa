"""Command-line entry point: ``swarmsec <experiment> --config file.yaml``."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import yaml

from ..errors import NumericalError
from .config import load_config
from .experiments import EXPERIMENTS, run_experiment

_HELP = {
    "validate": "compare the closed-form throughput against Monte Carlo",
    "optimize": "run the block-coordinate optimizer on one topology",
    "baseline": "compare the optimizer against the null-space benchmark",
    "sweep": "re-optimize while stepping one config variable",
    "convergence": "iteration statistics over many random topologies",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmsec",
        description="Secrecy-throughput experiments for cooperative UAV downlinks.")
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", required=True, help="YAML config file")
        sp.add_argument("--out-dir", default="results", help="output directory (default: results)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "validate":
            sp.add_argument("--samples", type=int, default=None,
                            help="override mc_samples from the config")
        if name in ("baseline", "convergence"):
            sp.add_argument("--jobs", type=int, default=1,
                            help="worker processes, one topology each (default: 1)")
        if name == "sweep":
            sp.add_argument("--variable", default=None,
                            help="override sweep_variable from the config")
            sp.add_argument("--values", default=None,
                            help="comma-separated override of sweep_values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if getattr(args, "samples", None) is not None:
            overrides["mc_samples"] = args.samples
        if getattr(args, "variable", None) is not None:
            overrides["sweep_variable"] = args.variable
        if getattr(args, "values", None) is not None:
            overrides["sweep_values"] = [v.strip() for v in args.values.split(",") if v.strip()]
        if overrides:
            config = dataclasses.replace(config, **overrides)
        result = run_experiment(config, args.experiment, Path(args.out_dir),
                                jobs=getattr(args, "jobs", 1))
    except (ValueError, OSError, yaml.YAMLError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{result.experiment}: {len(result.rows)} rows in {result.wall_time_s:.2f} s")
    for path in result.files:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
