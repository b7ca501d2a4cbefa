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


def build_parser() -> argparse.ArgumentParser:
    """The parser; each override flag's ``dest`` is the config key it sets,
    and a flag not given leaves no attribute."""
    parser = argparse.ArgumentParser(
        prog="swarmsec",
        description="Secrecy-throughput experiments for cooperative UAV downlinks.")
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name, (help_text, _) in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", required=True, help="YAML config file")
        sp.add_argument("--out-dir", default="results", help="output directory (default: results)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        if name == "validate":
            sp.add_argument("--samples", dest="mc_samples", type=int,
                            help="override mc_samples from the config")
        if name in ("baseline", "convergence"):
            sp.add_argument("--jobs", type=int, default=1,
                            help="worker processes, one topology each (default: 1)")
        if name == "sweep":
            sp.add_argument("--variable", dest="sweep_variable",
                            help="override sweep_variable from the config")
            sp.add_argument("--values", dest="sweep_values",
                            type=lambda s: [v.strip() for v in s.split(",") if v.strip()],
                            help="comma-separated override of sweep_values")
    return parser


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    experiment, out_dir = flags.pop("experiment"), Path(flags.pop("out_dir"))
    config_path, jobs = flags.pop("config"), flags.pop("jobs", 1)
    try:
        config = dataclasses.replace(load_config(config_path), **flags)
        result = run_experiment(config, experiment, out_dir, jobs=jobs)
    except (ValueError, OSError, yaml.YAMLError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{result.experiment}: {len(result.rows)} rows in {result.wall_time_s:.2f} s")
    for path in result.files:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
