"""Experiment harness: configuration, topology generation, baseline, drivers, CLI."""

from .config import ScenarioConfig, load_config
from .experiments import run_experiment
from .topology import generate_topology

__all__ = ["ScenarioConfig", "generate_topology", "load_config", "run_experiment"]
