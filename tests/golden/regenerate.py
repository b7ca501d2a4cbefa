"""Record the golden outputs that ``tests/test_golden.py`` compares against.

Each case is one experiment run through ``cli.main`` at a tiny config. Its
directory holds the config it ran (``config.yaml``), the CSV files and the
run manifest. Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

This is the only way the golden files may change; a change that moves them
lists every moved cell class in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent

#: small sizes shared by every case: 4 UAVs over 2 slots, 3 user and 2
#: eavesdropper antennas (unequal, so no power step runs to the SCA cap)
BASE = dict(n_uavs=4, n_slots=2, bob_antennas=3, eve_antennas=2, seed=5,
            mc_samples=300, baseline_samples=200, bcd_max_iter=8,
            n_topologies=3, replicates=2,
            validate_p_a_dbm=[5.0, 20.0], validate_p_s_dbm=[0.0, 15.0, 30.0],
            sweep_values=[100.0, 300.0])

#: case name -> (experiment, config overrides on ``BASE``)
CASES = {
    "validate": ("validate", {}),
    "optimize": ("optimize", {}),
    "baseline": ("baseline", {}),
    "sweep": ("sweep", {}),
    "convergence": ("convergence", {}),
    # the energy row binds at 5 J, so the duration LP goes to HiGHS
    "optimize_5j": ("optimize", dict(e_max_j=5.0)),
    # equal antenna counts: every power step runs to the SCA cap
    "optimize_2x2": ("optimize", dict(bob_antennas=2, eve_antennas=2, bcd_max_iter=2)),
    # at 5 J the 30 dBm point keeps its warm start
    "sweep_p_max": ("sweep", dict(sweep_variable="p_max_dbm", sweep_values=[20.0, 30.0],
                                  e_max_j=5.0)),
    "sweep_n_uavs_up": ("sweep", dict(sweep_variable="n_uavs", sweep_values=[3, 5],
                                      e_max_j=5.0)),
    "sweep_n_uavs_down": ("sweep", dict(sweep_variable="n_uavs", sweep_values=[5, 3],
                                        e_max_j=5.0)),
}


def write_config(name: str, path: Path) -> Path:
    """Write case ``name``'s config to ``path`` as YAML."""
    _, overrides = CASES[name]
    path.write_text(yaml.safe_dump({**BASE, **overrides}, sort_keys=True))
    return path


def run_case(name: str, config_path: Path, out_dir: Path) -> None:
    """Run case ``name`` at ``config_path`` through ``cli.main`` into ``out_dir``."""
    from swarmsec.harness.cli import main

    experiment, _ = CASES[name]
    if main([experiment, "--config", str(config_path), "--out-dir", str(out_dir)]) != 0:
        raise RuntimeError(f"golden case {name} failed")


def regenerate() -> None:
    for name in CASES:
        case_dir = HERE / name
        if case_dir.exists():
            shutil.rmtree(case_dir)
        case_dir.mkdir()
        run_case(name, write_config(name, case_dir / "config.yaml"), case_dir)


if __name__ == "__main__":
    sys.exit(regenerate())
