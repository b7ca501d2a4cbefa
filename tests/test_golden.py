"""Golden outputs: tiny configs rerun through ``cli.main`` against recorded files.

Acceptance criterion 8 proves that a rerun of the same code reproduces its
CSVs; this test proves that a change to the code keeps the outputs recorded
in ``tests/golden/`` (rewritten only by ``tests/golden/regenerate.py``). Each
cell is compared by its class: booleans, integers, strings and the sweep's
``start`` labels exactly, Monte Carlo standard errors at a relative 4.5e-10
(the largest shift a bit-changing engine PR has recorded), every other float
at a relative 1e-12. Wall times and the manifest's creation time vary from
run to run and are skipped; the ``versions`` block names what the files were
recorded on.
"""

from __future__ import annotations

import csv
import json
import math

import pytest

from golden.regenerate import CASES, HERE, run_case

#: columns compared as text: booleans, integers and strings
EXACT = {"environment", "tol_ok", "iteration", "non_monotone", "slot", "uav", "replicate",
         "seed", "n_uavs", "baseline_samples", "bcd_iterations", "bcd_converged",
         "sweep_variable", "iterations", "converged", "monotone", "start", "topology"}
STDERR = {"r_mc_stderr", "baseline_stderr"}
SKIPPED = {"wall_time_s"}
MANIFEST_SKIPPED = {"created_utc", "total_wall_time_s", "versions"}

FLOAT_RTOL = 1e-12
STDERR_RTOL = 4.5e-10


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _cell_mismatch(column: str, want: str, got: str) -> bool:
    if column in SKIPPED:
        return False
    if column in EXACT:
        return want != got
    rtol = STDERR_RTOL if column in STDERR else FLOAT_RTOL
    return not math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=0.0)


def _mismatches(recorded, produced) -> list[str]:
    found = []
    for path in sorted(recorded.glob("*.csv")):
        header, rows = _read_csv(path)
        got_header, got_rows = _read_csv(produced / path.name)
        if got_header != header or len(got_rows) != len(rows):
            found.append(f"{path.name}: header {got_header} with {len(got_rows)} rows, "
                         f"recorded {header} with {len(rows)}")
            continue
        for i, (want_row, got_row) in enumerate(zip(rows, got_rows)):
            for column, want, got in zip(header, want_row, got_row):
                if _cell_mismatch(column, want, got):
                    found.append(f"{path.name} row {i} {column}: {got}, recorded {want}")
    for path in sorted(recorded.glob("*_manifest.json")):
        want, got = (json.loads(p.read_text()) for p in (path, produced / path.name))
        for key in sorted((set(want) | set(got)) - MANIFEST_SKIPPED):
            if want.get(key) != got.get(key):
                found.append(f"{path.name} {key}: {got.get(key)!r}, recorded {want.get(key)!r}")
    return found


@pytest.mark.parametrize("name", list(CASES))
def test_golden_outputs_reproduce(tmp_path, name):
    recorded = HERE / name
    run_case(name, recorded / "config.yaml", tmp_path)
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in recorded.iterdir() if p.name != "config.yaml")
    found = _mismatches(recorded, tmp_path)
    if found:
        manifest = next(recorded.glob("*_manifest.json"))
        versions = json.loads(manifest.read_text())["versions"]
        pytest.fail(f"{len(found)} cells differ from the golden files recorded on "
                    f"{versions}: " + "; ".join(found[:10]))
