"""Record the per-item reference values that the benchmark checks against.

Run from the repository root, once, at the commit whose numbers are the
reference; it runs every chunk of every workload pool in full and rewrites
``perfbench/reference.json``:

    python3 perfbench/record.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)  # before numpy loads, as in the benchmark's worker

from worker import REFERENCE_PATH, WORKLOADS, certificate_failures  # noqa: E402

RTOL = 1e-6
ATOL = 1e-12


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    from swarmsec.harness import load_config, run_experiment

    config = load_config(root / "configs" / "default.yaml")
    recorded = {"rtol": RTOL, "atol": ATOL, "workloads": {}}
    broken = 0
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for wl in WORKLOADS.values():
            chunks = {}
            for chunk in (c for r in wl.rounds for c in r):
                cfg = dataclasses.replace(config, **chunk.overrides)
                result = run_experiment(cfg, wl.experiment, tmp, jobs=1)
                rows = [dict(zip(result.header, raw)) for raw in result.rows]
                for i, row in enumerate(rows):
                    for why in certificate_failures(wl.experiment, row):
                        broken += 1
                        print(f"{wl.name} {chunk.key} item {chunk.first + i}: {why}",
                              file=sys.stderr)
                chunks.setdefault(chunk.key, []).extend(
                    [row[c] for c in wl.ref_columns] for row in rows)
                print(f"{wl.name} {chunk.key}: {len(rows)} items", file=sys.stderr)
            recorded["workloads"][wl.name] = {"columns": list(wl.ref_columns),
                                              "chunks": chunks}
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}; {broken} items broke a certificate")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
