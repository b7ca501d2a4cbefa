"""Self-tests of the benchmark; run from the repository root:

    python3 -m pytest perfbench -q

The smoke runs use one item per chunk, so the whole file takes well under a
minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import worker  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), f"{m['name']} not printed with its unit"

    if trace and workload == "convergence-ref":
        # 360 ring angles x 7 UAVs x 10 slots for the scan, plus 140 scenario losses
        metrics = result["metrics"]
        assert (metrics["channel.loss_calls"]["value"]
                == 25340 * metrics["trace.items"]["value"])


def _smoke_setup(name):
    from swarmsec.harness import load_config

    config = load_config(ROOT / "configs" / "default.yaml")
    return worker.WORKLOADS[name], config, worker.load_references()


@pytest.fixture
def cpus():
    """The CPUs this process may run on; restored after the test pins itself."""
    allowed = os.sched_getaffinity(0)
    yield allowed
    os.sched_setaffinity(0, allowed)


def test_traced_and_untraced_items_identical(tmp_path, cpus):
    wl, config, refs = _smoke_setup("baseline-l9")
    chunks = wl.order(5, smoke=True)[:2]
    plain, traced, metrics, problems = worker.traced_passes(
        wl, chunks, config, refs, tmp_path, tmp_path / "spans.json", cpus)
    assert problems == []
    assert traced.rows == plain.rows and len(plain.rows) == 2
    assert plain.failed == traced.failed == 0
    assert metrics["harness.baseline_draws"] == 2 * 2 * 2000  # 2 replicates x 2 slots
    assert leftover_wrappers() == []
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["span_fields"] == ["name", "start", "end", "parent", "run_id"]
    assert spans["counters"]["harness.baseline_calls"] == 2


def test_perturbed_reference_fails_every_item(tmp_path):
    wl, config, refs = _smoke_setup("convergence-ref")
    for items in refs["workloads"][wl.name]["chunks"].values():
        for values in items:
            values[:] = [v * (1.0 + 1e-3) for v in values]
    check = worker.Pass(wl, refs)
    for chunk in wl.order(5, smoke=True)[:3]:
        check.run(config, chunk, tmp_path)
    assert check.attempted == 3
    assert check.failed / check.attempted == 1.0


def test_seed_fixes_the_inputs_and_every_chunk_has_references():
    refs = worker.load_references()
    for name, wl in worker.WORKLOADS.items():
        assert wl.order(7, smoke=False) == wl.order(7, smoke=False)
        assert wl.order(7, smoke=False) != wl.order(8, smoke=False)
        recorded = refs["workloads"][name]["chunks"]
        covered = {}
        for chunk in wl.order(7, smoke=False):
            covered.setdefault(chunk.key, []).extend(
                range(chunk.first, chunk.first + chunk.items))
        assert {key: sorted(items) for key, items in covered.items()} == {
            key: list(range(len(values))) for key, values in recorded.items()}


def test_tracer_self_time_and_restore():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.spanned("t.leaf", leaf)
    traced_outer = tracer.spanned("t.outer", lambda: traced_leaf() + traced_leaf())
    assert traced_outer() == 2 * leaf()
    assert tracer.counters["t.outer_calls"] == 1 and tracer.counters["t.leaf_calls"] == 2
    parent = [i for i, s in enumerate(tracer.spans) if s[0] == "t.outer"][0]
    assert all(s[3] == parent for s in tracer.spans if s[0] == "t.leaf")
    total = tracer.busy_s("t.outer")
    children = tracer.busy_s("t.leaf")
    assert tracer.self_s("t.outer") == pytest.approx(total - children, abs=1e-12)

    class Holder:
        value = leaf
    tracer.patch_attr(Holder, "value", traced_leaf)
    assert Holder.value is traced_leaf
    tracer.restore()
    assert Holder.value is leaf


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("convergence-ref", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
