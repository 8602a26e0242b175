"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench -q

Runs every workload's reduced job list through the benchmark's command line
and checks the contract of its output, the nesting of the recorded spans,
and that a wrong reference value makes a check fail.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric_and_nested_spans(workload):
    e2e_units, layer_units = run.declared_metrics()
    for trace, units in ((0, e2e_units), (1, layer_units)):
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["metrics"]["trace.spans"]["value"] >= 1

    spans = json.loads((run.OUT / f"spans-{workload}-seed{SEED}.json").read_text())
    child_time = [0.0] * len(spans)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["job"] == s["job"]
            child_time[s["parent"]] += s["end"] - s["start"]
    self_times = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= result["metrics"]["trace.solve_s"]["value"]


def test_perturbed_reference_makes_checks_fail(monkeypatch, tmp_path):
    sys.path.insert(0, str(run.SRC))
    import reference
    import workloads

    monkeypatch.setitem(reference.GC_PUBLISHED, math.pi / 2, 0.13)
    result = run.run_pass(workloads.build("diagram", SEED, smoke=True), tmp_path)
    failed = [name for name, ok, _ in result.checks if not ok]
    assert len(failed) / len(result.checks) > 0
    assert any("g_c(phi=1.5708)" in name for name in failed)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("edge", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
