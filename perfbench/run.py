"""chiralwalk benchmark: time to a verified dataset, per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 12 --trace 0

The workload's job list (see workloads.py) runs back to back in this
process, pass after pass, for at least --seconds; every pass is checked
against the reference values in reference.py.  With --trace 0 the last line
of standard output is a JSON object carrying the end-to-end metrics; with
--trace 1 one more pass runs under the outside-in tracer (layertrace.py) and the
JSON object carries the per-layer metrics instead.  Standard error gets a
table of every metric measured and the name of every failed check.

Metric names and units are read from BENCHMARK.json at the checkout root.
The package is imported from the checkout's src/; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("bulk", "edge", "longtime", "diagram")
SETUP_REPEATS = {"full": 5, "smoke": 2}


@dataclass
class PassResult:
    solve_s: float
    job_s: dict
    checks: list  # (name, passed, detail)


def clear_caches() -> None:
    """Empty the package's lru caches, so each pass starts cold like a CLI call."""
    for name, module in list(sys.modules.items()):
        if name != "chiralwalk" and not name.startswith("chiralwalk."):
            continue
        for obj in vars(module).values():
            # a traced function reaches its cache through __wrapped__
            while obj is not None and not hasattr(obj, "cache_clear"):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None and getattr(obj, "__module__", "").startswith("chiralwalk"):
                obj.cache_clear()


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(workload, workdir: Path, tracer=None) -> PassResult:
    """Run every job once, timing only the jobs, then check the pass."""
    clear_caches()
    solve_s, job_s, digests, checks = 0.0, {}, {}, []
    for i, job in enumerate(workload.jobs):
        out = workdir / f"job{i}"
        out.mkdir(parents=True)
        if tracer:
            tracer.job = i
        start = perf_counter()
        try:
            value = job.run(out)
            job_s[job.name] = perf_counter() - start
            digests[job.name] = job.digest(value)
            del value
            checks.append((f"{job.name}: completed", True, ""))
        except Exception as exc:  # a failed job is a failed check, the pass goes on
            job_s.setdefault(job.name, perf_counter() - start)
            checks.append((f"{job.name}: completed", False, f"{type(exc).__name__}: {exc}"))
        solve_s += job_s[job.name]
        if tracer:
            tracer.bytes_written += _dir_bytes(out)
        shutil.rmtree(out)
    try:
        checks += workload.check(digests)
    except Exception as exc:  # e.g. a digest missing because its job failed
        checks.append((f"{workload.name}: checks evaluated", False, f"{type(exc).__name__}: {exc}"))
    return PassResult(solve_s, job_s, checks)


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    import startup

    setup = startup.import_seconds(SRC, SETUP_REPEATS[scale])
    sys.path.insert(0, str(SRC))
    import chiralwalk
    import workloads
    from layertrace import Tracer

    if not Path(chiralwalk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported chiralwalk from {chiralwalk.__file__}, not from {SRC}")
    workload = workloads.build(name, seed, smoke=scale == "smoke")
    workdir = OUT / f"work-{os.getpid()}"
    passes, traced, tracer = [], None, None
    try:
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(run_pass(workload, workdir))
        if trace:
            tracer = Tracer()
            clear_caches()
            tracer.install()
            try:
                traced = run_pass(workload, workdir, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    solve = statistics.median(p.solve_s for p in passes)
    e2e = {
        "setup_s": statistics.median(setup),
        "solve_s": solve,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layer = {}
    if trace:
        layer = tracer.metrics(traced.solve_s)
        layer.update(startup.import_breakdown(SRC))
        layer["trace.overhead_frac"] = (traced.solve_s - solve) / solve
        pair = workload.parallel_pair
        layer["cli.jobs2_over_jobs1"] = (
            statistics.median(p.job_s[pair[1]] for p in passes)
            / statistics.median(p.job_s[pair[0]] for p in passes) if pair else 0.0)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    checks = [c for p in passes + ([traced] if traced else []) for c in p.checks]
    job_s = {job.name: statistics.median(p.job_s[job.name] for p in passes) for job in workload.jobs}
    return {"e2e": e2e, "layer": layer, "checks": checks, "passes": [p.solve_s for p in passes],
            "setup": setup, "inputs": workload.inputs, "job_s": job_s}


def report(result: dict, trace: bool) -> dict:
    e2e_units, layer_units = declared_metrics()
    checks = result["checks"]
    failed = [c for c in checks if not c[1]]
    shown = dict(_with_units(result["e2e"], e2e_units))
    if trace:
        shown.update(_with_units(result["layer"], layer_units))
    shown["fail_frac"] = {"value": len(failed) / len(checks), "unit": "frac"}
    log = sys.stderr
    print(f"inputs: {json.dumps(result['inputs'])}", file=log)
    print(f"checks: {len(checks)}, failed: {len(failed)}", file=log)
    print(f"imports (s): {' '.join(f'{t:.4f}' for t in result['setup'])}", file=log)
    print(f"passes (s): {' '.join(f'{t:.4f}' for t in result['passes'])}", file=log)
    for name, seconds in result["job_s"].items():
        print(f"job {name!r}: median {seconds:.4f} s", file=log)
    for name, ok, detail in failed:
        print(f"FAILED {name}: {detail}", file=log)
    for name, m in shown.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}", file=log)
    metrics = result["layer"] if trace else result["e2e"]
    return {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": _with_units(metrics, layer_units if trace else e2e_units),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="minimum measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(SETUP_REPEATS), default="full",
                    help="smoke: reduced job lists for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (SRC / "chiralwalk" / "__init__.py").is_file():
        print(f"error: no chiralwalk sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
