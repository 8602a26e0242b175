"""The four benchmark workloads: each regenerates one of the paper's datasets.

A workload is a fixed list of jobs run back to back by one client, plus the
checks that decide whether the datasets they produced are correct.  Jobs go
through the package's public API or its CLI entry point, in process; the
only parallelism is the CLI's own `fronts --jobs 2` pool.

The seed only jitters free inputs inside ranges where every check was
verified to hold: the diagram g-grid offset and nu_half points, and the bulk
nu grid size.  Published-table jobs and the longtime couplings are fixed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import chiralwalk as cw
import reference as ref
from chiralwalk import cli

PI = math.pi


@dataclass(frozen=True)
class Job:
    """One timed unit of work and the untimed reduction of its output.

    `run` gets a fresh empty directory to write into.  `digest` turns what
    `run` returned into the small record the checks need, so large arrays
    are released before the next job starts.
    """

    name: str
    run: Callable[[Path], object]
    digest: Callable[[object], dict]


@dataclass(frozen=True)
class Workload:
    """Jobs in run order and `check`, which maps {job name: digest} to a
    list of (check name, passed, detail)."""

    name: str
    jobs: list
    check: Callable[[dict], list]
    inputs: dict
    # names of the `fronts --jobs 1` and `--jobs 2` jobs, where both are run
    parallel_pair: tuple | None = None


class JobError(RuntimeError):
    """A CLI job exited with a non-zero code."""


def _cli_job(name: str, argv: list, digest: Callable[[Path], dict]) -> Job:
    def run(out: Path) -> Path:
        rc = cli.main(argv + ["--out", str(out)])
        if rc != 0:
            raise JobError(f"chiralwalk {argv[0]} exited with code {rc}")
        return out

    return Job(name, run, digest)


def _read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------- bulk --

def _bulk_digest(out: Path) -> dict:
    report = json.loads((out / "bulk_report.json").read_text())
    _, rows = _read_csv(out / "bulk.csv")
    values = np.array(rows, dtype=float)
    return {
        "deviations": report["deviations"],
        "rows": len(rows),
        "finite": bool(np.isfinite(values).all()),
    }


def bulk(rng: random.Random, smoke: bool) -> Workload:
    t = 300.0 if smoke else ref.BULK_T
    grid = 401 if smoke else 4001 + rng.randint(-10, 10)
    couplings = ref.BULK_COUPLINGS[:1] if smoke else ref.BULK_COUPLINGS
    jobs = [
        _cli_job(
            f"scaling g={g:g}",
            ["scaling", "--g", repr(g), "--phi", repr(PI / 2), "--t", repr(t), "--grid", str(grid)],
            _bulk_digest,
        )
        for g in couplings
    ]

    def check(digests: dict) -> list:
        out = []
        for job in jobs:
            d = digests[job.name]
            out.append((f"{job.name}: bulk.csv has {grid} finite rows",
                        d["rows"] == grid and d["finite"], f"rows={d['rows']}"))
            for obs in ref.BULK_OBSERVABLES:
                dev = d["deviations"][obs]
                out.append((f"{job.name}: {obs} sup_outside < {ref.BULK_SUP_OUTSIDE}",
                            dev["sup_outside"] < ref.BULK_SUP_OUTSIDE, f"{dev['sup_outside']:.3e}"))
                out.append((f"{job.name}: {obs} sup_inside > sup_outside",
                            dev["sup_inside"] > dev["sup_outside"],
                            f"{dev['sup_inside']:.3e} vs {dev['sup_outside']:.3e}"))
        return out

    return Workload("bulk", jobs, check, {"t": t, "grid": grid, "g": list(couplings)})


# ------------------------------------------------------------------- edge --

def _edge_digest(out: Path) -> dict:
    meta = json.loads((out / "edge.json").read_text())
    header, rows = _read_csv(out / "staircase.csv")
    col = {name: i for i, name in enumerate(header)}
    areas = {"cpd": [], "ccd": []}
    for row in rows:
        if row[col["observable"]] in areas:
            areas[row[col["observable"]]].append(float(row[col["area"]]))
    return {"order": meta["order"], "degeneracy": meta["degeneracy"], "areas": areas}


def _max_diff(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _staircase_checks(areas: dict) -> list:
    """Acceptance 7d on the rows present; areas[(row, obs)] holds the first steps."""
    out = []
    for key in ref.CLEAN_ROWS:
        if key in areas:
            diff = _max_diff(areas[key], ref.STEP_AREAS[key])
            out.append((f"edge {key}: areas within {ref.CLEAN_TOL} of the table",
                        diff < ref.CLEAN_TOL, f"max diff {diff:.4f}"))
    single = ref.DEGENERATE_SINGLE_ROW
    for obs in ("cpd", "ccd"):
        key, single_key = (ref.DEGENERATE_ROW, obs), (single, obs)
        if key in areas and single_key in areas:
            diff = _max_diff(areas[key], areas[single_key])
            out.append((f"edge {key}: halved areas within {ref.DEGENERATE_TOL} of {single}",
                        diff < ref.DEGENERATE_TOL, f"max diff {diff:.4f}"))
    key = (ref.DEGENERATE_ROW, "cpd")
    if key in areas:
        diff = _max_diff(areas[key], ref.STEP_AREAS[key])
        out.append((f"edge {key}: halved areas within {ref.DEGENERATE_TOL} of the table",
                    diff < ref.DEGENERATE_TOL, f"max diff {diff:.4f}"))
    for key in ref.NOISY_ROWS:
        if key in areas:
            a = areas[key]
            spread = (max(a) - min(a)) / float(np.mean(a))
            shift = abs(float(np.mean(a)) - float(np.mean(ref.STEP_AREAS[key])))
            out.append((f"edge {key}: area spread < {ref.NOISY_SPREAD}",
                        spread < ref.NOISY_SPREAD, f"spread {spread:.4f}"))
            out.append((f"edge {key}: mean area within {ref.NOISY_MEAN_TOL} of the table",
                        shift < ref.NOISY_MEAN_TOL, f"shift {shift:.4f}"))
    return out


def edge(rng: random.Random, smoke: bool) -> Workload:
    rows = ["g116_left"] if smoke else list(ref.EDGE_ROWS)
    jobs = []
    for row in rows:
        g, front, xi_max, _ = ref.EDGE_ROWS[row]
        argv = ["edge", "--g", repr(g), "--phi", repr(PI / 2), "--t", repr(ref.EDGE_T),
                "--front", front, "--xi-max", repr(xi_max)]
        jobs.append(_cli_job(row, argv, _edge_digest))

    def check(digests: dict) -> list:
        out, areas = [], {}
        for row in rows:
            d = digests[row]
            order = ref.EDGE_ROWS[row][3]
            out.append((f"edge {row}: front order {order}", d["order"] == order, f"order={d['order']}"))
            factor = 1
            if row == ref.DEGENERATE_ROW:
                factor = ref.DEGENERATE_FACTOR
                out.append((f"edge {row}: degeneracy {factor}", d["degeneracy"] == factor,
                            f"degeneracy={d['degeneracy']}"))
            for obs in ("cpd", "ccd"):
                found = d["areas"][obs]
                ok = len(found) >= ref.STEPS_COMPARED
                out.append((f"edge {row} {obs}: at least {ref.STEPS_COMPARED} steps", ok,
                            f"{len(found)} steps"))
                if ok:
                    areas[(row, obs)] = [a / factor for a in found[: ref.STEPS_COMPARED]]
        return out + _staircase_checks(areas)

    return Workload("edge", jobs, check, {"t": ref.EDGE_T, "rows": rows})


# --------------------------------------------------------------- longtime --

def _longtime_job(g: float, phi: float, t: float) -> Job:
    def run(out: Path) -> dict:
        wf = cw.evolve(cw.WalkParams(g, phi), t)
        prob = cw.probability_density(wf)
        cur = cw.current_density(wf)
        fields = [cw.cumulative(prob), cw.cumulative(cur)]
        fields += [cw.cumulative_moment(prob, k) for k in (1, 2, 3)]
        mu = [cw.position_moment(prob, k) for k in range(5)]
        return {"current": cur, "fields": fields, "mu": mu, "gamma": cw.skewness(prob)}

    def digest(value: dict) -> dict:
        return {"mu": value["mu"], "gamma": value["gamma"],
                "total_current": math.fsum(value["current"].values)}

    return Job(f"evolve t={t:g}", run, digest)


def longtime(rng: random.Random, smoke: bool) -> Workload:
    # Couplings and times are fixed where the wraparound guard was verified
    # to hold.  auto_lattice_size leaves too thin an Airy-tail margin
    # elsewhere: (0.3, 0.8) itself trips the guard at t = 1e3 and 1e4, and
    # so does (0.302, 0.8168) at t = 3e5.
    g, phi = 0.3, 0.8
    times = (1e5,) if smoke else (1e5, 3e5, 1e6)
    jobs = [_longtime_job(g, phi, t) for t in times]

    def check(digests: dict) -> list:
        out = []
        for job, t in zip(jobs, times):
            d = digests[job.name]
            mu = d["mu"]
            for k, closed in ((2, ref.mu2), (3, ref.mu3), (4, ref.mu4)):
                want = closed(g, phi, t)
                rel = abs(mu[k] / want - 1.0)
                out.append((f"{job.name}: mu{k} within rel {ref.MOMENT_REL}", rel < ref.MOMENT_REL,
                            f"rel {rel:.2e}"))
            rel = abs(d["gamma"] / ref.skewness(g, phi) - 1.0)
            out.append((f"{job.name}: skewness within rel {ref.MOMENT_REL}", rel < ref.MOMENT_REL,
                        f"rel {rel:.2e}"))
            defect = abs(mu[0] - 1.0)
            out.append((f"{job.name}: normalisation within {ref.NORM_TOL}", defect < ref.NORM_TOL,
                        f"{defect:.2e}"))
            total = abs(d["total_current"])
            out.append((f"{job.name}: total current within {ref.CURRENT_TOL}", total < ref.CURRENT_TOL,
                        f"{total:.2e}"))
        return out

    return Workload("longtime", jobs, check, {"g": g, "phi": phi, "t": list(times)})


# ---------------------------------------------------------------- diagram --

def _fronts_digest(out: Path) -> dict:
    raw = (out / "fronts.csv").read_bytes()
    header, rows = _read_csv(out / "fronts.csv")
    col = {name: i for i, name in enumerate(header)}
    counts, statuses = {}, []
    for row in rows:
        key = (float(row[col["phi"]]), float(row[col["g"]]))
        counts[key] = counts.get(key, 0) + 1
        statuses.append(row[col["status"]])
    gc = json.loads((out / "gc.json").read_text())["critical_couplings"]
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "front_counts": counts,
        "errors": [s for s in statuses if s != "ok"],
        "gc": {entry["phi"]: entry["g_c"] for entry in gc},
    }


def _brute_force_cpd(g: float, phi: float, nu: float) -> float:
    """Phi(nu) as the share of uniform wave vectors with v(q) <= nu."""
    n = ref.NU_HALF_SAMPLES
    q = (np.arange(n) + 0.5) * (2.0 * PI / n)
    v = -2.0 * np.sin(q) - 4.0 * g * np.sin(2.0 * q + phi)
    return float(np.count_nonzero(v <= nu)) / n


def diagram(rng: random.Random, smoke: bool) -> Workload:
    phis = [0.0, PI / 2] if smoke else list(ref.GC_PUBLISHED)
    offset = rng.uniform(0.0, 0.004)
    g_min, g_max, g_steps = 0.02 + offset, 0.30 + offset, (9 if smoke else 57)
    argv = ["fronts", "--phi-list", ",".join(repr(p) for p in phis),
            "--g-min", repr(g_min), "--g-max", repr(g_max), "--g-steps", str(g_steps)]
    # g = 0.1 lies below and g = 0.35 above every g_c(phi), so no nu_half
    # point sits on the Lifshitz line
    centres = [(g0, p0) for g0 in (0.05, 0.1, 0.35) for p0 in (0.2, 0.8, 1.4)]
    points = [(g0 + rng.uniform(-0.01, 0.01), p0 + rng.uniform(-0.05, 0.05)) for g0, p0 in centres]
    if smoke:
        points = points[::4]

    def nu_half_run(out: Path) -> list:
        return [cw.nu_half(cw.WalkParams(g, phi)) for g, phi in points]

    jobs = [
        _cli_job("fronts --jobs 1", argv + ["--jobs", "1"], _fronts_digest),
        _cli_job("fronts --jobs 2", argv + ["--jobs", "2"], _fronts_digest),
        Job("nu_half grid", nu_half_run, lambda values: {"nu_half": values}),
    ]

    def check(digests: dict) -> list:
        one, two = digests["fronts --jobs 1"], digests["fronts --jobs 2"]
        out = [("diagram: fronts.csv byte-identical for --jobs 1 and 2",
                one["sha256"] == two["sha256"], f"{one['sha256'][:12]} vs {two['sha256'][:12]}"),
               ("diagram: every sweep row ok", not one["errors"], "; ".join(one["errors"][:3]))]
        for phi in phis:
            want = ref.GC_PUBLISHED[phi]
            got = one["gc"].get(phi)
            ok = got is not None and abs(got - want) < ref.GC_TOL
            out.append((f"diagram: g_c(phi={phi:.4f}) within {ref.GC_TOL} of {want}", ok, f"g_c={got}"))
            wrong = [g for (p, g), n in one["front_counts"].items()
                     if p == phi and abs(g - want) > 2 * ref.GC_TOL and n != (2 if g < want else 4)]
            out.append((f"diagram: front counts at phi={phi:.4f} match the side of g_c", not wrong,
                        f"wrong at g={wrong[:3]}"))
        for (g, phi), nu in zip(points, digests["nu_half grid"]["nu_half"]):
            defect = abs(_brute_force_cpd(g, phi, nu) - 0.5)
            out.append((f"diagram: Phi(nu_half) = 1/2 at g={g:.4f}, phi={phi:.4f}",
                        defect <= ref.NU_HALF_TOL, f"defect {defect:.2e}"))
        return out

    inputs = {"phis": phis, "g_min": g_min, "g_max": g_max, "g_steps": g_steps, "nu_half_points": points}
    return Workload("diagram", jobs, check, inputs,
                    parallel_pair=("fronts --jobs 1", "fronts --jobs 2"))


WORKLOADS = {"bulk": bulk, "edge": edge, "longtime": longtime, "diagram": diagram}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's jobs and checks, with free inputs drawn from `seed`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), smoke)
