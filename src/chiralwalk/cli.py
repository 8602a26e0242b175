"""Command-line front end: evolutions, front sweeps, bulk and edge datasets.

Commands
    evolve   one evolution; density.csv + summary.json
    fronts   g sweep of the front diagram; fronts.csv + gc.json
    scaling  bulk scaling comparison; bulk.csv + bulk_report.json
    edge     edge profile and staircase; edge.csv + staircase.csv + edge.json

Outputs are deterministic: fixed 17-significant-digit formatting, LF line
endings, canonical row ordering, independent of --jobs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import airy as airy_mod
from . import hydro as hydro_mod
from ._g17 import rows_text
from .dispersion import PHI_MAX, WalkParams
from .evolve import (
    GuardError,
    cumulative,
    cumulative_moment,
    current_density,
    evolve,
    position_moment,
    probability_density,
    skewness,
)
from .fronts import (
    check_coupling,
    cone_topology,
    critical_coupling,
    edge_scale,
    same_velocity,
    scan_fronts,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
MAX_GRID = 1 << 20  # nu points in bulk.csv; hydro peaks at ~0.42 kB per point, ~0.45 GB here
# (phi, g) points of a fronts sweep, all scanned in one batch: 2^16 of them
# (16 phi x 4096 g in [0, 1]) took 0.9 s to fronts.csv at an 84 MB ru_maxrss
# on a 2-core AVX-512 VM, where scanning point by point took 8.5 s; the
# batch's table holds every front
MAX_SWEEP = 1 << 16
# rows per write of a numeric table (_write_columns): its float64 buffer and
# the text templates of _g17.rows_text peak at ~0.9 MB traced for 11 columns
# (~0.6 MB for 8, and twice that at 1024 rows); 256 to 4096 rows wrote
# bulk.csv within ~20% of each other on a 2-core VM, 128 rows 30% slower
CSV_BLOCK = 512


def _cell(c) -> str:
    """One CSV field: Python ints as written, other numbers as %.17g, strings
    quoted per RFC 4180 when they hold a separator, a quote or a line break."""
    if isinstance(c, numbers.Real):
        return str(c) if isinstance(c, int) else format(float(c), ".17g")
    return '"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\r\n') else c


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write header and rows, each cell through _cell."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_columns(path: Path, header: list[str], columns) -> None:
    """Write an all-numeric table given as equal-length columns, every cell %.17g.

    The same bytes as _write_csv on the numpy rows zip(*columns): each cell is
    %.17g of its float64 value.  CSV_BLOCK rows at a time are copied into one
    float64 buffer, spelled in numpy by _g17.rows_text and written by one
    write; %.17g never emits a separator, a quote or a line break, so no cell
    needs quoting.
    """
    size = len(columns[0])
    if len(columns) != len(header) or any(len(c) != size for c in columns):
        raise ValueError(f"{len(columns)} columns of lengths {[len(c) for c in columns]} "
                         f"do not fill a table of {len(header)} columns")
    block = np.empty((min(size, CSV_BLOCK), len(header)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, size, CSV_BLOCK):
            rows = min(size - start, CSV_BLOCK)
            for k, c in enumerate(columns):
                block[:rows, k] = c[start:start + rows]
            fh.write(rows_text(block[:rows]))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


# ----------------------------------------------------------------- evolve --

def cmd_evolve(args) -> int:
    p = WalkParams(args.g, args.phi)
    wf = evolve(p, args.t)
    out = _outdir(args)
    prob = probability_density(wf)
    cur = current_density(wf)
    cpd = cumulative(prob)
    ccd = cumulative(cur)
    moments = [cumulative_moment(prob, k) for k in (1, 2, 3)]
    columns = [wf.sites, prob.values, cur.values, cpd.values, ccd.values, *(m.values for m in moments)]
    _write_columns(out / "density.csv", ["n", "p", "j", "Phi", "J", "M1", "M2", "M3"], columns)
    diagram = cone_topology(p)
    mu = {f"mu{k}": position_moment(prob, k) for k in range(5)}
    try:
        gamma = skewness(prob)
    except ValueError:  # t = 0, or a t so small that mu_2^(3/2) underflows
        gamma = None
    summary = {
        "g": p.g,
        "phi": p.phi,
        "t": wf.t,
        "lattice": wf.L,
        "n_min": -wf.origin,
        "moments": mu,
        "gamma": gamma,
        "v_lm": diagram.v_lm,
        "v_rm": diagram.v_rm,
        "topology": diagram.topology.value,
        "fronts": [{**dataclasses.asdict(fr), "position": fr.velocity * wf.t} for fr in diagram.fronts],
    }
    _write_json(out / "summary.json", summary)
    return EXIT_OK


# ----------------------------------------------------------------- fronts --

def _write_fronts(path: Path, phi, g, table) -> None:
    """fronts.csv of a sweep from scan_fronts' table; phi and g are each point's couplings.

    One row per front, phi, g, q_star, velocity, order, kappa, topology, ok,
    sorted stably by (phi, g, velocity).  The six numbers of CSV_BLOCK rows
    at a time, order among them ('%.17g' % 1.0 is '1'), are spelled by
    _g17.rows_text, and each row's tail is appended to its line.  The bytes
    are those of _write_csv on the same rows.
    """
    at = table.point
    numbers = (phi[at], g[at], table.q_star, table.velocity, table.order, table.kappa)
    rows = np.lexsort((table.velocity, numbers[1], numbers[0]))  # by phi, then g, then velocity
    cells = np.stack(numbers, axis=1)
    ends = [f",{t.value},ok\n".encode() for t in table.topology]
    with open(path, "wb") as fh:
        fh.write(b"phi,g,q_star,velocity,order,kappa,topology,status\n")
        for start in range(0, rows.size, CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK]
            lines = rows_text(cells[block]).split(b"\n")
            fh.write(b"".join([line + ends[i] for line, i in zip(lines, at[block].tolist())]))


def cmd_fronts(args) -> int:
    if not (math.isfinite(args.g_min) and math.isfinite(args.g_max)):
        raise ValueError(f"g-min and g-max must be finite, got {args.g_min} and {args.g_max}")
    if args.g_steps < 1 or args.g_max < args.g_min:
        raise ValueError("empty g range: need g-steps >= 1 and g-max >= g-min")
    if args.g_min < 0:
        raise ValueError(f"g must be >= 0, got g-min={args.g_min}")
    check_coupling(args.g_max)
    try:
        phis = [float(s) for s in args.phi_list.split(",")]
    except ValueError:
        raise ValueError(f"--phi-list must be comma-separated numbers, got {args.phi_list!r}") from None
    for phi in phis:
        if not 0.0 <= phi <= PHI_MAX:
            raise ValueError(f"phi {phi!r} outside the canonical window [0, pi/2]")
    if len(phis) * args.g_steps > MAX_SWEEP:
        raise ValueError(
            f"a sweep of {len(phis)} phi x {args.g_steps} g-steps exceeds {MAX_SWEEP} points"
        )
    out = _outdir(args)
    gs = np.linspace(args.g_min, args.g_max, args.g_steps)
    table = scan_fronts([WalkParams(g, phi) for phi in phis for g in gs.tolist()])
    _write_fronts(out / "fronts.csv", np.repeat(phis, gs.size), np.tile(gs, len(phis)), table)
    gc_entries = [{"phi": phi, "g_c": critical_coupling(phi)} for phi in phis]
    _write_json(out / "gc.json", {"critical_couplings": gc_entries})
    return EXIT_OK


# ---------------------------------------------------------------- scaling --

def cmd_scaling(args) -> int:
    p = WalkParams(args.g, args.phi)
    if not 2 <= args.grid <= MAX_GRID:
        raise ValueError(f"grid must lie in [2, {MAX_GRID}], got {args.grid}")
    # first, so that windows covering every compared site end the run before any output
    report = hydro_mod.compare_bulk(p, args.t)
    out = _outdir(args)
    num = report.numeric
    L = num["phi"].size
    d = cone_topology(p)
    curve = hydro_mod.scaling_curve(p, np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, args.grid))
    # the site at or left of n = nu t, clamped to the ring
    at = np.clip(np.floor(curve.nu * args.t).astype(np.int64) + report.origin, 0, L - 1)
    columns = (
        curve.nu,
        num["phi"][at],
        curve.phi_scaled,
        num["j"][at],
        curve.j_scaled,
        num["m1"][at],
        curve.m_scaled[0],
        num["m2"][at],
        curve.m_scaled[1],
        num["m3"][at],
        curve.m_scaled[2],
    )
    _write_columns(
        out / "bulk.csv",
        [
            "nu",
            "Phi_num", "Phi_hydro",
            "J_num", "J_hydro",
            "M1_num", "M1_hydro",
            "M2_num", "M2_hydro",
            "M3_num", "M3_hydro",
        ],
        columns,
    )
    payload = {
        "g": p.g,
        "phi": p.phi,
        "t": args.t,
        "exclusion": hydro_mod.EXCLUSION,
        "windows": [{"velocity": v, "half_width": h} for v, h in report.windows],
        "deviations": {
            name: {
                "sup_outside": dev.sup_outside,
                "l1_outside": dev.l1_outside,
                "sup_inside": dev.sup_inside,
            }
            for name, dev in report.deviations.items()
        },
    }
    _write_json(out / "bulk_report.json", payload)
    return EXIT_OK


# ------------------------------------------------------------------- edge --

def _select_front(diagram, which: str):
    if which == "left":
        return next(fr for fr in diagram.fronts if fr.velocity == diagram.v_lm)
    if which == "right":
        return next(fr for fr in diagram.fronts if fr.velocity == diagram.v_rm)
    inner = [
        fr
        for fr in diagram.fronts
        if not (same_velocity(fr.velocity, diagram.v_lm) or same_velocity(fr.velocity, diagram.v_rm))
    ]
    if not inner:
        raise ValueError("no internal front at these couplings")
    if not all(same_velocity(fr.velocity, inner[0].velocity) for fr in inner):
        raise ValueError(f"ambiguous internal front, velocities {[fr.velocity for fr in inner]}")
    return inner[0]


def cmd_edge(args) -> int:
    p = WalkParams(args.g, args.phi)
    if args.t <= 0:
        raise ValueError("t must be > 0")
    if not 0.0 < args.xi_max <= airy_mod.XI_LIMIT:
        raise ValueError(
            f"xi-max must be finite with 0 < xi-max <= {airy_mod.XI_LIMIT}, got {args.xi_max}"
        )
    diagram = cone_topology(p)
    front = _select_front(diagram, args.front)
    meta = {
        "g": p.g,
        "phi": p.phi,
        "t": args.t,
        "front": args.front,
        "q_star": front.q_star,
        "velocity": front.velocity,
        "order": front.order,
        "kappa": front.kappa,
        "scaling_exponent": 1.0 / (front.order + 2),
        # the fronts sharing this front's velocity: 2 where cones overlap
        "degeneracy": sum(same_velocity(fr.velocity, front.velocity) for fr in diagram.fronts),
    }
    if front.order % 2 == 0:
        meta["staircase"] = "none"
        meta["reason"] = "even-order front: amplitude equation has no real staircase"
        columns, stair_rows = [()] * 4, [(args.front, "", "", "", "", "", "even-order front: no real staircase")]
    else:
        scale = edge_scale(front, args.t)
        if not 0.0 < scale < math.inf:  # |kappa| t underflows or overflows
            raise ValueError(f"the edge scale at t={args.t} is {scale} sites, not a positive float")
        window = int(math.ceil(args.xi_max * scale))
        usable = airy_mod.max_edge_window(front, args.t)
        if usable < 1:
            raise ValueError(
                f"the edge scale at t={args.t} is {scale:.3g} sites, too small for any "
                f"whole-site window within |xi| <= {airy_mod.XI_LIMIT}"
            )
        if window > usable:
            raise ValueError(
                f"a window of {window} sites reaches past |xi| = {airy_mod.XI_LIMIT} on the "
                f"predicted profile; the usable maximum is {usable} sites "
                f"(xi-max <= {math.floor(usable / scale * 1e3) / 1e3})"
            )
        meta["window"] = window
        # before any output, so that a window onto another front or a ring above the cap ends the run
        numeric = airy_mod.measure_edge(p, front, args.t, window)
        meta["lattice"] = numeric.lattice
        predicted = airy_mod.predict_edge(front, args.t, numeric.xi)
        factor = meta["degeneracy"]
        columns = (numeric.xi, numeric.dphi_scaled, factor * predicted.dphi_scaled, numeric.djs_scaled)
        stair_rows = [
            (args.front, obs, step.index, step.height, step.width, step.area, "")
            for obs in ("cpd", "ccd")
            for step in airy_mod.extract_staircase(numeric, observable=obs)
        ]
        if not stair_rows:
            stair_rows.append((args.front, "", "", "", "", "", "fewer than two detectable steps"))
    out = _outdir(args)
    _write_columns(out / "edge.csv", ["xi", "dPhi_scaled_num", "dPhi_scaled_pred", "dJ_scaled_num"], columns)
    _write_csv(
        out / "staircase.csv",
        ["front", "observable", "step_index", "height", "width", "area", "note"],
        stair_rows,
    )
    _write_json(out / "edge.json", meta)
    return EXIT_OK


# ------------------------------------------------------------------ parser --

def _add_common(sub, t_default: float):
    sub.add_argument("--g", type=float, required=True, help="NNN/NN coupling ratio, >= 0")
    sub.add_argument("--phi", type=float, default=math.pi / 2, help="NNN phase in [0, pi/2] (radians)")
    sub.add_argument("--t", type=float, default=t_default, help="evolution time")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="chiralwalk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common_tail(s):
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; every command, fronts included, runs in process")
        s.add_argument("--config", default=None, help="flat key=value config file; flags win")

    s = sub.add_parser("evolve", help="evolve and dump densities, currents, moments")
    _add_common(s, 50.0)
    common_tail(s)
    s.set_defaults(func=cmd_evolve)

    s = sub.add_parser("fronts",
                       help="sweep the front diagram in g, find g_c (closed forms, no tolerances)")
    s.add_argument("--phi-list", "--phi", dest="phi_list", default=repr(math.pi / 2),
                   help="one or more comma-separated phi values in [0, pi/2], sweep and g_c at each")
    s.add_argument("--g-min", type=float, default=0.01)
    s.add_argument("--g-max", type=float, default=0.5)
    s.add_argument("--g-steps", type=int, default=50,
                   help="g values per phi; at most 2^16 (phi, g) points in all")
    common_tail(s)
    s.set_defaults(func=cmd_fronts)

    s = sub.add_parser("scaling", help="bulk scaling comparison, numeric vs hydrodynamic")
    _add_common(s, 2000.0)
    s.add_argument("--grid", type=int, default=4001, help="nu grid points for bulk.csv, 2 to 2^20")
    common_tail(s)
    s.set_defaults(func=cmd_scaling)

    s = sub.add_parser("edge", help="edge profile and staircase at one front")
    _add_common(s, 10000.0)
    s.add_argument("--front", choices=("left", "right", "internal"), default="left")
    s.add_argument("--xi-max", type=float, default=13.5,
                   help="+-ceil(xi-max x edge scale) sites around the front (13.5 reaches five staircase steps)")
    common_tail(s)
    s.set_defaults(func=cmd_edge)
    return ap


def _inject_config(argv: list[str]) -> list[str]:
    """Insert key=value pairs from the --config FILE before the explicit flags.

    The file is the one the subcommand's parser binds to --config: the last
    of the tokens --c ... --config, which argparse takes as abbreviations,
    each followed by the path or joined to it by '='.
    """
    path = None
    for i, token in enumerate(argv[1:], 1):
        flag, joined, value = token.partition("=")
        if len(flag) > 2 and "--config".startswith(flag):
            if not joined:
                if i + 1 >= len(argv):
                    raise ValueError("--config requires a file path")
                value = argv[i + 1]
            path = Path(value)
    if path is None:
        return argv
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    extra: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        extra.extend([f"--{key.replace('_', '-')}", value])
    return argv[:1] + extra + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _inject_config(argv)
        args = ap.parse_args(argv)
        if not math.isfinite(getattr(args, "t", 0.0)):
            raise ValueError(f"t must be finite, got {args.t}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"numerical guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    raise SystemExit(main())
