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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import airy as airy_mod
from . import hydro as hydro_mod
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
    TOL_DEGEN,
    check_coupling,
    cone_topology,
    critical_coupling,
    degeneracy,
    edge_scale,
    scan_diagrams,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
MAX_GRID = 1 << 20  # nu points in bulk.csv; hydro peaks at ~0.42 kB per point, ~0.45 GB here
# (phi, g) points of a fronts sweep, all scanned in one batch: 2^16 of them
# (16 phi x 4096 g) took 4.3 s at a 125 MB ru_maxrss on a 2-core AVX-512 VM,
# where scanning point by point took 35 s at 93 MB; the batch holds every diagram
MAX_SWEEP = 1 << 16


class ConfigError(Exception):
    pass


def _cell(c) -> str:
    """One CSV field: strings quoted per RFC 4180 when they hold a separator,
    a quote or a line break, Python ints as written, numbers as %.17g."""
    if isinstance(c, str):
        return '"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\r\n') else c
    return str(c) if isinstance(c, int) else format(float(c), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write header and rows, each row through one format per cell-type tuple.

    A row whose text shows a separator, quote or line break beyond its own
    (a string cell that needs quoting, or a row that does not match the
    header) is written again cell by cell.
    """
    width = len(header)
    formats = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                cells = ("%s" if issubclass(t, (str, int)) else "%.17g" for t in types)
                fmt = formats[types] = ",".join(cells) + "\n"
            text = fmt % row
            if text.count(",") != width - 1 or text.count("\n") != 1 or '"' in text or "\r" in text:
                text = ",".join(map(_cell, row)) + "\n"
            fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _lattice(args):
    if args.lattice in (None, "auto"):
        return None
    try:
        return int(args.lattice)
    except ValueError as exc:
        raise ConfigError(f"--lattice must be an integer or 'auto', got {args.lattice!r}") from exc


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


# ----------------------------------------------------------------- evolve --

def cmd_evolve(args) -> int:
    p = WalkParams(args.g, args.phi)
    wf = evolve(p, args.t, _lattice(args))
    out = _outdir(args)
    prob = probability_density(wf)
    cur = current_density(wf)
    cpd = cumulative(prob)
    ccd = cumulative(cur)
    moments = [cumulative_moment(prob, k) for k in (1, 2, 3)]
    rows = zip(
        wf.sites,
        prob.values,
        cur.values,
        cpd.values,
        ccd.values,
        moments[0].values,
        moments[1].values,
        moments[2].values,
    )
    _write_csv(out / "density.csv", ["n", "p", "j", "Phi", "J", "M1", "M2", "M3"], rows)
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

def cmd_fronts(args) -> int:
    if not (math.isfinite(args.g_min) and math.isfinite(args.g_max)):
        raise ConfigError(f"g-min and g-max must be finite, got {args.g_min} and {args.g_max}")
    if args.g_steps < 1 or args.g_max < args.g_min:
        raise ConfigError("empty g range: need g-steps >= 1 and g-max >= g-min")
    if args.g_min < 0:
        raise ConfigError(f"g must be >= 0, got g-min={args.g_min}")
    check_coupling(args.g_max)
    phis = [args.phi] if not args.phi_list else [float(s) for s in args.phi_list.split(",")]
    for phi in phis:
        if not 0.0 <= phi <= PHI_MAX:
            raise ConfigError(f"phi {phi!r} outside the canonical window [0, pi/2]")
    if len(phis) * args.g_steps > MAX_SWEEP:
        raise ConfigError(
            f"a sweep of {len(phis)} phi x {args.g_steps} g-steps exceeds {MAX_SWEEP} points"
        )
    out = _outdir(args)
    gs = np.linspace(args.g_min, args.g_max, args.g_steps).tolist()
    rows = []
    points = [WalkParams(g, phi) for phi in phis for g in gs]
    for p, diagram in zip(points, scan_diagrams(points)):
        if isinstance(diagram, Exception):  # recorded per row, sweep continues
            rows.append((p.phi, p.g, "", "", "", "", "", f"error: {diagram}"))
        else:
            rows += [
                (p.phi, p.g, fr.q_star, fr.velocity, fr.order, fr.kappa, diagram.topology.value, "ok")
                for fr in diagram.fronts
            ]
    rows.sort(key=lambda r: (r[0], r[1], r[3] if isinstance(r[3], float) else math.inf))
    _write_csv(
        out / "fronts.csv",
        ["phi", "g", "q_star", "velocity", "order", "kappa", "topology", "status"],
        rows,
    )
    gc_entries = [{"phi": phi, "g_c": critical_coupling(phi)} for phi in phis]
    _write_json(out / "gc.json", {"critical_couplings": gc_entries})
    return EXIT_OK


# ---------------------------------------------------------------- scaling --

def cmd_scaling(args) -> int:
    p = WalkParams(args.g, args.phi)
    if not 2 <= args.grid <= MAX_GRID:
        raise ConfigError(f"grid must lie in [2, {MAX_GRID}], got {args.grid}")
    # first, so that windows covering every compared site end the run before any output
    report = hydro_mod.compare_bulk(p, args.t, exclusion=args.exclusion, lattice=_lattice(args))
    out = _outdir(args)
    num = report.numeric
    L = num["phi"].size
    curve = hydro_mod.scaling_curve(p, num=args.grid)
    # the site at or left of n = nu t, clamped to the ring
    at = np.clip(np.floor(curve.nu * args.t).astype(np.int64) + report.origin, 0, L - 1)
    rows = zip(
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
    _write_csv(
        out / "bulk.csv",
        [
            "nu",
            "Phi_num", "Phi_hydro",
            "J_num", "J_hydro",
            "M1_num", "M1_hydro",
            "M2_num", "M2_hydro",
            "M3_num", "M3_hydro",
        ],
        rows,
    )
    payload = {
        "g": p.g,
        "phi": p.phi,
        "t": args.t,
        "exclusion": report.exclusion,
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
        if abs(fr.velocity - diagram.v_lm) > TOL_DEGEN and abs(fr.velocity - diagram.v_rm) > TOL_DEGEN
    ]
    if not inner:
        raise ConfigError("no internal front at these couplings")
    if any(abs(fr.velocity - inner[0].velocity) > TOL_DEGEN for fr in inner):
        raise ConfigError(f"ambiguous internal front, velocities {[fr.velocity for fr in inner]}")
    return inner[0]


def cmd_edge(args) -> int:
    p = WalkParams(args.g, args.phi)
    if args.t <= 0:
        raise ConfigError("t must be > 0")
    if not 0.0 < args.xi_max <= airy_mod.XI_LIMIT:
        raise ConfigError(
            f"xi-max must be finite with 0 < xi-max <= {airy_mod.XI_LIMIT}, got {args.xi_max}"
        )
    if args.window is not None and args.window < 1:
        raise ConfigError(f"window must be >= 1 site, got {args.window}")
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
        "degeneracy": degeneracy(diagram, front),
    }
    if front.order % 2 == 0:
        meta["staircase"] = "none"
        meta["reason"] = "even-order front: amplitude equation has no real staircase"
        rows, stair_rows = [], [(args.front, "", "", "", "", "", "even-order front: no real staircase")]
    else:
        scale = edge_scale(front, args.t)
        if not 0.0 < scale < math.inf:  # |kappa| t underflows or overflows
            raise ConfigError(f"the edge scale at t={args.t} is {scale} sites, not a positive float")
        window = args.window if args.window is not None else int(math.ceil(args.xi_max * scale))
        usable = airy_mod.max_edge_window(front, args.t)
        if window > usable:
            raise ConfigError(
                f"a window of {window} sites reaches past |xi| = {airy_mod.XI_LIMIT} on the "
                f"predicted profile; the usable maximum is {usable} sites "
                f"(xi-max <= {math.floor(usable / scale * 1e3) / 1e3})"
            )
        meta["window"] = window
        # before any output, so that a window the ring or another front rules out ends the run
        numeric = airy_mod.measure_edge(p, front, args.t, window, _lattice(args))
        predicted = airy_mod.predict_edge(front, args.t, numeric.xi)
        factor = meta["degeneracy"]
        rows = zip(numeric.xi, numeric.dphi_scaled, factor * predicted.dphi_scaled, numeric.djs_scaled)
        stair_rows = [
            (args.front, obs, step.index, step.height, step.width, step.area, "")
            for obs in ("cpd", "ccd")
            for step in airy_mod.extract_staircase(numeric, observable=obs)
        ]
        if not stair_rows:
            stair_rows.append((args.front, "", "", "", "", "", "fewer than two detectable steps"))
    out = _outdir(args)
    _write_csv(out / "edge.csv", ["xi", "dPhi_scaled_num", "dPhi_scaled_pred", "dJ_scaled_num"], rows)
    _write_csv(
        out / "staircase.csv",
        ["front", "observable", "step_index", "height", "width", "area", "note"],
        stair_rows,
    )
    _write_json(out / "edge.json", meta)
    return EXIT_OK


# ------------------------------------------------------------------ parser --

def _add_common(sub, t_default=None):
    sub.add_argument("--g", type=float, required=True, help="NNN/NN coupling ratio, >= 0")
    sub.add_argument("--phi", type=float, default=math.pi / 2, help="NNN phase in [0, pi/2] (radians)")
    if t_default is not None:
        sub.add_argument("--t", type=float, default=t_default, help="evolution time")
    sub.add_argument("--lattice", default=None, help="ring size (even int) or 'auto'")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chiralwalk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common_tail(s):
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; every command, fronts included, runs in process")
        s.add_argument("--config", default=None, help="flat key=value config file; flags win")

    s = sub.add_parser("evolve", help="evolve and dump densities, currents, moments")
    _add_common(s, t_default=50.0)
    common_tail(s)
    s.set_defaults(func=cmd_evolve)

    s = sub.add_parser("fronts",
                       help="sweep the front diagram in g, find g_c (closed forms, no tolerances)")
    s.add_argument("--phi", type=float, default=math.pi / 2)
    s.add_argument("--phi-list", default=None, help="comma-separated phi values, sweep and g_c at each")
    s.add_argument("--g-min", type=float, default=0.01)
    s.add_argument("--g-max", type=float, default=0.5)
    s.add_argument("--g-steps", type=int, default=50,
                   help="g values per phi; at most 2^16 (phi, g) points in all")
    common_tail(s)
    s.set_defaults(func=cmd_fronts)

    s = sub.add_parser("scaling", help="bulk scaling comparison, numeric vs hydrodynamic")
    _add_common(s, t_default=2000.0)
    s.add_argument("--grid", type=int, default=4001, help="nu grid points for bulk.csv, 2 to 2^20")
    s.add_argument("--exclusion", type=float, help="front window half-width factor, >= 0")
    common_tail(s)
    s.set_defaults(func=cmd_scaling, exclusion=hydro_mod.DEFAULT_EXCLUSION)

    s = sub.add_parser("edge", help="edge profile and staircase at one front")
    _add_common(s, t_default=10000.0)
    s.add_argument("--front", choices=("left", "right", "internal"), default="left")
    s.add_argument("--window", type=int, default=None, help="sites around the front (default from --xi-max)")
    s.add_argument("--xi-max", type=float, default=13.5,
                   help="profile extent in the edge coordinate (13.5 reaches five staircase steps)")
    common_tail(s)
    s.set_defaults(func=cmd_edge)
    return ap


def _inject_config(argv: list[str]) -> list[str]:
    """Insert key=value pairs from --config FILE before the explicit flags."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config requires a file path")
    path = Path(argv[i + 1])
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    extra: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
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
            raise ConfigError(f"t must be finite, got {args.t}")
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"numerical guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    raise SystemExit(main())
