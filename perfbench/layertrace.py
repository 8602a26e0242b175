"""Outside-in tracing of chiralwalk's layers.

While installed, every public function of the layer modules is replaced, in
every chiralwalk module namespace that binds it, by a wrapper that records a
span (name, start, end, parent, job).  No source file is edited, and
uninstalling restores the original objects.

`dispersion` functions are leaf calls made tens of thousands of times per
job, so they are aggregated into a call count, a point count and busy time
rather than recorded as spans.  That time stays inside the calling layer's
self time; `dispersion.share` therefore overlaps the other shares.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "chiralwalk"
LAYERS = ("dispersion", "fronts", "evolve", "hydro", "airy", "cli")
LEAF_LAYER = "dispersion"
SPAN_LAYERS = tuple(layer for layer in LAYERS if layer != LEAF_LAYER)

OBSERVABLES = {f"evolve.{n}" for n in (
    "probability_density", "current_density", "cumulative", "cumulative_moment",
    "position_moment", "skewness")}
HYDRO_GRID = {"hydro.compare_bulk", "hydro.scaling_curve"}
HYDRO_POINTS = {"hydro.scaled_cpd", "hydro.scaled_ccd", "hydro.scaled_moment"}
HYDRO_SCALAR = HYDRO_POINTS | {"hydro.nu_half"}
# arrays of L samples that one evolve() call allocates: q and w(q) (float64),
# the phase factors, the inverse FFT and its fftshift (complex128)
EVOLVE_BYTES_PER_SITE = 2 * 8 + 3 * 16
_RAISED = "_perfbench_raised_in"


def public_functions(module):
    """(name, function) for the callables a module defines and exports."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "error", "info")

    def __init__(self, name, start, parent, job):
        self.name, self.start, self.end = name, start, start
        self.parent, self.job = parent, job
        self.error = self.info = None


class Tracer:
    """Records spans while installed; `metrics` rolls them up per layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None  # id of the job whose calls are being recorded
        self.leaf_calls = 0
        self.leaf_points = 0
        self.leaf_busy = 0.0
        self.bytes_written = 0
        self.cache_info = None
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches = []

    # ------------------------------------------------------------ wrapping --

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in public_functions(module):
                wrap = self._leaf(fn) if layer == LEAF_LAYER else self._span(f"{layer}.{name}", fn)
                wrappers[id(fn)] = (fn, wrap)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()
        self.cache_info = sys.modules[f"{PACKAGE}.fronts"].cone_topology.cache_info()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # counted once, in the innermost span it left
                if not hasattr(exc, _RAISED):
                    setattr(exc, _RAISED, name)
                    span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(fn, args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf_busy += perf_counter() - start
                self._in_leaf = False
                self.leaf_calls += 1
                self.leaf_points += getattr(args[0], "size", 1) if args else 1

        return wrapper

    # -------------------------------------------------------------- rollup --

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def _outermost(self, names: set) -> list[Span]:
        """Spans named in `names` with no ancestor also named in `names`."""
        out = []
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                out.append(s)
        return out

    def _busy(self, names: set) -> float:
        return sum(s.end - s.start for s in self._outermost(names))

    def _count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def _under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        n = 0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            n += p >= 0
        return n

    def _errors(self, layer: str, kind: str | None = None) -> int:
        return sum(1 for s in self.spans if s.error and s.name.startswith(layer + ".")
                   and (kind is None or s.error == kind))

    def _nu_points(self) -> int:
        """nu values the hydro entry points were asked for, however computed."""
        n = 0
        for i, s in enumerate(self.spans):
            if s.name in HYDRO_POINTS:
                n += 1
            elif s.name == "hydro.scaling_curve":
                n += s.info
            elif s.name == "hydro.compare_bulk":
                # compare_bulk maps every site with n/t inside the cone,
                # widened by its margin; the lattice and the cone come from
                # its own evolve and cone_topology calls
                child = {c.name: c.info for c in self.spans[i + 1:] if c.parent == i}
                (v_lm, v_rm), lattice = child["fronts.cone_topology"], child["evolve.evolve"]
                t, margin = s.info
                nus = (np.arange(lattice) - lattice // 2) / t
                n += int(np.count_nonzero((nus >= v_lm - margin) & (nus <= v_rm + margin)))
        return n

    def metrics(self, solve_s: float) -> dict:
        """Per-layer metrics of one traced pass that took `solve_s` seconds.

        Busy time of entry points that some workload never calls is given
        as a share of `solve_s` (`*_busy_frac`), so an idle layer reads 0 as
        a fraction, not as a time that is identical in every run.
        """
        layer_self = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            layer_self[s.name.split(".")[0]] += t
        scans, gcs = self._count("fronts.find_extremal_fronts"), self._count("fronts.critical_coupling")
        evolves = [s for s in self.spans if s.name == "evolve.evolve"]
        sites = sum(s.info for s in evolves)
        evolve_busy = self._busy({"evolve.evolve"})
        hydro_grid, hydro_scalar = self._busy(HYDRO_GRID), self._busy(HYDRO_SCALAR)
        nu_points = self._nu_points()
        cli_jobs = sum(1 for s in self.spans if s.name == "cli.main" and s.parent < 0)
        lookups = self.cache_info.hits + self.cache_info.misses
        m = {
            "dispersion.calls": self.leaf_calls,
            "dispersion.points": self.leaf_points,
            "dispersion.points_per_call": self.leaf_points / self.leaf_calls if self.leaf_calls else 0.0,
            "dispersion.busy_s": self.leaf_busy,
            "fronts.scan_calls": scans,
            "fronts.scan_busy_s": self._busy({"fronts.find_extremal_fronts"}),
            "fronts.gc_calls": gcs,
            "fronts.gc_busy_frac": self._busy({"fronts.critical_coupling"}) / solve_s,
            "fronts.scans_per_gc": (self._under("fronts.find_extremal_fronts", "fronts.critical_coupling")
                                    / gcs if gcs else 0.0),
            "fronts.cone_cache_hit_ratio": self.cache_info.hits / lookups if lookups else 0.0,
            "fronts.errors": self._errors("fronts"),
            "evolve.calls": len(evolves),
            "evolve.sites": sites,
            "evolve.busy_frac": evolve_busy / solve_s,
            "evolve.sites_per_s": sites / evolve_busy if evolve_busy else 0.0,
            "evolve.observables_busy_frac": self._busy(OBSERVABLES) / solve_s,
            "evolve.bytes_computed": EVOLVE_BYTES_PER_SITE * sites,
            "evolve.guard_errors": self._errors("evolve", "GuardError"),
            "hydro.nu_points": nu_points,
            "hydro.invert_calls": self._count("hydro.invert_velocity"),
            "hydro.grid_busy_frac": hydro_grid / solve_s,
            "hydro.scalar_busy_frac": hydro_scalar / solve_s,
            "hydro.nu_per_s": nu_points / (hydro_grid + hydro_scalar) if nu_points else 0.0,
            "airy.quad_points": self._count("airy.generalized_airy"),
            "airy.table_busy_frac": self._busy({"airy.airy_table"}) / solve_s,
            "airy.measure_busy_frac": self._busy({"airy.measure_edge"}) / solve_s,
            "airy.staircase_busy_frac": self._busy({"airy.extract_staircase"}) / solve_s,
            "airy.steps_found": sum(s.info for s in self.spans if s.name == "airy.extract_staircase"),
            "cli.jobs": cli_jobs,
            "cli.bytes_written": self.bytes_written,
            "cli.evolve_per_job": self._under("evolve.evolve", "cli.main") / cli_jobs if cli_jobs else 0.0,
            "dispersion.share": self.leaf_busy / solve_s,
            "trace.solve_s": solve_s,
            "trace.spans": len(self.spans),
        }
        for layer in SPAN_LAYERS:
            m[f"{layer}.share"] = layer_self[layer] / solve_s
        return m

    def dump(self, path: Path) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent,
             "job": s.job, "error": s.error}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n")


def _compare_bulk_info(fn, args, kwargs, report):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return (report.t, bound.arguments["margin"])


# what a span keeps from its call, keyed by span name: (fn, args, kwargs, result) -> info
_INFO = {
    "evolve.evolve": lambda fn, args, kwargs, wf: wf.L,
    "fronts.cone_topology": lambda fn, args, kwargs, d: (d.v_lm, d.v_rm),
    "hydro.scaling_curve": lambda fn, args, kwargs, curve: len(curve.nu),
    "hydro.compare_bulk": _compare_bulk_info,
    "airy.extract_staircase": lambda fn, args, kwargs, steps: len(steps),
}
