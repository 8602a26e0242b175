"""The library's input contract, walked over chiralwalk.__all__.

Every public callable has a row in ROWS: a call with cheap valid
arguments, and the domain of each numeric parameter.  Each parameter in
turn, with every other argument valid, is fed bools, None, NaN, +-inf, a
negative, a float where an integer belongs, a string, complex, Decimal, an
int too large for a float, and numpy scalars.  A value outside the domain
must raise ValueError naming the parameter and showing the value (or
GuardError for a ring above the size cap), a value inside it must run, and
no other exception, no warning and no large allocation may occur.
"""

import math
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiralwalk as cw
from chiralwalk import GuardError, WalkParams
from chiralwalk.hydro import MOMENT_G_MAX

Q_MAX = sys.float_info.max / 2.0  # |q| at most, so that 2q is a float
PI = math.pi
P = WalkParams(0.3, 0.8)
P_EDGE = WalkParams(1 / 16, PI / 2)  # one cone, clear fronts for the edge functions
FRONT = cw.cone_topology(P_EDGE).fronts[0]  # the left front, of order 1
FIELD = cw.probability_density(cw.evolve(P, 5.0))
# the largest peak that tracemalloc may see during one call of the walk: the
# biggest valid call, compare_bulk at t = 500, peaks at ~1.2 MB
PEAK_BYTES = 8 << 20


class Domain(NamedTuple):
    """kind: "real" (a scalar), "whole" (an integer), "array" (a scalar or an
    array of real numbers) or "pair" (a tuple or list of two integers that
    fit in a float, whose holds takes both); holds(x) is True for a valid
    value of that kind, False for a refused one, or GuardError for one above
    a size cap.  cheap: every valid value runs in milliseconds, so drawn
    values may be valid.  none: None is valid too."""

    kind: str
    holds: object
    cheap: bool = True
    none: bool = False


def finite(lo=-math.inf, hi=math.inf, above=False):
    return lambda x: math.isfinite(x) and lo <= x <= hi and not (above and x == lo)


def at_least(lo):
    return lambda x: x >= lo


def between(lo, hi=math.inf):
    return lambda n: lo <= n <= hi


def ring_time(above=False):
    # a valid t may give a ring above the size cap: the feeds' only t past
    # 1e12 is 1e20, whose ring is ~1e20 sites
    within = finite(0, above=above)
    return lambda t: within(t) and (GuardError if t > 1e12 else True)


def ring_sites(lo):
    # the same for a window of sites, an integer >= lo
    return lambda n: between(lo, sys.float_info.max)(n) and (GuardError if n > 1e12 else True)


def ascending(guarded):
    # sites (n1, n2) with n1 <= n2; on the automatic ring, sites past 1e12
    # give a ring above the size cap
    return lambda a, b: a <= b and (GuardError if guarded and max(-a, b) > 1e12 else True)


class Row(NamedTuple):
    call: object
    base: dict
    params: dict


def _scaling(g=0.3, nu=0.1):
    # the coupling inside p, so that the moments' bound on g has a row
    return cw.scaling_curve(WalkParams(g, 0.8), nu)


# one row per public callable; a row with no numeric parameter takes only
# typed objects (parameters, fronts, fields, wave functions, profiles), which
# the contract does not cover
ROWS = {
    "WalkParams": Row(WalkParams, {"g": 0.3, "phi": 0.8},
                      {"g": Domain("real", finite(0)), "phi": Domain("real", finite(0, PI / 2))}),
    "omega": Row(cw.omega, {"q": 0.1, "p": P}, {"q": Domain("array", finite(-Q_MAX, Q_MAX))}),
    "omega_deriv": Row(cw.omega_deriv, {"q": 0.1, "m": 2, "p": P},
                       {"q": Domain("array", finite(-Q_MAX, Q_MAX)), "m": Domain("whole", between(1, 1022))}),
    # a valid t may give a ring above the size cap (EXTRA_ROWS walks the sites)
    "evolve": Row(cw.evolve, {"p": P, "t": 5.0, "sites": None}, {
        "t": Domain("real", ring_time(), cheap=False),
    }),
    # a valid t or window of sites may give a ring above the size cap
    "ring_layout": Row(cw.ring_layout, {"p": P, "t": 5.0, "sites": (-3, 3)}, {
        "t": Domain("real", ring_time(), cheap=False),
        "sites": Domain("pair", ascending(True), cheap=False, none=True),
    }),
    "cumulative_moment": Row(cw.cumulative_moment, {"field": FIELD, "k": 2}, {"k": Domain("whole", between(0, 42))}),
    "position_moment": Row(cw.position_moment, {"field": FIELD, "k": 2}, {"k": Domain("whole", between(0, 42))}),
    "critical_coupling": Row(cw.critical_coupling, {"phi": 0.8}, {"phi": Domain("real", finite(0, PI / 2))}),
    "edge_scale": Row(cw.edge_scale, {"front": FRONT, "t": 5.0}, {"t": Domain("real", finite(0))}),
    "compare_bulk": Row(cw.compare_bulk, {"p": P_EDGE, "t": 500.0, "margin": 0.25}, {
        "t": Domain("real", ring_time(above=True), cheap=False),
        "margin": Domain("real", finite(0), cheap=False),
    }),
    "invert_velocity": Row(cw.invert_velocity, {"p": P, "nu": 0.1}, {"nu": Domain("real", at_least(-math.inf))}),
    "nu_half": Row(cw.nu_half, {"p": P, "tol": 1e-10}, {"tol": Domain("real", at_least(0))}),
    "scaling_curve": Row(_scaling, {"g": 0.3, "nu": 0.1}, {
        "g": Domain("real", finite(0, MOMENT_G_MAX)),
        "nu": Domain("array", lambda x: True),
    }),
    "airy_table": Row(cw.airy_table, {"k": 1, "xi": 0.5, "derivs": 1}, {
        "k": Domain("whole", lambda k: k in (1, 3)),
        "xi": Domain("array", finite(-50, 50)),
        "derivs": Domain("whole", between(0, 2)),
    }),
    "predict_edge": Row(cw.predict_edge, {"front": FRONT, "t": 100.0, "xi_grid": 0.5}, {
        "t": Domain("real", finite(0, above=True)),
        "xi_grid": Domain("array", finite(-50, 50)),
    }),
    "measure_edge": Row(cw.measure_edge, {"p": P_EDGE, "front": FRONT, "t": 50.0, "window": 3}, {
        "t": Domain("real", ring_time(above=True), cheap=False),
        "window": Domain("whole", ring_sites(1), cheap=False),
    }),
    **{name: Row(None, {}, {}) for name in (
        "cumulative", "probability_density", "current_density", "skewness", "cone_topology",
        "scan_fronts", "extract_staircase",
        "BulkReport", "ConeTopology", "EdgeProfile", "ExtremalFront", "FieldKind", "FrontDiagram",
        "FrontTable", "GuardError", "ObservableField", "ScalingCurve", "StaircaseStep", "WaveFunction",
    )},
}

# more rows of a public callable, for parameters that its row's base call
# does not walk: evolve's window of sites
EXTRA_ROWS = {
    "evolve_window": Row(cw.evolve, {"p": P, "t": 5.0, "sites": (-3, 3)}, {
        "sites": Domain("pair", ascending(True), cheap=False, none=True),
    }),
}
WALKED = {**ROWS, **EXTRA_ROWS}

# the values fed to every numeric parameter
FEEDS = [True, False, np.True_, None, math.nan, math.inf, -math.inf, -1, "1", b"1", 1j, 0.5 + 1j,
         Decimal("1"), 10**400, 10**20, [0.5, 10**20]]


def expected(domain: Domain, x):
    """True (runs), False (ValueError) or GuardError for x at a parameter of this domain."""
    if x is None:
        return domain.none
    if isinstance(x, (bool, np.bool_)):
        return False
    if domain.kind == "pair":
        if not (isinstance(x, (tuple, list)) and len(x) == 2):
            return False
        if any(isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) for n in x):
            return False
        a, b = (int(n) for n in x)
        return max(abs(a), abs(b)) <= sys.float_info.max and domain.holds(a, b)
    if domain.kind == "whole":
        return isinstance(x, (int, np.integer)) and domain.holds(int(x))
    if domain.kind == "array":
        values = np.asarray(x)
        # numpy makes objects of ints past 64 bits, and of a list holding one
        if values.dtype == object and all(type(v) in (int, float) for v in values.flat):
            try:
                values = values.astype(float)
            except OverflowError:  # an int too large for a float
                return False
        return values.dtype.kind in "iuf" and all(domain.holds(v) for v in values.ravel().tolist())
    if not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    try:
        return domain.holds(float(x))
    except OverflowError:  # an int too large for a float
        return False


def outcome(row: Row, name: str, x):
    """The exception a call raised, or None; a warning fails, and so does a large allocation."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                row.call(**{**row.base, name: x})
                got = None
            except (ValueError, GuardError) as exc:
                got = exc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES, (name, x, peak)
    return got


def check(row: Row, name: str, x):
    want = expected(row.params[name], x)
    got = outcome(row, name, x)
    if want is True:
        assert got is None, (name, x, got)
    elif want is GuardError:
        assert isinstance(got, GuardError), (name, x, got)
    else:
        assert type(got) is ValueError, (name, x, got)
        message = str(got)
        # names the parameter (or an entry of it) and shows the value (or the entry)
        named = re.match(rf"{name}(\[[\d, ]*\])? must be ", message)
        assert named, (name, x, message)
        if named.group(1):
            x = np.asarray(x, dtype=object)[tuple(int(i) for i in named.group(1)[1:-1].split(","))]
        assert message.endswith(f"={x!r}"), (name, x, message)


def test_every_public_callable_has_a_row():
    public = {name for name in cw.__all__ if callable(getattr(cw, name))}
    assert public == set(ROWS), (sorted(public - set(ROWS)), sorted(set(ROWS) - public))


@pytest.mark.parametrize("callable_name", sorted(name for name, row in WALKED.items() if row.params))
def test_contract_walk(callable_name):
    row = WALKED[callable_name]
    for name, domain in row.params.items():
        base = row.base[name]
        if domain.kind == "pair":
            # each feed as either end of the pair, the other end valid
            numpy_scalar = (np.int64(base[0]), np.int64(base[1]))
            feeds = [pair for x in FEEDS + [1.5, 3.0] for pair in ((base[0], x), (x, base[1]))]
        elif domain.kind == "whole":
            # floats where an integer belongs, integral or not
            numpy_scalar, feeds = np.int64(base), [1.5, float(base)]
        else:
            numpy_scalar, feeds = np.float64(base), []
        assert expected(domain, numpy_scalar) is True, (name, numpy_scalar)
        for x in FEEDS + feeds + [numpy_scalar]:
            check(row, name, x)


PARAMS = [(row_name, name) for row_name, row in sorted(WALKED.items()) for name in row.params]
ANY_VALUE = st.one_of(
    st.floats(),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.complex_numbers(),
    st.decimals(allow_nan=False),
    st.sampled_from([np.True_, np.float64(0.5), np.int64(3), np.float32(1.5)]),
)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(PARAMS), ANY_VALUE)
def test_drawn_values_keep_the_contract(param, x):
    # any value of any type at any numeric parameter; a valid value of a
    # parameter whose valid calls may be slow is skipped
    row_name, name = param
    row, domain = WALKED[row_name], WALKED[row_name].params[name]
    if expected(domain, x) is not False and not domain.cheap:
        return
    check(row, name, x)
