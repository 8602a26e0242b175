import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiralwalk import (
    ConeTopology,
    WalkParams,
    fronts,
    hydro,
    compare_bulk,
    cone_topology,
    critical_coupling,
    cumulative,
    cumulative_moment,
    current_density,
    evolve,
    invert_velocity,
    nu_half,
    omega_deriv,
    probability_density,
    ring_layout,
    scaling_curve,
)
from chiralwalk.hydro import MOMENT_G_MAX

from oracles import bisected_sublevel, brute_force_cpd, gauss_legendre_moment, sublevel_intervals

PI = math.pi
SUBLEVEL_COUPLINGS = [(1 / 16, PI / 2), (1 / 4, PI / 2), (1 / 8, PI / 2), (1 / 4, 0.0),
                      (0.0, 0.0), (10.0, 1.0), (0.3, 0.8), (0.05, 0.2)]


# nu_half(p) at the default tol from the scalar bisection on Phi that the
# vectorised grid rounds replaced
NU_HALF_BISECTED = [
    ((0.05, 0.2), -0.03973386618748785),
    ((0.05, 0.8), -0.14347121817845693),
    ((0.05, 1.4), -0.1970899459834318),
    ((0.1, 0.2), -0.07946773233378973),
    ((0.1, 0.8), -0.28694243637267425),
    ((0.1, 1.4), -0.39417989200839765),
    ((0.35, 0.2), -0.1419066648664704),
    ((0.35, 0.8), -0.5123972077502083),
    ((0.35, 1.4), -0.7038926642886847),
    ((0.125, PI / 2), -0.5000000000291038),
    ((0.25, 0.0), -3.7806984784449975e-11),
]


def test_nu_half_matches_bisection():
    for (g, phi), want in NU_HALF_BISECTED:
        p = WalkParams(g, phi)
        got = nu_half(p)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-10
        # the tol contract: Phi crosses 1/2 within tol / 2 of the answer
        below, above = scaling_curve(p, [got - 5e-11, got + 5e-11]).phi_scaled
        assert below < 0.5 <= above
    p = WalkParams(0.3, 0.8)
    coarse = nu_half(p, tol=1e-3)
    below, above = scaling_curve(p, [coarse - 5e-4, coarse + 5e-4]).phi_scaled
    assert below < 0.5 <= above
    # a tol below the float spacing stops at adjacent floats instead of looping
    assert abs(nu_half(p, tol=0.0) - nu_half(p)) <= 5e-11


def test_nu_half_is_the_exact_one_cone_median():
    # v(q + pi) - v(q) = 4 sin q, so in the one-cone phase the level set of
    # nu = v(0) = -4 g sin(phi) is exactly {0, pi}: Phi(-4 g sin(phi)) = 1/2
    for phi in np.linspace(0.0, PI / 2, 13).tolist():
        for g in np.linspace(0.0, 0.999 * critical_coupling(phi), 9).tolist():
            p = WalkParams(g, phi)
            assert cone_topology(p).topology is ConeTopology.ONE_CONE, (g, phi)
            median = -4.0 * g * math.sin(phi)
            assert abs(nu_half(p) - median) <= 1e-10, (g, phi)
            assert abs(scaling_curve(p, median).phi_scaled[0] - 0.5) <= 1e-15, (g, phi)


def test_one_cone_nu_half_needs_no_front_scan(monkeypatch):
    # the closed-form phase says one cone, so no quartic is solved
    def no_scan(points):
        raise AssertionError("scan_fronts called")

    monkeypatch.setattr(fronts, "scan_fronts", no_scan)
    fronts.cone_topology.cache_clear()
    for phi in np.linspace(0.0, PI / 2, 7).tolist():
        for g in np.linspace(0.0, 0.999 * critical_coupling(phi), 5).tolist():
            got = nu_half(WalkParams(g, phi))
            assert got == -4.0 * g * math.sin(phi), (g, phi)
            assert type(got) is float


@pytest.mark.parametrize("phi", [0.2, 0.8, 1.4])
def test_nu_half_starts_from_the_branch_table(monkeypatch, phi):
    # the two-cone centres of the benchmark's nu_half grid: Newton from the
    # table's crossing settles them in at most three two-point solves, where
    # a start at -4g sin(phi), the one-cone answer, took 5 to 11
    calls = []
    original = hydro._bulk

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(hydro, "_bulk", counted)
    p = WalkParams(0.35, phi)
    x = nu_half(p)
    assert len(calls) <= 3, calls
    assert type(x) is float
    assert_nu_half_certified(p, x, 1e-10)
    want = dict(NU_HALF_BISECTED)[(0.35, phi)]
    assert abs(x - want) <= 5e-11
    # tol = 0 still ends at adjacent floats, the float where Phi reaches 1/2
    exact = nu_half(p, tol=0.0)
    assert_nu_half_certified(p, exact, 0.0)
    assert abs(exact - x) <= 5e-11


def test_bool_arguments_are_refused():
    # each ran at 1: tol = 1, and nu = 1 for invert_velocity and scaling_curve
    p = WalkParams(0.3, 0.8)
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match=re.escape(f"tol must be a real number in [0, inf], got tol={flag!r}")):
            nu_half(p, tol=flag)
        with pytest.raises(ValueError, match=re.escape(f"nu must be a real number in [-inf, inf], got nu={flag!r}")):
            invert_velocity(p, flag)
        with pytest.raises(ValueError, match=re.escape(f"nu must be real numbers, got nu={flag!r}")):
            scaling_curve(p, flag)
    with pytest.raises(ValueError, match=re.escape("nu must be real numbers, got nu=array([ True, False])")):
        scaling_curve(p, np.array([True, False]))
    # numbers still pass, numpy scalars and integers too
    assert invert_velocity(p, np.float64(0.1)) == invert_velocity(p, 0.1)
    assert scaling_curve(p, 1).phi_scaled[0] == scaling_curve(p, 1.0).phi_scaled[0]


@pytest.mark.parametrize("tol", [math.nan, -1e-10, -math.inf])
def test_nu_half_refuses_a_tol_below_zero(tol):
    # a NaN tol ended the bracketing at once and returned the cone's midpoint
    with pytest.raises(ValueError, match=re.escape(f"tol must be a real number in [0, inf], got tol={tol!r}")):
        nu_half(WalkParams(0.3, 0.8), tol=tol)


NU_HALF_TOLS = [0.0, 1e-12, 1e-10, 1e-3, math.inf]
TWO_CONES = (ConeTopology.TWO_NESTED_CONES, ConeTopology.TWO_OVERLAPPING_CONES)


def assert_nu_half_certified(p, x, tol):
    # Phi crosses 1/2 within tol / 2 of x; below the float spacing, x is
    # the float where Phi reaches 1/2 and its predecessor lies below
    d = cone_topology(p)
    assert d.v_lm <= x <= d.v_rm, (p, tol, x)
    if p.phi == 0.0 and tol == 0.0:
        # v(-q) = -v(q) puts the median exactly at 0, where the computed Phi
        # rounds to 1/2 on both neighbouring floats: nu_half returns it, and
        # test_nu_half_at_phi_zero_is_exact certifies it by brute force
        assert x == 0.0, (p, x)
        return
    below = min(x - 0.5 * tol, math.nextafter(x, -math.inf))
    phi_below, phi_above = scaling_curve(p, [below, x + 0.5 * tol]).phi_scaled
    assert phi_below < 0.5 <= phi_above, (p, tol, x)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.floats(0.0, PI / 2),
    st.floats(1e-3, 20.0),
    st.sampled_from(NU_HALF_TOLS),
)
def test_nu_half_is_certified_in_the_two_cone_phase(phi, above_gc, tol):
    p = WalkParams(critical_coupling(phi) * (1.0 + above_gc), phi)
    assume(cone_topology(p).topology in TWO_CONES)
    assert_nu_half_certified(p, nu_half(p, tol=tol), tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("phi", [0.0, 0.3, 0.8, PI / 2])
def test_nu_half_at_the_critical_coupling(phi):
    # w'' has a double or triple root at a front: rho diverges at its velocity
    p = WalkParams(critical_coupling(phi), phi)
    for tol in NU_HALF_TOLS:
        assert_nu_half_certified(p, nu_half(p, tol=tol), tol)


def density_points(p):
    """nu across the cone, each at least 2% of the cone's width from every front."""
    d = cone_topology(p)
    nu = np.linspace(d.v_lm, d.v_rm, 41)[1:-1]
    gap = 0.02 * (d.v_rm - d.v_lm)
    return [x for x in nu.tolist() if min(abs(x - fr.velocity) for fr in d.fronts) > gap]


@pytest.mark.parametrize("g, phi", SUBLEVEL_COUPLINGS)
def test_scaled_density_is_the_slope_of_phi(g, phi):
    # a centred difference of Phi: truncation O(h^2 rho'') and the roots'
    # float noise over 2h, both far below the bound away from the fronts
    p = WalkParams(g, phi)
    h = 1e-5
    points = np.array(density_points(p))
    assert len(points) >= 20
    rho = scaling_curve(p, points).rho
    slope = (scaling_curve(p, points + h).phi_scaled - scaling_curve(p, points - h).phi_scaled) / (2.0 * h)
    bad = np.abs(slope - rho) > 1e-6 * rho + 1e-9
    assert not bad.any(), (g, phi, points[bad], slope[bad], rho[bad])
    for nu, want in zip(points.tolist(), rho.tolist()):
        # the same roots, summed in another order
        roots = invert_velocity(p, nu)
        by_root = sum(1.0 / abs(omega_deriv(q, 2, p)) for q in roots) / (2.0 * PI)
        assert abs(by_root - want) <= 1e-12 * want, (g, phi, nu)


def test_scaled_density_outside_the_cone_and_at_nan():
    p = WalkParams(0.3, 0.8)
    d = cone_topology(p)
    left, right, nan = scaling_curve(p, [d.v_lm - 0.1, d.v_rm + 0.1, math.nan]).rho
    assert left == 0.0
    assert right == 0.0
    assert math.isnan(nan)
    # the free walk's roots of v = 0, q = 0 and pi, both have |w''| = 2
    free = scaling_curve(WalkParams(0.0, 0.0), 0.0).rho[0]
    assert free == pytest.approx(1.0 / (2.0 * PI), abs=1e-15)


@pytest.mark.parametrize("query", [invert_velocity])
@pytest.mark.parametrize("nu", [np.array([0.1, 0.2]), np.array([0.1]), [0.1, 0.2]])
def test_scalar_queries_refuse_an_array_nu(query, nu):
    # invert_velocity returned the roots of every entry merged into one list
    with pytest.raises(ValueError, match=re.escape(f"nu must be a real number in [-inf, inf], got nu={nu!r}")):
        query(WalkParams(0.3, 0.8), nu)
    assert query(WalkParams(0.3, 0.8), np.float64(0.1)) == query(WalkParams(0.3, 0.8), 0.1)


@pytest.mark.parametrize("g, phi", SUBLEVEL_COUPLINGS)
def test_scaling_curve_takes_a_scalar_and_refuses_a_2d_nu(g, phi):
    # a scalar nu is a one-point curve with the bits of its entry in an
    # array: inside and outside the cone, at every front velocity and at NaN
    p = WalkParams(g, phi)
    d = cone_topology(p)
    nu = [math.nan, d.v_lm - 0.1, 0.5 * (d.v_lm + d.v_rm), d.v_rm + 0.1]
    nu += [fr.velocity for fr in d.fronts]
    row = scaling_curve(p, nu)
    for i, x in enumerate(nu):
        for one in (scaling_curve(p, x), scaling_curve(p, np.float64(x)), scaling_curve(p, np.array(x))):
            assert one.nu.shape == (1,)
            for got, want in zip(
                (one.phi_scaled, one.j_scaled, one.rho, *one.m_scaled),
                (row.phi_scaled, row.j_scaled, row.rho, *row.m_scaled),
            ):
                assert got.shape == (1,) and np.array_equal(got[0], want[i], equal_nan=True), (x, i)
    for bad in ([nu, nu], np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match=r"nu must be a scalar or a 1-D array, got an array of shape \(2, "):
            scaling_curve(p, bad)


def test_invert_velocity_counts():
    p0 = WalkParams(0.0, PI / 2)
    assert invert_velocity(p0, 3.0) == []
    # +-inf lie outside the cone; NaN, which returned [] as well, is refused
    assert invert_velocity(p0, math.inf) == invert_velocity(p0, -math.inf) == []
    for nan in (math.nan, np.float64(math.nan)):
        with pytest.raises(ValueError, match=re.escape(f"nu must be a real number in [-inf, inf], got nu={nan!r}")):
            invert_velocity(WalkParams(0.3, 0.8), nan)
    roots = invert_velocity(p0, 0.0)
    assert len(roots) == 2
    np.testing.assert_allclose(sorted(roots), [-PI, 0.0], atol=1e-10)

    p = WalkParams(0.25, PI / 2)
    roots = invert_velocity(p, -1.45)  # just above the degenerate v_lm = -1.5
    assert len(roots) == 4
    q3 = math.asin(0.5)
    near = sorted(abs(r - q) for q in (q3, PI - q3) for r in roots)[:2]
    assert max(near) < 0.35


def test_scaled_cpd_boundaries_and_symmetry():
    p = WalkParams(1 / 16, PI / 2)
    d = cone_topology(p)
    below, above, origin = scaling_curve(p, [d.v_lm - 0.2, d.v_rm + 0.2, 0.0]).phi_scaled
    assert below == 0.0
    assert above == 1.0
    assert scaling_curve(WalkParams(0.0, PI / 2), 0.0).phi_scaled[0] == pytest.approx(0.5, abs=1e-12)
    # chiral drift: probability piles up near the left front, so the median
    # (half-probability coordinate) sits left of the origin and Phi(0) > 1/2
    assert origin > 0.5
    assert nu_half(p) < 0.0
    assert nu_half(WalkParams(0.0, PI / 2)) == pytest.approx(0.0, abs=1e-8)
    # exactly empty and exactly full at the cone edges, also where the edge
    # front is third order (flat quartic extremum) or the cone is critical
    for p in (WalkParams(1 / 8, PI / 2), WalkParams(1 / 4, 0.0)):
        d = cone_topology(p)
        empty, full = scaling_curve(p, [d.v_lm, d.v_rm]).phi_scaled
        assert empty == 0.0
        assert full == 1.0


def test_scaled_cpd_near_fronts_matches_brute_force():
    # root pairs a hair away from each front lie well inside any fixed
    # q-grid cell, so a grid scan misses them
    g, phi = 0.3, 0.8
    p = WalkParams(g, phi)
    d = cone_topology(p)
    nus = [fr.velocity + s for fr in d.fronts for s in (-1e-8, 1e-8)]
    nu = np.concatenate([nus, np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 401)])
    expected = brute_force_cpd(g, phi, nu, 1 << 22)
    np.testing.assert_allclose(scaling_curve(p, nu).phi_scaled, expected, rtol=0, atol=1e-6)


def test_scaled_ccd_values():
    outside, origin = scaling_curve(WalkParams(0.0, PI / 2), [2.5, 0.0]).j_scaled
    assert outside == pytest.approx(0.0, abs=1e-14)
    assert origin == pytest.approx(-2.0 / PI, abs=1e-12)


def test_ccd_telescoping_matches_quadrature():
    rng = np.random.default_rng(3)
    for p in (WalkParams(1 / 16, PI / 2), WalkParams(0.25, PI / 2), WalkParams(0.3, 0.4)):
        d = cone_topology(p)
        curve = scaling_curve(p, rng.uniform(d.v_lm, d.v_rm, 25))
        np.testing.assert_allclose(curve.j_scaled, curve.m_scaled[0], rtol=0, atol=1e-9)


def test_full_zone_moments_match_closed_forms():
    for g, phi in [(0.0, 0.0), (1 / 16, PI / 2), (1 / 8, PI / 2), (0.25, PI / 2), (0.25, 0.0), (0.3, 0.0)]:
        p = WalkParams(g, phi)
        _, m2, m3 = scaling_curve(p, cone_topology(p).v_rm + 0.1).m_scaled
        assert m2[0] == pytest.approx(2 * (1 + 4 * g * g), abs=1e-8)
        assert m3[0] == pytest.approx(12 * g * math.sin(phi), abs=1e-8)


def test_closed_form_moments_match_gauss_legendre():
    # the telescoped antiderivative against quadrature on the same
    # sub-level intervals: critical, free, large-g and generic couplings
    for g, phi in SUBLEVEL_COUPLINGS:
        p = WalkParams(g, phi)
        d = cone_topology(p)
        nu = np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 12001)
        start, end = sublevel_intervals(p, nu)
        got = hydro._bulk(p, nu, (1, 2, 3, 4))
        for k, ref in gauss_legendre_moment(g, phi, start, end, (1, 2, 3, 4)).items():
            err = np.abs(got[f"m{k}"] - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() < 1e-12, (g, phi, k, err.max())
        for x in (nu[::1500], np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 401)):
            curve = scaling_curve(p, x)
            assert np.array_equal(curve.m_scaled[0], curve.j_scaled)


ROOT_BOUND = 1e-13
NOISE_ULPS = 16  # the residual bound, in ulps of 2 + 4g + |nu|


def assert_roots_match_bisection(p, nu, start, end):
    """The package's sub-level intervals against the fixed 54-step bisection;
    returns the bisected intervals and the distance between the two roots.

    Both roots lie where the computed v - nu is within its float noise N;
    where that band, 2N / |v'|, is wider than half the root bound (next to
    a front of order >= 2, or at nu within ~1e-8 of any front), the root is
    ill-conditioned and only its residual is bounded.
    """
    ref_start, ref_end = bisected_sublevel(p, nu)
    branches = hydro._branches(p)
    va, vb = branches.va, branches.vb
    straddle = (np.minimum(va, vb) < nu) & (nu < np.maximum(va, vb))
    # empty and whole branches take the same ends
    assert np.array_equal(start[~straddle], ref_start[~straddle])
    assert np.array_equal(end[~straddle], ref_end[~straddle])
    rising = np.broadcast_to(vb > va, start.shape)
    root = np.where(rising, end, start)
    dq = np.abs(root - np.where(rising, ref_end, ref_start))
    noise = np.broadcast_to(NOISE_ULPS * np.spacing(2.0 + 4.0 * p.g + np.abs(nu)), root.shape)
    ill = straddle & (2.0 * noise > 0.5 * ROOT_BOUND * np.abs(omega_deriv(root, 2, p)))
    well = straddle & ~ill
    assert np.all(dq[well] <= ROOT_BOUND), (p, dq[well].max())
    residual = np.abs(omega_deriv(root, 1, p) - nu)
    assert np.all(residual[ill] <= noise[ill]), (p, (residual / noise)[ill].max())
    return ref_start, ref_end, dq


@pytest.mark.parametrize("g, phi", SUBLEVEL_COUPLINGS)
def test_sublevel_matches_bisection(g, phi):
    # Newton against the fixed 54-step bisection, on a grid across the cone
    # and a hair away from every front
    p = WalkParams(g, phi)
    d = cone_topology(p)
    hair = [fr.velocity + s for fr in d.fronts for s in (-1e-6, 1e-6, -1e-8, 1e-8, -1e-12, 1e-12)]
    nu = np.sort(np.concatenate([np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 12001), hair]))
    start, end = sublevel_intervals(p, nu)
    ref_start, ref_end, dq = assert_roots_match_bisection(p, nu, start, end)
    branches = hydro._branches(p)
    a, b = branches.a, branches.b
    # Phi, J and M~_1..3 against the bisected intervals, integrated by
    # Gauss-Legendre: the closed forms' 1e-12, plus the integral of
    # |v|^k <= (|nu| + 1e-9)^k over the slivers between the two roots
    got = hydro._bulk(p, nu, (1, 2, 3))
    sliver = dq.sum(0) / (2.0 * PI)
    ref_phi = (ref_end - ref_start).sum(0) / (b - a).sum(0)
    assert np.all(np.abs(got["phi"] - ref_phi) <= 1e-15 + sliver), (g, phi)
    ref = gauss_legendre_moment(g, phi, ref_start, ref_end, (1, 2, 3))
    for name, k in (("j", 1), ("m1", 1), ("m2", 2), ("m3", 3)):
        err = np.abs(got[name] - ref[k])
        bound = 1e-12 * np.maximum(1.0, np.abs(ref[k])) + sliver * (np.abs(nu) + 1e-9) ** k
        assert np.all(err <= bound), (g, phi, name, (err / bound).max())
    # Phi is a measure of nested sets
    assert np.all(np.diff(got["phi"]) >= 0.0), (g, phi)


def cone_couplings():
    """Any g in [0, 2] and phi; a hair from the critical coupling; the degenerate (1/8, pi/2)."""
    phis = st.floats(0.0, PI / 2)
    return st.one_of(
        st.tuples(st.floats(0.0, 2.0), phis),
        st.tuples(phis, st.one_of(st.just(0.0), st.floats(-1e-2, 1e-2))).map(
            lambda ps: (critical_coupling(ps[0]) * (1.0 + ps[1]), ps[0])
        ),
        st.just((1 / 8, PI / 2)),
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cone_couplings())
def test_roots_start_in_a_bracketing_cell(couplings):
    # every straddling (branch, nu) pair starts in a cell of the velocity
    # table whose end velocities bracket nu, and ends inside it, with the
    # root contract of test_sublevel_matches_bisection; nu a hair from
    # every front, where the cells are shortest and v is flattest
    p = WalkParams(*couplings)
    d = cone_topology(p)
    hair = [fr.velocity + s for fr in d.fronts for s in (-1e-6, 1e-6, -1e-12, 1e-12)]
    nu = np.sort(np.concatenate([np.linspace(d.v_lm, d.v_rm, 65), hair]))
    branches = hydro._branches(p)
    branch, col, k = hydro._cells(branches, nu)
    q, v = branches.q.ravel(), branches.v.ravel()
    a, b, va, vb = q[k], q[k + 1], v[k], v[k + 1]
    v_a, v_b = branches.va, branches.vb
    straddle = (np.minimum(v_a, v_b) < nu) & (nu < np.maximum(v_a, v_b))
    assert branch.size == np.count_nonzero(straddle)
    x = nu[col]
    assert np.all(np.where(vb > va, (va <= x) & (x < vb), (vb <= x) & (x < va))), p
    assert np.all(a < b), p
    start, end = sublevel_intervals(p, nu, branches)
    root = np.where(branches.rising, end, start)[branch, col]
    assert np.all((a <= root) & (root <= b)), p
    assert_roots_match_bisection(p, nu, start, end)


@pytest.mark.parametrize("g", [1 / 16, 1 / 4])
def test_root_evaluations_on_the_bulk_grids(monkeypatch, g):
    # the grids of the `scaling` command at t = 2000: compare_bulk's sites
    # within its margin of the cone, and scaling_curve's 4001 points.  Each
    # pair takes ~3 evaluations of v and w'' from its cell's secant point.
    p, t = WalkParams(g, PI / 2), 2000.0
    d = cone_topology(p)
    L, origin = ring_layout(p, t)
    sites = (np.arange(L) - origin) / t
    grids = [sites[(sites >= d.v_lm - 0.25) & (sites <= d.v_rm + 0.25)],
             np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 4001)]
    branches = hydro._branches(p)
    sizes = []
    evaluate = hydro._evaluate

    def counted(p, q):
        sizes.append(np.size(q))
        return evaluate(p, q)

    monkeypatch.setattr(hydro, "_evaluate", counted)
    for nu in grids:
        sizes.clear()
        sublevel_intervals(p, nu, branches)
        pairs = hydro._cells(branches, nu)[0].size
        assert sum(sizes) / pairs <= 3.5, (g, sum(sizes) / pairs)
        assert len(sizes) <= 8, (g, sizes)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_bulk_does_not_depend_on_the_block(monkeypatch, block):
    # each nu's column is computed alone, so the bits match the default blocking
    p = WalkParams(0.3, 0.8)
    d = cone_topology(p)
    nu = np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 2001)
    nu[:3] = (math.nan, d.v_lm, d.v_rm)
    want = hydro._bulk(p, nu, (1, 2, 3))
    monkeypatch.setattr(hydro, "NU_BLOCK", block)
    got = hydro._bulk(p, nu, (1, 2, 3))
    assert list(got) == list(want)
    for name, values in want.items():
        assert np.array_equal(got[name], values, equal_nan=True), name


def test_bulk_memory_is_one_block(monkeypatch):
    # 2^16 nu in blocks of 2^12 on four branches: the six results hold
    # 3.1 MB, one block's (branches, nu) arrays ~0.1-0.3 MB each, while the
    # whole grid's would take ~2-4 MB each and ~30 MB together
    monkeypatch.setattr(hydro, "NU_BLOCK", 1 << 12)
    p = WalkParams(0.3, 0.8)
    d = cone_topology(p)
    nu = np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 1 << 16)
    hydro._bulk(p, nu[:8], (1, 2, 3))  # the cone and the branches' table, once
    tracemalloc.start()
    try:
        hydro._bulk(p, nu, (1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20, peak


@pytest.mark.parametrize("g, phi", [(0.3, 0.8), (0.35, 1.4), (1 / 2, PI / 2)])
def test_nu_half_builds_the_branch_table_once(monkeypatch, g, phi):
    # each Newton step is one _bulk call on the table that nu_half built,
    # not a new 128-node table per step
    p = WalkParams(g, phi)
    calls = {"_branches": 0, "_bulk": 0}
    for name in calls:
        original = getattr(hydro, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(hydro, name, counted)
    x = nu_half(p)
    assert calls["_branches"] == 1, calls
    assert calls["_bulk"] >= 2, calls
    assert_nu_half_certified(p, x, 1e-10)


def test_scaling_curve_invariants():
    p = WalkParams(0.25, PI / 2)
    d = cone_topology(p)
    curve = scaling_curve(p, np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 801))
    assert curve.phi_scaled[0] == 0.0
    assert curve.phi_scaled[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(curve.phi_scaled) >= -1e-14)
    assert abs(curve.j_scaled[0]) < 1e-14 and abs(curve.j_scaled[-1]) < 1e-12
    np.testing.assert_allclose(curve.m_scaled[0], curve.j_scaled, atol=1e-12)


def test_conservation_hierarchy_identity():
    # d M~_{k+1}/dnu = nu d M~_k/dnu in the bulk (equivalent to the
    # continuity hierarchy for the scaled cumulative moments)
    p = WalkParams(1 / 16, PI / 2)
    d = cone_topology(p)
    h = 1e-3
    rng = np.random.default_rng(9)
    nu = np.array([x for x in rng.uniform(d.v_lm + 0.1, d.v_rm - 0.1, 12)
                   if min(abs(x - fr.velocity) for fr in d.fronts) >= 0.05])
    vals = {}
    for dnu in (-h, h):
        curve = scaling_curve(p, nu + dnu)
        vals[dnu] = [curve.phi_scaled, *curve.m_scaled]
    for k in range(3):
        d_lo = (vals[h][k] - vals[-h][k]) / (2 * h)
        d_hi = (vals[h][k + 1] - vals[-h][k + 1]) / (2 * h)
        assert np.all(np.abs(d_hi - nu * d_lo) < 1e-4), k


def test_kink_at_internal_front():
    # above the transition J(nu) has a slope kink at the internal front
    # velocity; probe the one-sided slopes
    p = WalkParams(0.25, PI / 2)
    v_i = -1.0
    h = 1e-4
    j = scaling_curve(p, [v_i - 3 * h, v_i - h, v_i + h, v_i + 3 * h]).j_scaled
    left = (j[1] - j[0]) / (2 * h)
    right = (j[3] - j[2]) / (2 * h)
    assert abs(left - right) > 0.5


def test_compare_bulk_smoke():
    report = compare_bulk(WalkParams(1 / 16, PI / 2), t=500.0)
    assert set(report.deviations) == {"phi", "j", "m1", "m2", "m3"}
    for name in ("phi", "j"):
        dev = report.deviations[name]
        assert dev.sup_inside > dev.sup_outside
        assert dev.sup_outside < 0.02
    assert len(report.windows) == 2
    with pytest.raises(ValueError):
        compare_bulk(WalkParams(0.1, 0.0), t=0.0)


def test_compare_bulk_numeric_fields():
    # the report holds the compared fields over the whole ring, as computed afresh
    p, t = WalkParams(1 / 16, PI / 2), 300.0
    report = compare_bulk(p, t)
    wf = evolve(p, t)
    prob = probability_density(wf)
    fresh = {"phi": cumulative(prob).values, "j": cumulative(current_density(wf)).values}
    fresh.update({f"m{k}": cumulative_moment(prob, k).values / t**k for k in (1, 2, 3)})
    assert set(report.numeric) == set(report.deviations) == set(fresh)
    for name, values in fresh.items():
        assert report.numeric[name].tobytes() == values.tobytes(), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compare_bulk_refuses_nan_time(monkeypatch):
    # refused by name, not as windows that "cover every compared site"
    monkeypatch.setattr(hydro, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match=re.escape("t must be a finite real number in (0, inf), got t=nan")):
        compare_bulk(WalkParams(0.3, 0.8), math.nan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [0.0, -500.0, math.nan, math.inf, -math.inf])
def test_exclusion_windows_refuse_a_bad_time(monkeypatch, t):
    # compare_bulk's exclusion windows divided by t = 0, had complex
    # half-widths at t < 0 and NaN ones at NaN; t is refused before them
    monkeypatch.setattr(hydro, "edge_scale", lambda *a: pytest.fail("windowed"))
    with pytest.raises(ValueError, match=re.escape(f"t must be a finite real number in (0, inf), got t={t!r}")):
        compare_bulk(WalkParams(0.3, 0.8), t)


@pytest.mark.parametrize("margin", [math.nan, -0.25, math.inf])
def test_compare_bulk_refuses_a_bad_margin(monkeypatch, margin):
    # refused by name before the evolution, not as windows that "cover every
    # compared site" of an empty or NaN nu range
    monkeypatch.setattr(hydro, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match=re.escape(f"margin must be a finite real number in [0, inf), got margin={margin}")):
        compare_bulk(WalkParams(0.3, 0.8), 500.0, margin=margin)


def test_windows_covering_every_site_rejected(monkeypatch):
    # nothing would be compared outside the windows: rejected before the evolution
    monkeypatch.setattr(hydro, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match="cover every compared site"):
        compare_bulk(WalkParams(0.25, PI / 2), 1e-9)


@pytest.mark.parametrize("g", [0.1, 0.25, 0.35, 0.6, 1.0])
def test_nu_half_at_phi_zero_is_exact(monkeypatch, g):
    # v(-q) = -v(q) at phi = 0, so Phi(0) = 1/2 in every phase: one cone
    # (0.1), the critical coupling (1/4) and two cones; with tol = 0 the
    # bisection took 110, 55 and 63 two-point solves at 1/4, 0.35 and 0.6
    # to return float noise of ~1e-16
    p = WalkParams(g, 0.0)
    calls = []
    monkeypatch.setattr(hydro, "_bulk", lambda *args, **kwargs: calls.append(args))
    want = -4.0 * g * math.sin(0.0)
    for tol in (0.0, 1e-10):
        x = nu_half(p, tol=tol)
        assert type(x) is float
        assert x == want and math.copysign(1.0, x) == math.copysign(1.0, want), (tol, x)
    assert calls == []
    monkeypatch.undo()
    # the measure of {v <= nu} on the 2^20 wave vectors k 2 pi / 2^20: they
    # pair up as q, 2 pi - q with opposite v, and only q = 0 and q = pi have
    # |v| <= 5e-11
    n = 1 << 20
    q = np.arange(n) * (2.0 * PI / n)
    v = -2.0 * np.sin(q) - 4.0 * g * np.sin(2.0 * q)
    below, above = (np.count_nonzero(v <= nu) / n for nu in (-5e-11, 5e-11))
    assert below < 0.5 < above, (below, above)
    # and the hydro Phi straddles 1/2 at the certifying points of tol = 1e-10
    phi_below, phi_above = scaling_curve(p, [-5e-11, 5e-11]).phi_scaled
    assert phi_below < 0.5 <= phi_above


@pytest.mark.parametrize("call, message", [
    (lambda p: scaling_curve(p, "0.1"), "nu must be real numbers, got nu='0.1'"),
    (lambda p: scaling_curve(p, ["0.1", "0.2"]), "nu must be real numbers, got nu=['0.1', '0.2']"),
    (lambda p: invert_velocity(p, "0.1"), "nu must be a real number in [-inf, inf], got nu='0.1'"),
    (lambda p: nu_half(p, "1e-10"), "tol must be a real number in [0, inf], got tol='1e-10'"),
    (lambda p: compare_bulk(p, "5"), "t must be a finite real number in (0, inf), got t='5'"),
    (lambda p: compare_bulk(p, 2000.0, margin="0.25"), "margin must be a finite real number in [0, inf), got margin='0.25'"),
], ids=["scaling_curve", "scaling_curve_array", "invert_velocity", "nu_half", "compare_bulk_t", "compare_bulk_margin"])
def test_string_arguments_are_refused(call, message):
    # scaling_curve parsed '0.1' and ran at nu = 0.1; the others raised
    # TypeError from a comparison
    with pytest.raises(ValueError, match=re.escape(message)):
        call(WalkParams(0.3, 0.8))


@pytest.mark.parametrize("margin", [True, False, np.True_])
def test_compare_bulk_refuses_a_bool_margin(margin):
    # margin=True ran with margin 1
    with pytest.raises(ValueError, match=re.escape(f"margin must be a finite real number in [0, inf), got margin={margin!r}")):
        compare_bulk(WalkParams(0.3, 0.8), 2000.0, margin=margin)


def test_scaled_moments_finite_up_to_their_bound_on_g():
    # M~_3's harmonics add up below 256 g^3: finite at MOMENT_G_MAX across
    # the cone, and a larger g is refused before any arithmetic warns
    for phi in np.linspace(0.0, PI / 2, 9).tolist():
        curve = scaling_curve(WalkParams(MOMENT_G_MAX, phi), np.linspace(-4.0, 4.0, 201) * MOMENT_G_MAX)
        assert all(np.isfinite(m).all() for m in curve.m_scaled), phi
    for g in (math.nextafter(MOMENT_G_MAX, math.inf), 1e150, sys.float_info.max / 64.0):
        with pytest.raises(ValueError, match=re.escape(f"g must be a finite real number in [0, {MOMENT_G_MAX!r}], got g={g!r}")):
            scaling_curve(WalkParams(g, 0.8), 0.0)
    # the median needs Phi and rho alone, which stay finite at any admitted g
    assert math.isfinite(nu_half(WalkParams(1e150, 0.8)))
