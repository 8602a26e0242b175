import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiralwalk import (
    ConeTopology,
    WalkParams,
    hydro,
    compare_bulk,
    cone_topology,
    critical_coupling,
    cumulative,
    cumulative_moment,
    current_density,
    evolve,
    exclusion_windows,
    invert_velocity,
    nu_half,
    omega_deriv,
    probability_density,
    scaled_ccd,
    scaled_cpd,
    scaled_density,
    scaled_moment,
    scaling_curve,
)

from oracles import bisected_sublevel, brute_force_cpd, gauss_legendre_moment

PI = math.pi
SUBLEVEL_COUPLINGS = [(1 / 16, PI / 2), (1 / 4, PI / 2), (1 / 8, PI / 2), (1 / 4, 0.0),
                      (0.0, 0.0), (10.0, 1.0), (0.3, 0.8), (0.05, 0.2)]


# nu_half(p) at the default tol from the scalar bisection on scaled_cpd that
# the vectorised grid rounds replaced
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
        assert scaled_cpd(p, got - 5e-11) < 0.5 <= scaled_cpd(p, got + 5e-11)
    p = WalkParams(0.3, 0.8)
    coarse = nu_half(p, tol=1e-3)
    assert scaled_cpd(p, coarse - 5e-4) < 0.5 <= scaled_cpd(p, coarse + 5e-4)
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
            assert abs(scaled_cpd(p, median) - 0.5) <= 1e-15, (g, phi)


@pytest.mark.parametrize("tol", [math.nan, -1e-10, -math.inf])
def test_nu_half_refuses_a_tol_below_zero(tol):
    # a NaN tol ended the bracketing at once and returned the cone's midpoint
    with pytest.raises(ValueError, match=re.escape(f"tol={tol!r}")):
        nu_half(WalkParams(0.3, 0.8), tol=tol)


NU_HALF_TOLS = [0.0, 1e-12, 1e-10, 1e-3, math.inf]
TWO_CONES = (ConeTopology.TWO_NESTED_CONES, ConeTopology.TWO_OVERLAPPING_CONES)


def assert_nu_half_certified(p, x, tol):
    # Phi crosses 1/2 within tol / 2 of x; below the float spacing, x is
    # the float where Phi reaches 1/2 and its predecessor lies below
    d = cone_topology(p)
    assert d.v_lm <= x <= d.v_rm, (p, tol, x)
    below = min(x - 0.5 * tol, math.nextafter(x, -math.inf))
    assert scaled_cpd(p, below) < 0.5 <= scaled_cpd(p, x + 0.5 * tol), (p, tol, x)


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
    points = density_points(p)
    assert len(points) >= 20
    for nu in points:
        rho = scaled_density(p, nu)
        slope = (scaled_cpd(p, nu + h) - scaled_cpd(p, nu - h)) / (2.0 * h)
        assert abs(slope - rho) <= 1e-6 * rho + 1e-9, (g, phi, nu, slope, rho)
        # the same roots, summed in another order
        roots = invert_velocity(p, nu)
        by_root = sum(1.0 / abs(omega_deriv(q, 2, p)) for q in roots) / (2.0 * PI)
        assert abs(by_root - rho) <= 1e-12 * rho, (g, phi, nu)


def test_scaled_density_outside_the_cone_and_at_nan():
    p = WalkParams(0.3, 0.8)
    d = cone_topology(p)
    assert scaled_density(p, d.v_lm - 0.1) == 0.0
    assert scaled_density(p, d.v_rm + 0.1) == 0.0
    assert math.isnan(scaled_density(p, math.nan))
    # the free walk's roots of v = 0, q = 0 and pi, both have |w''| = 2
    assert scaled_density(WalkParams(0.0, 0.0), 0.0) == pytest.approx(1.0 / (2.0 * PI), abs=1e-15)


@pytest.mark.parametrize(
    "query", [scaled_cpd, scaled_ccd, scaled_density, lambda p, nu: scaled_moment(p, nu, 2)]
)
@pytest.mark.parametrize("nu", [np.array([0.1, 0.2]), np.array([0.1]), [0.1, 0.2]])
def test_scalar_queries_refuse_an_array_nu(query, nu):
    # an array nu returned its first entry's value
    with pytest.raises(ValueError, match="nu must be a scalar"):
        query(WalkParams(0.3, 0.8), nu)
    assert query(WalkParams(0.3, 0.8), np.float64(0.1)) == query(WalkParams(0.3, 0.8), 0.1)


def test_scaled_moment_refuses_a_bool_order():
    # bool passes the int check and ended in a KeyError for "mTrue"
    for k in (True, False):
        with pytest.raises(ValueError, match="moment order"):
            scaled_moment(WalkParams(0.3, 0.8), 0.1, k)


def test_invert_velocity_counts():
    p0 = WalkParams(0.0, PI / 2)
    assert invert_velocity(p0, 3.0) == []
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
    assert scaled_cpd(p, d.v_lm - 0.2) == 0.0
    assert scaled_cpd(p, d.v_rm + 0.2) == 1.0
    assert scaled_cpd(WalkParams(0.0, PI / 2), 0.0) == pytest.approx(0.5, abs=1e-12)
    # chiral drift: probability piles up near the left front, so the median
    # (half-probability coordinate) sits left of the origin and Phi(0) > 1/2
    assert scaled_cpd(p, 0.0) > 0.5
    assert nu_half(p) < 0.0
    assert nu_half(WalkParams(0.0, PI / 2)) == pytest.approx(0.0, abs=1e-8)
    # exactly empty and exactly full at the cone edges, also where the edge
    # front is third order (flat quartic extremum) or the cone is critical
    for p in (WalkParams(1 / 8, PI / 2), WalkParams(1 / 4, 0.0)):
        d = cone_topology(p)
        assert scaled_cpd(p, d.v_lm) == 0.0
        assert scaled_cpd(p, d.v_rm) == 1.0


def test_scaled_cpd_near_fronts_matches_brute_force():
    # root pairs a hair away from each front lie well inside any fixed
    # q-grid cell, so a grid scan misses them
    g, phi = 0.3, 0.8
    p = WalkParams(g, phi)
    nus = [fr.velocity + s for fr in cone_topology(p).fronts for s in (-1e-8, 1e-8)]
    curve = scaling_curve(p, num=401)
    expected = brute_force_cpd(g, phi, np.concatenate([nus, curve.nu]), 1 << 22)
    got = [scaled_cpd(p, nu) for nu in nus] + list(curve.phi_scaled)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)


def test_scaled_ccd_values():
    p0 = WalkParams(0.0, PI / 2)
    assert scaled_ccd(p0, 2.5) == pytest.approx(0.0, abs=1e-14)
    assert scaled_ccd(p0, 0.0) == pytest.approx(-2.0 / PI, abs=1e-12)


def test_ccd_telescoping_matches_quadrature():
    rng = np.random.default_rng(3)
    for p in (WalkParams(1 / 16, PI / 2), WalkParams(0.25, PI / 2), WalkParams(0.3, 0.4)):
        d = cone_topology(p)
        for nu in rng.uniform(d.v_lm, d.v_rm, 25):
            assert scaled_ccd(p, nu) == pytest.approx(scaled_moment(p, nu, 1), abs=1e-9)


def test_full_zone_moments_match_closed_forms():
    for g, phi in [(0.0, 0.0), (1 / 16, PI / 2), (1 / 8, PI / 2), (0.25, PI / 2), (0.25, 0.0), (0.3, 0.0)]:
        p = WalkParams(g, phi)
        top = cone_topology(p).v_rm + 0.1
        assert scaled_moment(p, top, 2) == pytest.approx(2 * (1 + 4 * g * g), abs=1e-8)
        assert scaled_moment(p, top, 3) == pytest.approx(12 * g * math.sin(phi), abs=1e-8)
    with pytest.raises(ValueError):
        scaled_moment(WalkParams(0.1, 0.0), 0.0, 0)


def test_closed_form_moments_match_gauss_legendre():
    # the telescoped antiderivative against quadrature on the same
    # sub-level intervals: critical, free, large-g and generic couplings
    for g, phi in SUBLEVEL_COUPLINGS:
        p = WalkParams(g, phi)
        d = cone_topology(p)
        nu = np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 12001)
        start, end = hydro._sublevel(p, nu)
        got = hydro._bulk(p, nu, (1, 2, 3, 4))
        for k, ref in gauss_legendre_moment(g, phi, start, end, (1, 2, 3, 4)).items():
            err = np.abs(got[f"m{k}"] - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() < 1e-12, (g, phi, k, err.max())
        for x in nu[::1500]:
            assert scaled_moment(p, x, 1) == scaled_ccd(p, x)
        curve = scaling_curve(p, num=401)
        assert np.array_equal(curve.m_scaled[0], curve.j_scaled)


ROOT_BOUND = 1e-13
NOISE_ULPS = 16  # the residual bound, in ulps of 2 + 4g + |nu|


@pytest.mark.parametrize("g, phi", SUBLEVEL_COUPLINGS)
def test_sublevel_matches_bisection(g, phi):
    # Newton against the fixed 54-step bisection, on a grid across the cone
    # and a hair away from every front.  Both roots lie where the computed
    # v - nu is within its float noise N; where that band, 2N / |v'|, is
    # wider than half the root bound (next to a front of order >= 2, or at
    # nu within ~1e-8 of any front), the root is ill-conditioned and only
    # its residual is bounded.
    p = WalkParams(g, phi)
    d = cone_topology(p)
    hair = [fr.velocity + s for fr in d.fronts for s in (-1e-6, 1e-6, -1e-8, 1e-8, -1e-12, 1e-12)]
    nu = np.sort(np.concatenate([np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, 12001), hair]))
    start, end = hydro._sublevel(p, nu)
    ref_start, ref_end = bisected_sublevel(p, nu)
    a, b, va, vb = hydro._branches(p)
    straddle = (np.minimum(va, vb) < nu) & (nu < np.maximum(va, vb))
    # empty and whole branches take the same ends
    assert np.array_equal(start[~straddle], ref_start[~straddle])
    assert np.array_equal(end[~straddle], ref_end[~straddle])
    rising = np.broadcast_to(vb > va, start.shape)
    root = np.where(rising, end, start)
    dq = np.abs(root - np.where(rising, ref_end, ref_start))
    noise = np.broadcast_to(NOISE_ULPS * np.spacing(2.0 + 4.0 * g + np.abs(nu)), root.shape)
    ill = straddle & (2.0 * noise > 0.5 * ROOT_BOUND * np.abs(omega_deriv(root, 2, p)))
    well = straddle & ~ill
    assert dq[well].max() <= ROOT_BOUND, (g, phi, dq[well].max())
    residual = np.abs(omega_deriv(root, 1, p) - nu)
    assert np.all(residual[ill] <= noise[ill]), (g, phi, (residual / noise)[ill].max())
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


def test_scaling_curve_invariants():
    p = WalkParams(0.25, PI / 2)
    curve = scaling_curve(p, num=801)
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
    for nu in rng.uniform(d.v_lm + 0.1, d.v_rm - 0.1, 12):
        if min(abs(nu - fr.velocity) for fr in d.fronts) < 0.05:
            continue
        vals = {}
        for dnu in (-h, h):
            x = nu + dnu
            vals[dnu] = [scaled_cpd(p, x)] + [scaled_moment(p, x, k) for k in (1, 2, 3)]
        for k in range(3):
            d_lo = (vals[h][k] - vals[-h][k]) / (2 * h)
            d_hi = (vals[h][k + 1] - vals[-h][k + 1]) / (2 * h)
            assert abs(d_hi - nu * d_lo) < 1e-4


def test_kink_at_internal_front():
    # above the transition J(nu) has a slope kink at the internal front
    # velocity; probe the one-sided slopes
    p = WalkParams(0.25, PI / 2)
    v_i = -1.0
    h = 1e-4
    left = (scaled_ccd(p, v_i - h) - scaled_ccd(p, v_i - 3 * h)) / (2 * h)
    right = (scaled_ccd(p, v_i + 3 * h) - scaled_ccd(p, v_i + h)) / (2 * h)
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
@pytest.mark.parametrize("lattice", [None, 64])
def test_compare_bulk_refuses_nan_time(monkeypatch, lattice):
    # refused by name, not as windows that "cover every compared site"
    monkeypatch.setattr(hydro, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match="needs t > 0, got t=nan"):
        compare_bulk(WalkParams(0.3, 0.8), math.nan, lattice=lattice)


@pytest.mark.parametrize("exclusion", [-1.0, math.nan, math.inf])
def test_bad_exclusion_rejected(monkeypatch, exclusion):
    # rejected before the evolution
    monkeypatch.setattr(hydro, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    p = WalkParams(1 / 16, PI / 2)
    with pytest.raises(ValueError, match="exclusion"):
        compare_bulk(p, t=500.0, exclusion=exclusion)
    with pytest.raises(ValueError, match="exclusion"):
        exclusion_windows(cone_topology(p), 500.0, exclusion)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [0.0, -500.0, math.nan, math.inf, -math.inf])
def test_exclusion_windows_refuse_a_bad_time(t):
    # t = 0 divided by zero, t < 0 gave complex half-widths, NaN gave NaN
    with pytest.raises(ValueError, match="finite t > 0"):
        exclusion_windows(cone_topology(WalkParams(0.3, 0.8)), t)


@pytest.mark.parametrize("margin", [math.nan, -0.25, math.inf])
def test_compare_bulk_refuses_a_bad_margin(monkeypatch, margin):
    # refused by name before the evolution, not as windows that "cover every
    # compared site" of an empty or NaN nu range
    monkeypatch.setattr(hydro, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match=re.escape(f"margin >= 0, got margin={margin}")):
        compare_bulk(WalkParams(0.3, 0.8), 500.0, margin=margin)


@pytest.mark.parametrize("t, exclusion", [(1e-9, 8.0), (2000.0, 1e6)])
def test_windows_covering_every_site_rejected(monkeypatch, t, exclusion):
    # nothing would be compared outside the windows: rejected before the evolution
    monkeypatch.setattr(hydro, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match="cover every compared site"):
        compare_bulk(WalkParams(0.25, PI / 2), t, exclusion=exclusion)
