import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import chiralwalk
from chiralwalk import cli
from chiralwalk import (
    WalkParams,
    airy_table,
    cone_topology,
    edge_scale,
    extract_staircase,
    measure_edge,
    predict_edge,
    ring_layout,
)
from chiralwalk import airy as airy_module
from chiralwalk.airy import (
    RAY_NODES,
    SEGMENT_NODES,
    XI_BLOCK,
    XI_LIMIT,
    _RAY_HALF,
    _RAY_RULE,
    _SEGMENT_HALF,
    _SEGMENT_RULE,
    _find_peaks,
    _gauss_legendre,
    max_edge_window,
)
from chiralwalk.fronts import same_velocity
from oracles import airy_ode_residual, concatenated_contour, series_airy

PI = math.pi
EVOLVE_MODULE = importlib.import_module("chiralwalk.evolve")

# classical Airy constants (zeros of Ai and Ai' by increasing magnitude)
AI_ZEROS = [2.33810741045977, 4.08794944413097, 5.52055982809555, 6.78670809007176, 7.94413358712085]
AIP_ZEROS = [1.01879297164747, 3.24819758217984, 4.82009921117874, 6.16330735563901, 7.37217725504777]

# oracle-derived reference values of the order-3 profile (mpmath series, 60 digits)
A3_REF = {
    0.0: 0.38350670167783941,
    -8.0: -0.15743947791061398,
    8.0: 5.3964658068385916e-05,
    -5.0: 0.094108931400282639,
    2.0: 0.046363561334811464,
}

# running integral of A_1(-u)^2 evaluated at the zeros of A_1(-u)
# (plateau heights of the predicted staircase; adaptive quadrature)
H1_REF = [0.4247091341, 0.5780003883, 0.6815905226, 0.7626615814, 0.8304574626]


def test_classical_airy_value_at_zero():
    assert float(airy_table(1, 0.0)) == pytest.approx(3.0 ** (-2 / 3) / math.gamma(2 / 3), abs=1e-12)


def test_matches_series_oracle_k1():
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.uniform(-10, 5, 12), [-10.0, -2.338107410459767, 0.0, 5.0]])
    for x in pts:
        assert float(airy_table(1, float(x))) == pytest.approx(series_airy(1, float(x)), abs=1e-11)


def test_matches_series_oracle_k3():
    for x, ref in A3_REF.items():
        assert float(airy_table(3, x)) == pytest.approx(ref, abs=1e-11)
    # closed form at the origin
    closed = 5.0 ** (-4 / 5) * math.gamma(1 / 5) * math.cos(PI / 10) / PI
    assert float(airy_table(3, 0.0)) == pytest.approx(closed, abs=1e-13)


def test_forbidden_side_decay():
    # the profiles decay super-exponentially for positive argument and
    # oscillate with slow algebraic decay for negative argument
    assert abs(float(airy_table(3, 8.0))) < 1e-3
    assert abs(float(airy_table(3, -8.0))) > 0.1
    assert abs(float(airy_table(1, 8.0))) < 1e-6
    assert abs(float(airy_table(1, -8.0))) > 0.04


def test_deep_oscillatory_regime():
    # the contour quadrature stays accurate deep in the oscillatory region
    for k, dps in ((1, 100), (3, 80)):
        for xi in (-45.0, -20.0):
            ref = series_airy(k, xi, dps=dps, nmax=8000)
            assert float(airy_table(k, xi)) == pytest.approx(ref, abs=1e-10)


def test_full_validated_range():
    # node counts checked up to the advertised limit; near |xi| = 50 the
    # k = 1 series terms reach ~1e102, so its oracle needs 130 digits
    pts = (-XI_LIMIT, -49.7, -37.3, -25.0, -12.5, 12.5, 25.0, 37.3, XI_LIMIT)
    for k, dps in ((1, 130), (3, 80)):
        ref = [series_airy(k, xi, dps=dps, nmax=8000) for xi in pts]
        np.testing.assert_allclose(airy_table(k, np.array(pts)), ref, rtol=0, atol=1e-11)


def test_table_matches_pointwise_values():
    # more than one block of xi, any input shape
    xi = np.linspace(-12.0, 6.0, 2 * XI_BLOCK + 7)
    for k in (1, 3):
        table = airy_table(k, xi.reshape(-1, 1))
        assert table.shape == (xi.size, 1)
        points = [float(airy_table(k, x)) for x in xi]
        np.testing.assert_allclose(table[:, 0], points, rtol=0, atol=1e-14)


def test_table_derivative_rows():
    # row j holds A_k^(j): against mpmath's Ai' for k = 1, and through the
    # defining ODE A^(k+1) = c xi A (c = 1 for k = 1, -1 for k = 3)
    xi = np.linspace(-20.0, 8.0, 29).reshape(-1, 1)
    for k, c in ((1, 1.0), (3, -1.0)):
        rows = airy_table(k, xi, derivs=k + 1)
        assert rows.shape == (k + 2, *xi.shape)
        np.testing.assert_allclose(rows[0], airy_table(k, xi), rtol=0, atol=1e-15)
        np.testing.assert_allclose(rows[k + 1], c * xi * rows[0], rtol=0, atol=1e-12)
    ai_prime = [float(mp.airyai(x, derivative=1)) for x in xi.ravel()]
    np.testing.assert_allclose(airy_table(1, xi, derivs=1)[1, :, 0], ai_prime, rtol=0, atol=1e-13)


def test_table_matches_concatenated_contour():
    # the real segment and the complex ray summed apart give the values of
    # one complex node array over both, row by row, on the whole range
    xi = np.linspace(-XI_LIMIT, XI_LIMIT, 2001)
    for k in (1, 3):
        err = np.max(np.abs(airy_table(k, xi, derivs=k + 1) - concatenated_contour(k, xi, k + 2)), axis=1)
        assert err[0] <= 3e-14, (k, err)
        assert np.all(err[1 : k + 1] <= 1e-12), (k, err)
        assert err[k + 1] <= 5e-12, (k, err)
    # no front has order 5, whose fixed contour is wrong below xi ~ -38
    with pytest.raises(ValueError, match=r"k must be an integer in \[1, 3\], got k=5"):
        airy_table(5, xi, derivs=6)


@pytest.mark.parametrize("block", [1, 7, XI_BLOCK])
def test_table_does_not_depend_on_the_block(monkeypatch, block):
    # every xi's row sums see the same nodes in the same order whatever
    # block it lands in, so the bits match the default blocking
    xi = np.random.default_rng(18).uniform(-XI_LIMIT, XI_LIMIT, 1000)
    xi[:4] = (-XI_LIMIT, 0.0, XI_LIMIT, -0.0)
    want = {k: airy_table(k, xi, derivs=k) for k in (1, 3)}
    monkeypatch.setattr(airy_module, "XI_BLOCK", block)
    for k, table in want.items():
        assert np.array_equal(airy_table(k, xi, derivs=k), table), k
    with pytest.raises(ValueError, match=r"k must be an integer in \[1, 3\], got k=5"):
        airy_table(5, xi, derivs=5)


def test_input_validation():
    for bad in (0, 2, 4, -1):
        with pytest.raises(ValueError):
            airy_table(bad, 0.0)
        with pytest.raises(ValueError):
            airy_table(bad, [0.0])
    with pytest.raises(ValueError):
        airy_table(1, 51.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(f"xi must be finite real numbers with |xi| <= 50.0, got xi={bad}")):
            airy_table(1, bad)
        with pytest.raises(ValueError, match=re.escape(f"with |xi| <= 50.0, got xi[1]={bad}")):
            airy_table(3, [0.0, bad, 1.0])
    with pytest.raises(ValueError, match=re.escape(f"with |xi| <= 50.0, got xi[1]={-XI_LIMIT - 1e-9!r}")):
        airy_table(1, [-1.0, -XI_LIMIT - 1e-9])


def test_derivs_must_be_a_nonnegative_integer():
    xi = np.array([-2.0, 0.0, 1.5])
    for bad in (-1, -2, 1.5):
        with pytest.raises(ValueError, match=f"derivs must be an integer >= 0, got derivs={bad}"):
            airy_table(1, xi, derivs=bad)
    # more rows than the defining ODE's k + 1: derivs=2000 overflowed into NaN rows
    for k, bad in ((1, 3), (3, 5), (1, 2000)):
        with pytest.raises(ValueError, match=rf"<= k \+ 1 = {k + 1}, got derivs={bad}"):
            airy_table(k, xi, derivs=bad)
    assert airy_table(3, xi, derivs=4).shape == (5, *xi.shape)
    # derivs = 0, as a plain or a numpy integer, is the profile itself
    assert np.array_equal(airy_table(1, xi, derivs=np.int64(0)), airy_table(1, xi))
    assert airy_table(3, xi, derivs=0).shape == xi.shape


RULES = [(SEGMENT_NODES, _SEGMENT_HALF, _SEGMENT_RULE), (RAY_NODES, _RAY_HALF, _RAY_RULE)]


@pytest.mark.parametrize("n, half, rule", RULES)
def test_shipped_rules_are_numpys_gauss_legendre(n, half, rule):
    # the bits of leggauss(n) where the rules were taken; elsewhere its
    # eigensolve may round the last bits differently
    x, w = _gauss_legendre(half)
    lx, lw = np.polynomial.legendre.leggauss(n)
    assert x.size == w.size == n
    np.testing.assert_array_max_ulp(x, lx, maxulp=2)
    np.testing.assert_array_max_ulp(w, lw, maxulp=2)
    # the contour's rule on [0, 1] is that rule mapped by (x + 1)/2 and w/2
    assert np.array_equal(rule[0], 0.5 * (x + 1.0)) and np.array_equal(rule[1], 0.5 * w)
    assert not (rule[0].flags.writeable or rule[1].flags.writeable)


@pytest.mark.parametrize("n, half, rule", RULES)
def test_shipped_rules_are_symmetric(n, half, rule):
    x, w = _gauss_legendre(half)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0) and x[n // 2] > 0 and x[-1] < 1 and np.all(w > 0)


@pytest.mark.parametrize("n, half, rule", RULES)
def test_shipped_rules_integrate_polynomials_exactly(n, half, rule):
    # an n-point Gauss rule is exact for every degree up to 2n - 1
    u, w = rule
    for j in range(2 * n):
        assert abs(float(np.dot(w, u**j)) - 1.0 / (j + 1)) < 1e-14, j


def test_tables_and_the_edge_command_never_call_leggauss(monkeypatch, tmp_path):
    def refuse(n):
        raise AssertionError(f"leggauss({n}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    xi = np.linspace(-50.0, 50.0, 201)
    for k in (1, 3):
        assert np.all(np.isfinite(airy_table(k, xi, derivs=k + 1)))
    assert cli.main(["edge", "--g", "0.0625", "--t", "1000", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "edge.json").stat().st_size > 0


def test_orders_must_not_be_bools():
    # True ran as k = 1, and derivs=True as derivs = 1
    for k in (True, np.True_):
        for call in (airy_table, airy_ode_residual):
            with pytest.raises(ValueError, match=re.escape(f"k must be an integer in [1, 3], got k={k!r}")):
                call(k, 0.0)
    for derivs in (True, False, np.True_):
        with pytest.raises(ValueError, match=re.escape(f"derivs must be an integer >= 0, got derivs={derivs!r}")):
            airy_table(1, [0.0, 1.0], derivs=derivs)


def test_import_loads_no_scipy():
    code = "import sys, chiralwalk; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(chiralwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_public_surface():
    # every name that chiralwalk exports, with the modules airy, dispersion,
    # fronts and hydro (evolve is the function); a removal or an addition
    # must change this list
    assert sorted(chiralwalk.__all__) == [
        "BulkReport", "ConeTopology", "EdgeProfile", "ExtremalFront", "FieldKind",
        "FrontDiagram", "FrontTable", "GuardError", "ObservableField", "ScalingCurve",
        "StaircaseStep", "WalkParams", "WaveFunction", "airy", "airy_table",
        "compare_bulk", "cone_topology", "critical_coupling", "cumulative", "cumulative_moment", "current_density",
        "dispersion", "edge_scale", "evolve", "extract_staircase",
        "fronts", "hydro", "invert_velocity", "measure_edge", "nu_half", "omega",
        "omega_deriv", "position_moment", "predict_edge", "probability_density",
        "ring_layout", "scaling_curve", "scan_fronts", "skewness",
    ]


def test_find_peaks_matches_scipy():
    rng = np.random.default_rng(5)
    cases = [
        np.array([0.0, 1.0, 1.0, 1.0, 0.0]),  # odd plateau: middle index
        np.array([0.0, 2.0, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0]),  # even plateau: left middle
        np.array([0.0, 1.0, 1.0, 2.0, 0.0]),  # shoulder is no peak
        np.array([1.0, 1.0, 0.0, 2.0, 2.0]),  # plateaus at the ends are no peaks
        np.array([0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0]),  # equal-height ties
        np.zeros(6),
        np.array([1.0]),
    ]
    for n in (3, 8, 40, 300):
        cases.append(rng.normal(size=n))
        for levels in (2, 3, 6):  # plateaus and ties
            cases.append(rng.integers(0, levels, n).astype(float))
    for y in cases:
        for distance in (1, 2, 3, 5, 17):
            np.testing.assert_array_equal(_find_peaks(y, distance), find_peaks(y, distance=distance)[0])


def test_ode_residual():
    # A_1'' = xi A_1 (classical Airy equation)
    assert abs(airy_ode_residual(1, 1.0)) < 1e-6
    assert abs(airy_ode_residual(1, 0.0)) < 1e-6
    for xi in (-8.0, -5.0, -2.0, 2.0, 4.0):
        assert abs(airy_ode_residual(1, xi)) < 1e-5
    # A_3'''' = -xi A_3: the residual being small at +-1 fixes the sign of
    # the right-hand side, since A_3(+-1) is O(0.1) there
    for xi in (-1.0, 1.0):
        assert abs(airy_ode_residual(3, xi)) < 1e-5
        assert abs(float(airy_table(3, xi))) > 0.05
    with pytest.raises(ValueError):
        airy_ode_residual(2, 0.0)
    # xi is a scalar: an array raised TypeError from float(), and a 0-d
    # array is an array too
    for xi in (np.array([0.1, 0.2]), [0.1], np.zeros((1, 1)), np.array(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"xi must be a finite real number in [-50.0, 50.0], got xi={xi!r}")):
            airy_ode_residual(1, xi)
    assert airy_ode_residual(1, np.float64(1.0)) == airy_ode_residual(1, 1.0)


@pytest.mark.parametrize("xi", [True, False, np.True_, np.array([True, False]), [False]])
def test_airy_refuses_a_bool_xi(xi):
    # airy_table(1, True) returned Ai(1) = 0.1353, and the residual evaluated at xi = 1
    with pytest.raises(ValueError, match=re.escape(f"xi must be real numbers, got xi={xi!r}")):
        airy_table(1, xi)
    if np.ndim(xi) == 0:
        with pytest.raises(ValueError, match=re.escape(f"xi must be a finite real number in [-50.0, 50.0], got xi={xi!r}")):
            airy_ode_residual(1, xi)


def _left_front(g, phi=PI / 2):
    d = cone_topology(WalkParams(g, phi))
    return next(fr for fr in d.fronts if fr.velocity == d.v_lm)


def test_predict_edge_structure():
    front = _left_front(1 / 16)
    xi = np.linspace(-3.0, 8.5, 300)
    prof = predict_edge(front, 1e4, xi)
    i0 = np.argmin(np.abs(xi))
    assert abs(prof.dphi_scaled[i0]) < 1e-3
    assert np.all(np.diff(prof.dphi_scaled) >= -1e-12)
    np.testing.assert_allclose(prof.djs_scaled, front.velocity * prof.dphi_scaled, atol=1e-12)
    # plateau heights at the zeros of Ai, in the xi-into-allowed convention
    for z, h_ref in zip(AI_ZEROS, H1_REF):
        assert np.interp(z, xi, prof.dphi_scaled) == pytest.approx(h_ref, abs=5e-4)


def _running_integral(f, xs):
    """int_0^x f(u) du at each x by mp.quad, accumulated outward from 0 in pieces of <= 5."""
    out = {0.0: 0.0}
    with mp.workdps(20):
        for side in (1.0, -1.0):
            ends = sorted(abs(x) for x in xs if side * x > 0)
            cuts = sorted({*np.arange(0.0, ends[-1], 5.0).tolist(), *ends})
            total = mp.mpf(0)
            for a, b in zip(cuts, cuts[1:]):
                total += mp.quad(f, [side * a, side * b], method="gauss-legendre")
                out[side * b] = float(total)
    return np.array([out[x] for x in xs])


@pytest.mark.parametrize("g, k", [(1 / 16, 1), (1 / 8, 3)])
def test_predict_edge_matches_mpmath_integral(g, k):
    # the closed-form antiderivative against an independent running integral
    # of A_k(-u)^2 over the whole validated range: mpmath's Ai for k = 1, the
    # Maclaurin series oracle for k = 3
    front = _left_front(g)
    assert front.order == k
    xi = np.array([-50.0, -23.7, -6.1, -1.3, 0.0, 0.4, 2.9, 11.2, 27.5, 41.8, 50.0])
    if k == 1:
        ref = _running_integral(lambda u: mp.airyai(-u) ** 2, xi)
    else:
        ref = _running_integral(lambda u: series_airy(3, -u, dps=80, nmax=8000) ** 2, xi)
    np.testing.assert_allclose(predict_edge(front, 1e4, xi).dphi_scaled, ref, rtol=0, atol=1e-12)


def _direct_rows(k, x):
    return airy_table(k, x, derivs=k)


def _published_grid(g, xi_max):
    """The xi samples of a CLI edge run at the left front, laid out as by measure_edge, unevolved."""
    front, t = _left_front(g), 1e4
    scale = edge_scale(front, t)
    window = math.ceil(xi_max * scale)
    s = 1 if front.kappa > 0 else -1
    ns = round(front.velocity * t) + np.arange(-window, window + 1)
    return front, np.sort(s * (ns - front.velocity * t) / scale)


@pytest.fixture
def table_sizes(monkeypatch):
    """Sizes of the xi arrays handed to airy_table, one per call."""
    sizes = []

    def spy(k, xi, derivs=0):
        sizes.append(np.size(xi))
        return airy_table(k, xi, derivs)

    monkeypatch.setattr(airy_module, "airy_table", spy)
    return sizes


def test_interpolated_profile_matches_the_direct_table(monkeypatch):
    # random windows [lo, hi] of the validated range, unsorted samples; the
    # bound is the mpmath test's, fixed before the interpolant was measured
    rng = np.random.default_rng(2004)
    windows = []
    for g in (1 / 16, 1 / 8):  # fronts of order 1 and 3
        windows.append((_left_front(g), np.linspace(-XI_LIMIT, XI_LIMIT, 5000)))
        for _ in range(12):
            lo, hi = np.sort(rng.uniform(-XI_LIMIT, XI_LIMIT, 2))
            windows.append((_left_front(g), rng.uniform(lo, hi, rng.integers(100, 5001))))
    got = [predict_edge(front, 1e4, xi).dphi_scaled for front, xi in windows]
    monkeypatch.setattr(airy_module, "_edge_rows", _direct_rows)
    for (front, xi), dphi in zip(windows, got):
        want = predict_edge(front, 1e4, xi).dphi_scaled
        msg = f"k={front.order}, {xi.size} samples"
        np.testing.assert_allclose(dphi, want, rtol=0, atol=1e-12, err_msg=msg)


@pytest.mark.parametrize(
    "g, xi_max, order, points",
    [
        # n = ceil(1.25 X^((k+2)/(k+1)) + 40) Chebyshev intervals for |xi| <= X
        (1 / 16, 10.5, 1, 84),  # 362 points with a table at every sample
        (1 / 8, 13.5, 3, 74),  # 132
    ],
)
def test_published_window_tabulates_the_chebyshev_points_alone(table_sizes, g, xi_max, order, points):
    front, xi = _published_grid(g, xi_max)
    assert front.order == order and xi.size + 1 > points
    predict_edge(front, 1e4, xi)
    assert table_sizes == [points]


def test_few_samples_take_the_direct_table(table_sizes, monkeypatch):
    # fewer samples than Chebyshev points: one table at the samples and 0
    front = _left_front(1 / 16)
    xi = np.array([-50.0, -23.7, -6.1, -1.3, 0.0, 0.4, 2.9, 11.2, 27.5, 41.8, 50.0])
    got = predict_edge(front, 1e4, xi).dphi_scaled
    assert table_sizes == [xi.size + 1]
    monkeypatch.setattr(airy_module, "_edge_rows", _direct_rows)
    assert np.array_equal(got, predict_edge(front, 1e4, xi).dphi_scaled)


def test_samples_of_one_value_take_the_direct_table(table_sizes):
    # 100 samples at 0 and the 0 of F(0) outnumber the 41 Chebyshev points of
    # a range of zero width, whose nodes would coincide and whose barycentric
    # weights sum to 0
    front = _left_front(1 / 16)
    got = predict_edge(front, 1e4, np.zeros(100)).dphi_scaled
    assert table_sizes == [101]
    assert np.array_equal(got, np.zeros(100))


def test_predict_edge_refuses_xi_outside_the_validated_range():
    # the interpolated path refuses what the direct table refuses
    front = _left_front(1 / 16)
    for bad in (math.nan, math.inf, XI_LIMIT + 1e-9):
        xi = np.linspace(-10.0, 10.0, 2000)
        xi[700] = bad
        with pytest.raises(ValueError, match=re.escape(f"|xi_grid| <= 50.0, got xi_grid[700]={bad!r}")):
            predict_edge(front, 1e4, xi)


@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, -math.inf, math.inf])
def test_predict_edge_refuses_a_time_that_is_not_positive(t):
    # t = -1 and NaN were stored in the profile unchecked, and inf still was
    with pytest.raises(ValueError, match=re.escape(f"t must be a finite real number in (0, inf), got t={t!r}")):
        predict_edge(_left_front(1 / 16), t, np.linspace(0.0, 5.0, 11))


@pytest.mark.parametrize("t", [True, np.True_, False])
def test_edge_functions_refuse_a_bool_time(t):
    # True ran at t = 1; the automatic ring reads edge_scale, so its layout
    # and evolve refuse a bool t too
    p, front = WalkParams(1 / 16, PI / 2), _left_front(1 / 16)
    for call in (lambda: predict_edge(front, t, np.linspace(0.0, 5.0, 11)), lambda: edge_scale(front, t),
                 lambda: measure_edge(p, front, t, 3), lambda: ring_layout(p, t), lambda: chiralwalk.evolve(p, t)):
        with pytest.raises(ValueError, match=rf"t must be a finite real number in [\[(]0, inf\), got t={t!r}"):
            call()


def test_predict_edge_rejects_even_order():
    d = cone_topology(WalkParams(0.25, 0.0))  # critical: internal 2nd-order front
    front = next(fr for fr in d.fronts if fr.order == 2)
    with pytest.raises(ValueError, match="no real staircase"):
        predict_edge(front, 1e3, np.linspace(0, 5, 50))


def test_measured_profile_matches_prediction():
    front = _left_front(1 / 16)
    t = 2000.0
    prof = measure_edge(WalkParams(1 / 16, PI / 2), front, t, window=140)
    pred = predict_edge(front, t, prof.xi)
    sel = (prof.xi >= 0) & (prof.xi <= 6)
    assert np.max(np.abs(prof.dphi_scaled[sel] - pred.dphi_scaled[sel])) < 0.03
    # numeric profile is non-decreasing; on the forbidden side it saturates
    # at minus the evanescent-tail weight, matching the prediction there too
    assert np.all(np.diff(prof.dphi_scaled) >= -1e-6)
    fb = prof.xi < 0
    assert np.max(np.abs(prof.dphi_scaled[fb] - pred.dphi_scaled[fb])) < 0.03
    # scaled current deviation tracks v_e * dphi pointwise
    assert np.max(np.abs(prof.djs_scaled[sel] - front.velocity * prof.dphi_scaled[sel])) < 0.02


def test_staircase_extraction_on_predicted_curve():
    front = _left_front(1 / 16)
    xi = np.arange(-1.0, 10.7, 0.02)
    prof = predict_edge(front, 1e4, xi)
    steps = extract_staircase(prof)
    assert len(steps) >= 5
    heights = [s.height for s in steps[:5]]
    np.testing.assert_allclose(heights, H1_REF, atol=2e-3)
    assert all(s2.height > s1.height for s1, s2 in zip(steps, steps[1:]))
    assert all(s.area > 0 for s in steps)
    # plateau runs between consecutive Ai' zeros
    widths = [s.width for s in steps[:4]]
    ref = np.diff(AIP_ZEROS)
    np.testing.assert_allclose(widths, ref[:4], atol=0.02)


def test_staircase_from_numeric_profile():
    front = _left_front(1 / 16)
    t = 2000.0
    prof = measure_edge(WalkParams(1 / 16, PI / 2), front, t, window=130)
    steps = extract_staircase(prof)
    assert len(steps) >= 4
    areas = [s.area for s in steps[:4]]
    for a in areas:
        assert abs(a - 0.92) < 0.12  # rough; precise values tested at t=1e4 in acceptance
    ccd_steps = extract_staircase(prof, observable="ccd")
    assert len(ccd_steps) >= 4
    for s_cpd, s_ccd in zip(steps, ccd_steps):
        assert s_ccd.height == pytest.approx(s_cpd.height, abs=0.05)


def test_extract_staircase_diagnostics():
    front = _left_front(1 / 16)
    xi = np.linspace(-0.5, 1.2, 40)  # too short to contain two steps
    prof = predict_edge(front, 1e4, xi)
    assert extract_staircase(prof) == []
    with pytest.raises(ValueError):
        extract_staircase(prof, observable="pdf")


def test_measure_edge_window_overlap_rejected():
    p = WalkParams(0.25, PI / 2)
    d = cone_topology(p)
    internal = next(fr for fr in d.fronts if abs(fr.velocity + 1.0) < 1e-9)
    with pytest.raises(ValueError, match="overlaps"):
        measure_edge(p, internal, 100.0, window=90)


def test_measure_edge_checks_the_window_before_evolving(monkeypatch, tmp_path, capsys):
    # an overlapping window, or a ring above the cap, ends measure_edge and
    # the edge command before anything is evolved, on the one evolution path
    def refuse(*args, **kwargs):
        raise AssertionError("evolved")

    monkeypatch.setattr(chiralwalk.airy, "evolve", refuse)
    p = WalkParams(0.25, PI / 2)
    diagram = cone_topology(p)
    internal = next(fr for fr in diagram.fronts if abs(fr.velocity + 1.0) < 1e-9)
    with pytest.raises(ValueError, match="overlaps"):
        measure_edge(p, internal, 100.0, window=90)
    # the degenerate left pair at t = 1e4, with a window that reaches the
    # internal front
    with pytest.raises(ValueError, match="overlaps"):
        measure_edge(p, diagram.fronts[0], 1e4, window=5000)
    base = ["edge", "--g", "0.25", "--phi", repr(PI / 2), "--front", "internal"]
    out = tmp_path / "o"
    assert cli.main([*base, "--t", "100", "--xi-max", "19.283", "--out", str(out)]) == 2
    assert "window of 90 sites" in capsys.readouterr().err
    assert not out.exists()
    # a huge t is a guard violation (exit 3), found before evolving too: at
    # t = 1e12 the internal front's windowed ring would hold ~2.2e8 sites
    for front, t in (("internal", "1e12"), ("internal", "1e300"), ("left", "1e300")):
        assert cli.main([*base, "--front", front, "--t", t, "--out", str(out)]) == 3
        assert "exceeds the cap" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_measure_edge_refuses_nan_time(monkeypatch):
    # and inf, which reached the ring's size cap and raised GuardError, the
    # exit-3 path
    monkeypatch.setattr(chiralwalk.airy, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"t must be a finite real number in (0, inf), got t={t}")):
            measure_edge(WalkParams(1 / 16, PI / 2), _left_front(1 / 16), t, 20)


@pytest.mark.parametrize("window", [-3, 0, 2.5, 40.0, "40", None, True])
def test_measure_edge_refuses_a_window_that_is_not_a_positive_integer(monkeypatch, window):
    monkeypatch.setattr(chiralwalk.airy, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match=re.escape(f"window must be an integer in [1, 1.7976931348623157e+308], got window={window!r}")):
        measure_edge(WalkParams(1 / 16, PI / 2), _left_front(1 / 16), 100.0, window)


def test_measure_edge_takes_a_numpy_integer_window():
    p, front = WalkParams(1 / 16, PI / 2), _left_front(1 / 16)
    want = measure_edge(p, front, 100.0, 40)
    got = measure_edge(p, front, 100.0, np.int64(40))
    assert np.array_equal(got.xi, want.xi) and np.array_equal(got.dphi_scaled, want.dphi_scaled)


def _whole_ring_profile(p, front, t, window):
    """(xi, s dPhi, s dJ) of measure_edge's window, measured on the whole ring evolve(p, t)."""
    wf = chiralwalk.evolve(p, t)
    n_e = round(front.velocity * t)
    ns = n_e + np.arange(-window, window + 1)
    assert 0 <= ns[0] + wf.origin and ns[-1] + wf.origin < wf.L
    phi = chiralwalk.cumulative(chiralwalk.probability_density(wf)).values
    j = chiralwalk.cumulative(chiralwalk.current_density(wf)).values
    scale, s = edge_scale(front, t), (1 if front.kappa > 0 else -1)
    idx, ref = ns + wf.origin, n_e + wf.origin
    xi = s * (ns - front.velocity * t) / scale
    order = np.argsort(xi)
    return xi[order], (s * (phi[idx] - phi[ref]) * scale)[order], (s * (j[idx] - j[ref]) * scale)[order]


# the published staircase rows at phi = pi/2: (g, index of the front in its
# diagram, xi-max); g14_degen is the degenerate left pair and g14_internal
# the internal front of the overlapping cones
EDGE_ROWS = {"g116_left": (1 / 16, 0, 10.5), "g18_left3": (1 / 8, 0, 13.5),
             "g18_right": (1 / 8, -1, 10.5), "g14_degen": (1 / 4, 0, 10.5), "g14_internal": (1 / 4, 2, 10.5)}


@pytest.mark.parametrize("t", [1e4, 1e5])
@pytest.mark.parametrize("row", [*sorted(EDGE_ROWS), "bulk_g03"])
def test_windowed_ring_matches_the_whole_ring(row, t):
    # the guarantee, its bound fixed before measuring: s dPhi and s dJ within
    # 1e-11 of the whole ring, on the same xi samples; bulk_g03 is the bulk
    # window nu in [0.5, 0.6] of (0.3, 0.8), whose dPhi and dJ from the
    # window's first site are compared unscaled
    if row == "bulk_g03":
        p = WalkParams(0.3, 0.8)
        sites = (math.ceil(0.5 * t), math.floor(0.6 * t))
        ns = np.arange(sites[0], sites[1] + 1)
        deviations = []
        for wf in (chiralwalk.evolve(p, t, sites=sites), chiralwalk.evolve(p, t)):
            assert 0 <= ns[0] + wf.origin and ns[-1] + wf.origin < wf.L
            for field in (chiralwalk.probability_density(wf), chiralwalk.current_density(wf)):
                values = chiralwalk.cumulative(field).values[ns + wf.origin]
                deviations.append(values - values[0])
        windowed, whole = deviations[:2], deviations[2:]
        assert ring_layout(p, t, sites)[0] < ring_layout(p, t)[0]
        assert np.max(np.abs(windowed[0] - whole[0])) <= 1e-11
        assert np.max(np.abs(windowed[1] - whole[1])) <= 1e-11
        return
    g, index, xi_max = EDGE_ROWS[row]
    p = WalkParams(g, PI / 2)
    front = cone_topology(p).fronts[index]
    window = math.ceil(xi_max * edge_scale(front, t))
    prof = measure_edge(p, front, t, window)
    xi, dphi, djs = _whole_ring_profile(p, front, t, window)
    assert prof.lattice < ring_layout(p, t)[0]
    assert np.array_equal(prof.xi, xi)
    assert np.max(np.abs(prof.dphi_scaled - dphi)) <= 1e-11
    assert np.max(np.abs(prof.djs_scaled - djs)) <= 1e-11


@pytest.mark.parametrize("row", sorted(EDGE_ROWS))
def test_whole_ring_phases_match_the_windowed_ring_at_1e5(row):
    # the whole ring's float phases against the windowed ring's exact
    # carriers, its bound fixed before measuring: s dPhi and s dJ within
    # 1e-12 at t = 1e5 (3.4e-13 measured), where a constant rounding offset
    # of the momenta at +-pi would show as a step at a front
    g, index, xi_max = EDGE_ROWS[row]
    p, t = WalkParams(g, PI / 2), 1e5
    front = cone_topology(p).fronts[index]
    window = math.ceil(xi_max * edge_scale(front, t))
    prof = measure_edge(p, front, t, window)
    xi, dphi, djs = _whole_ring_profile(p, front, t, window)
    assert np.array_equal(prof.xi, xi)
    assert np.max(np.abs(prof.dphi_scaled - dphi)) <= 1e-12
    assert np.max(np.abs(prof.djs_scaled - djs)) <= 1e-12


@pytest.mark.parametrize("row", sorted(EDGE_ROWS))
def test_windowed_ring_clears_the_guard_at_every_size(row):
    # the ring the sizing rule chooses, from t = 1e2 to t = 1e8 (8.8e5 to
    # 2.2e6 sites), keeps its boundary amplitudes below TAIL_GUARD at outer
    # fronts of order 1 and 3 and at the internal front; evolve would raise
    # GuardError otherwise
    g, index, xi_max = EDGE_ROWS[row]
    p = WalkParams(g, PI / 2)
    front = cone_topology(p).fronts[index]
    for t in (1e2, 1e4, 1e6, 1e8):
        n_e, window = round(front.velocity * t), math.ceil(xi_max * edge_scale(front, t))
        wf = chiralwalk.evolve(p, t, sites=(n_e - window, n_e + window))
        guard = EVOLVE_MODULE.GUARD_SITES
        edge = max(np.max(np.abs(wf.amps[:guard])), np.max(np.abs(wf.amps[-guard:])))
        assert edge < EVOLVE_MODULE.TAIL_GUARD, (row, t, edge)
        assert wf.L == ring_layout(p, t, (n_e - window, n_e + window))[0], (row, t)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([0.0, 0.0625, 0.125, 0.25, 0.3]), st.sampled_from([0.0, 0.8, PI / 2]),
       st.one_of(st.floats(300.0, 3000.0), st.sampled_from([5e-324, 1e-300, 1e-3, 1.0, 30.0, 100.0])),
       st.floats(0.0, 1.0), st.integers(0, 300))
def test_evolve_on_any_window_matches_the_whole_ring(g, phi, t, share, half):
    # any window of sites, across the cone and past its fronts, one cone or
    # two, at phases where fronts sit on the ring's momenta (g = 0 puts q* at
    # +-pi/2), from subnormal t on: the amplitudes agree with the whole
    # ring's to roundoff, which scales with the ring's largest amplitude; a
    # site off the whole ring, which holds the cone and its tails, has
    # amplitude 0 there
    p = WalkParams(g, phi)
    d = cone_topology(p)
    n = round(((d.v_lm - 0.05) + share * (d.v_rm - d.v_lm + 0.1)) * t)
    sites = (n - half, n + half)
    whole = chiralwalk.evolve(p, t)
    ns = np.arange(sites[0], sites[1] + 1)
    on = (0 <= ns + whole.origin) & (ns + whole.origin < whole.L)
    want = np.zeros(ns.size, dtype=complex)
    want[on] = whole.amps[ns[on] + whole.origin]
    wf = chiralwalk.evolve(p, t, sites=sites)
    assert 0 <= ns[0] + wf.origin and ns[-1] + wf.origin < wf.L, (g, phi, t, sites)
    error = np.max(np.abs(wf.amps[ns + wf.origin] - want))
    assert error <= 1e-9 * np.max(np.abs(whole.amps)), (g, phi, t, sites)


def test_early_times_take_the_windowed_ring(monkeypatch):
    # at t = 100 the velocity step's ramp, 2 delta1 t ~ 440 sites wide, and
    # its flank of delta1 t span the cone, so the windowed ring is longer
    # than the whole one; it still measures the profile, within 1e-11 of
    # the whole ring, as at t = 1e3
    fills = []
    window_fill = EVOLVE_MODULE._window_fill
    monkeypatch.setattr(EVOLVE_MODULE, "_window_fill", lambda *a: fills.append(a[2]) or window_fill(*a))
    p, front = WalkParams(1 / 16, PI / 2), _left_front(1 / 16)
    for t in (1e2, 1e3):
        window = math.ceil(10.5 * edge_scale(front, t))
        n_e = round(front.velocity * t)
        prof = measure_edge(p, front, t, window)
        assert fills[-1] == prof.lattice == ring_layout(p, t, (n_e - window, n_e + window))[0]
        xi, dphi, djs = _whole_ring_profile(p, front, t, window)
        assert np.array_equal(prof.xi, xi)
        assert np.max(np.abs(prof.dphi_scaled - dphi)) <= 1e-11
        assert np.max(np.abs(prof.djs_scaled - djs)) <= 1e-11
    assert len(fills) == 2


def test_windowed_ring_guards_against_wraparound(monkeypatch):
    # a windowed ring a quarter of the span it needs: the packet reaches
    # ~11 700 sites past the front, and the boundary amplitudes catch it
    window_ring = EVOLVE_MODULE._window_ring

    def quarter(*args):
        lo, hi, runs = window_ring(*args)
        return lo, lo + (hi - lo) / 4, runs

    monkeypatch.setattr(EVOLVE_MODULE, "_window_ring", quarter)
    p, front = WalkParams(1 / 16, PI / 2), _left_front(1 / 16)
    n_e = round(front.velocity * 1e4)
    with pytest.raises(chiralwalk.GuardError, match="wraparound"):
        chiralwalk.evolve(p, 1e4, sites=(n_e - 180, n_e + 180))


def test_carrier_phase_is_reduced_exactly():
    mp.mp.dps = 60
    assert abs(mp.mpf(EVOLVE_MODULE._TWO_PI_FIXED) / 2**EVOLVE_MODULE._PHASE_BITS - 2 * mp.pi) < 1e-70
    for g, phi, q, n, t in [(0.25, PI / 2, PI / 6, -150_000_000, 1e8), (1 / 16, PI / 2, 5 * PI / 6, 3, 1e4),
                            (0.3, 0.8, -PI / 2, 10**15, 3.3e14), (0.0, 0.0, 1e-300, 7, 5e-324),
                            (2.0, 0.1, 3.0, -(10**12), 1e12)]:
        w = 2 * mp.cos(mp.mpf(q)) + 2 * mp.mpf(g) * mp.cos(2 * mp.mpf(q) + mp.mpf(phi))
        x = mp.mpf(q) * n - w * mp.mpf(t)
        got = EVOLVE_MODULE._carrier(WalkParams(g, phi), q, n, t)
        assert abs(got - complex(mp.cos(x), mp.sin(x))) < 1e-15, (g, phi, q, n, t)


# every odd-order front, outer and internal: one cone, the critical order-3
# left front, overlapping cones, and nested cones with two internal fronts
ODD_FRONTS = [
    (p, fr)
    for p in (WalkParams(1 / 16, PI / 2), WalkParams(1 / 8, PI / 2), WalkParams(1 / 4, PI / 2),
              WalkParams(0.3, 0.8), WalkParams(0.2, 1.2))
    for fr in cone_topology(p).fronts
    if fr.order % 2
]


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(st.sampled_from(ODD_FRONTS), st.floats(10.0, 1e6), st.floats(0.0, 1.0))
def test_ring_holds_every_edge_window(point, t, share):
    # measure_edge indexes its window on the ring that evolve(p, t,
    # sites=window) evolves, ring_layout(p, t, sites), windowed or whole,
    # with no check of its own: every window up to max_edge_window that
    # clears the other fronts lies on the ring
    p, front = point
    n_e = round(front.velocity * t)
    clear = min(
        (abs(round(other.velocity * t) - n_e) - 11 for other in cone_topology(p).fronts
         if not same_velocity(other.velocity, front.velocity)),
        default=math.inf,
    )
    largest = min(max_edge_window(front, t), clear)
    assume(largest >= 1)
    window = 1 + math.floor(share * (largest - 1))
    L, origin = ring_layout(p, t, (n_e - window, n_e + window))
    assert 0 <= n_e - window + origin and n_e + window + origin < L, (p, front, t, window)


def test_extract_staircase_requires_uniform_grid():
    front = _left_front(1 / 16)
    xi = np.concatenate([np.linspace(0, 3, 60), np.linspace(3.2, 9, 40)])
    prof = predict_edge(front, 1e4, xi)
    with pytest.raises(ValueError, match="uniform"):
        extract_staircase(prof)


@pytest.mark.parametrize(
    "xi",
    [np.linspace(10.0, 0.0, 500), np.full(500, 1.0)],
    ids=["descending", "zero-spacing"],
)
def test_extract_staircase_refuses_a_grid_that_does_not_ascend(xi):
    # a descending grid gave negative widths and one height for every step,
    # and a zero spacing a ZeroDivisionError
    prof = predict_edge(_left_front(1 / 16), 1e4, xi)
    with pytest.raises(ValueError, match="expects uniformly sampled xi"):
        extract_staircase(prof)


def test_ode_residual_takes_every_odd_order():
    # a front's order is at most 4, so 1 and 3 are the only odd orders; the
    # fixed contour of A_5 is wrong below xi ~ -38 (0.0746 at xi = -50,
    # against 0.0624 from the series), so k = 5 and beyond are refused,
    # and even orders have no real profile
    for k in (2, 4, 5, 6, 7):
        match = rf"(k must be an integer in \[1, 3\]|validated for front orders 1 and 3 only), got k={k}$"
        for xi in (-50.0, 0.0):
            with pytest.raises(ValueError, match=match):
                airy_ode_residual(k, xi)
            with pytest.raises(ValueError, match=match):
                airy_table(k, xi)


def test_edge_scale():
    front = _left_front(1 / 16)
    assert edge_scale(front, 1e4) == pytest.approx((0.5 * 1e4) ** (1 / 3), rel=1e-12)
    assert edge_scale(front, 0.0) == 0.0  # evolve's ring layout asks at t = 0


@pytest.mark.parametrize("t", [-1.0, -1e-300, -math.inf, math.nan, math.inf])
def test_edge_scale_refuses_a_time_that_is_not_nonnegative(t):
    # a negative t gave a complex scale, (0.68+1.18j) at t = -1, NaN gave NaN
    # and inf gave inf
    with pytest.raises(ValueError, match=re.escape(f"t must be a finite real number in [0, inf), got t={t}")):
        edge_scale(_left_front(1 / 16), t)


@pytest.mark.parametrize("xi", ["1", b"1", np.array(["0.1", "0.2"]), ["1"]])
def test_airy_refuses_a_string_xi(xi):
    # airy_table(1, '1') returned A_1(1)
    with pytest.raises(ValueError, match=re.escape(f"xi must be real numbers, got xi={xi!r}")):
        airy_table(1, xi)
    if np.ndim(xi) == 0:
        with pytest.raises(ValueError, match=re.escape(f"xi must be a finite real number in [-50.0, 50.0], got xi={xi!r}")):
            airy_ode_residual(1, xi)
