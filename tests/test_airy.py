import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.signal import find_peaks

import chiralwalk
from chiralwalk import cli
from chiralwalk import (
    WalkParams,
    airy_ode_residual,
    cone_topology,
    edge_scale,
    extract_staircase,
    generalized_airy,
    measure_edge,
    predict_edge,
)
from chiralwalk import airy as airy_module
from chiralwalk.airy import XI_BLOCK, XI_LIMIT, _find_peaks, airy_table
from oracles import concatenated_contour, series_airy

PI = math.pi

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
    assert generalized_airy(1, 0.0) == pytest.approx(3.0 ** (-2 / 3) / math.gamma(2 / 3), abs=1e-12)


def test_matches_series_oracle_k1():
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.uniform(-10, 5, 12), [-10.0, -2.338107410459767, 0.0, 5.0]])
    for x in pts:
        assert generalized_airy(1, float(x)) == pytest.approx(series_airy(1, float(x)), abs=1e-11)


def test_matches_series_oracle_k3():
    for x, ref in A3_REF.items():
        assert generalized_airy(3, x) == pytest.approx(ref, abs=1e-11)
    # closed form at the origin
    closed = 5.0 ** (-4 / 5) * math.gamma(1 / 5) * math.cos(PI / 10) / PI
    assert generalized_airy(3, 0.0) == pytest.approx(closed, abs=1e-13)


def test_forbidden_side_decay():
    # the profiles decay super-exponentially for positive argument and
    # oscillate with slow algebraic decay for negative argument
    assert abs(generalized_airy(3, 8.0)) < 1e-3
    assert abs(generalized_airy(3, -8.0)) > 0.1
    assert abs(generalized_airy(1, 8.0)) < 1e-6
    assert abs(generalized_airy(1, -8.0)) > 0.04


def test_deep_oscillatory_regime():
    # the contour quadrature stays accurate deep in the oscillatory region
    for k, dps in ((1, 100), (3, 80)):
        for xi in (-45.0, -20.0):
            ref = series_airy(k, xi, dps=dps, nmax=8000)
            assert generalized_airy(k, xi) == pytest.approx(ref, abs=1e-10)


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
        points = [generalized_airy(k, x) for x in xi]
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
    with pytest.raises(ValueError, match="orders 1 and 3 only"):
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
    with pytest.raises(ValueError, match="orders 1 and 3 only"):
        airy_table(5, xi, derivs=5)


def test_input_validation():
    for bad in (0, 2, 4, -1):
        with pytest.raises(ValueError):
            generalized_airy(bad, 0.0)
        with pytest.raises(ValueError):
            airy_table(bad, [0.0])
    with pytest.raises(ValueError):
        generalized_airy(1, 51.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            generalized_airy(1, bad)
        with pytest.raises(ValueError, match="finite"):
            airy_table(3, [0.0, bad, 1.0])
    with pytest.raises(ValueError, match="validated range"):
        airy_table(1, [-1.0, -XI_LIMIT - 1e-9])


def test_derivs_must_be_a_nonnegative_integer():
    xi = np.array([-2.0, 0.0, 1.5])
    for bad in (-1, -2, 1.5):
        with pytest.raises(ValueError, match="derivs must be an integer >= 0"):
            airy_table(1, xi, derivs=bad)
    # derivs = 0, as a plain or a numpy integer, is the profile itself
    assert np.array_equal(airy_table(1, xi, derivs=np.int64(0)), airy_table(1, xi))
    assert airy_table(3, xi, derivs=0).shape == xi.shape


def test_import_loads_no_scipy():
    code = "import sys, chiralwalk; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(chiralwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
        assert abs(generalized_airy(3, xi)) > 0.05
    with pytest.raises(ValueError):
        airy_ode_residual(2, 0.0)


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


def test_measure_edge_checks_the_window_before_evolving(monkeypatch, tmp_path):
    # an overlapping window, or a ring above the cap, ends measure_edge and
    # the edge command before anything is evolved
    def refuse(*args, **kwargs):
        raise AssertionError("evolved")

    monkeypatch.setattr(chiralwalk.airy, "evolve", refuse)
    p = WalkParams(0.25, PI / 2)
    internal = next(fr for fr in cone_topology(p).fronts if abs(fr.velocity + 1.0) < 1e-9)
    with pytest.raises(ValueError, match="overlaps"):
        measure_edge(p, internal, 100.0, window=90)
    with pytest.raises(ValueError, match="lattice"):
        measure_edge(WalkParams(1 / 16, PI / 2), _left_front(1 / 16), 100.0, window=300, lattice=640)
    base = ["edge", "--g", "0.25", "--phi", repr(PI / 2), "--front", "internal"]
    out = tmp_path / "o"
    assert cli.main([*base, "--t", "100", "--window", "90", "--out", str(out)]) == 2
    assert not out.exists()
    # a huge t is a guard violation (exit 3), found before evolving too
    for t in ("1e12", "1e300"):
        assert cli.main([*base, "--t", t, "--out", str(out)]) == 3
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lattice", [None, 640])
def test_measure_edge_refuses_nan_time(monkeypatch, lattice):
    monkeypatch.setattr(chiralwalk.airy, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    with pytest.raises(ValueError, match="needs t > 0, got t=nan"):
        measure_edge(WalkParams(1 / 16, PI / 2), _left_front(1 / 16), math.nan, 20, lattice)


def test_measure_edge_window_past_lattice_rejected():
    # ring holds the causal cone but not the requested window
    p = WalkParams(1 / 16, PI / 2)
    front = _left_front(1 / 16)
    with pytest.raises(ValueError, match="lattice"):
        measure_edge(p, front, 100.0, window=300, lattice=640)


def test_extract_staircase_requires_uniform_grid():
    front = _left_front(1 / 16)
    xi = np.concatenate([np.linspace(0, 3, 60), np.linspace(3.2, 9, 40)])
    prof = predict_edge(front, 1e4, xi)
    with pytest.raises(ValueError, match="uniform"):
        extract_staircase(prof)


def test_ode_residual_takes_every_odd_order():
    # a front's order is at most 4, so 1 and 3 are the only odd orders; the
    # fixed contour of A_5 is wrong below xi ~ -38 (0.0746 at xi = -50,
    # against 0.0624 from the series), so k = 5 and beyond are refused,
    # and even orders have no real profile
    for k in (2, 4, 5, 6, 7):
        for xi in (-50.0, 0.0):
            with pytest.raises(ValueError, match="orders 1 and 3 only"):
                airy_ode_residual(k, xi)
            with pytest.raises(ValueError, match="orders 1 and 3 only"):
                generalized_airy(k, xi)


def test_edge_scale():
    front = _left_front(1 / 16)
    assert edge_scale(front, 1e4) == pytest.approx((0.5 * 1e4) ** (1 / 3), rel=1e-12)
