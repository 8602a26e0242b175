import math

import numpy as np
import pytest

from chiralwalk import WalkParams, canonicalize, group_velocity, omega, omega_deriv


def raw_band(q, g, phi):
    return 2 * np.cos(q) + 2 * g * np.cos(2 * q + phi)


def test_omega_values():
    assert omega(0.0, WalkParams(0.25, 0.0)) == pytest.approx(2.5, abs=1e-15)
    for g in (0.0, 0.1, 0.25, 0.9):
        assert omega(math.pi / 2, WalkParams(g, math.pi / 2)) == pytest.approx(0.0, abs=1e-15)


def test_omega_antisymmetry_at_pure_imaginary_phase():
    # w(q) = -w(pi - q) at phi = pi/2; in particular the two extra extremal
    # wave vectors q3 = arcsin(1/8g) and q4 = pi - q3 have opposite energies
    p = WalkParams(0.25, math.pi / 2)
    rng = np.random.default_rng(0)
    q = rng.uniform(-math.pi, math.pi, 200)
    np.testing.assert_allclose(omega(q, p), -omega(math.pi - q, p), atol=1e-14)
    q3 = math.asin(1.0 / (8 * p.g))
    assert omega(q3, p) == pytest.approx(-omega(math.pi - q3, p), abs=1e-15)


def test_periodicity():
    p = WalkParams(0.3, 0.7)
    rng = np.random.default_rng(1)
    q = rng.uniform(-50, 50, 10_000)
    np.testing.assert_allclose(omega(q + 2 * math.pi, p), omega(q, p), atol=1e-12)


def test_derivative_closed_forms():
    for g in (0.0, 1 / 16, 0.25, 0.5):
        p = WalkParams(g, math.pi / 2)
        assert omega_deriv(math.pi / 2, 1, p) == pytest.approx(-2 + 4 * g, abs=1e-14)
        assert omega_deriv(-math.pi / 2, 1, p) == pytest.approx(2 + 4 * g, abs=1e-14)
    # NN-only case reduces to 2 cos(q + m pi/2)
    p0 = WalkParams(0.0, 0.3)
    q = np.linspace(-3, 3, 17)
    for m in range(1, 5):
        np.testing.assert_allclose(
            omega_deriv(q, m, p0), 2 * np.cos(q + m * math.pi / 2), atol=1e-14
        )


def test_derivatives_against_finite_differences():
    p = WalkParams(0.3, 0.9)
    q = np.linspace(-math.pi, math.pi, 1000)
    h = 1e-5
    for m in range(1, 6):
        lower = omega(q, p) if m == 1 else omega_deriv(q, m - 1, p)
        fd = ((omega(q + h, p) if m == 1 else omega_deriv(q + h, m - 1, p))
              - (omega(q - h, p) if m == 1 else omega_deriv(q - h, m - 1, p))) / (2 * h)
        assert np.max(np.abs(fd - omega_deriv(q, m, p))) < 1e-6
        assert lower.shape == q.shape


def test_group_velocity_alias():
    p = WalkParams(0.2, 0.4)
    assert group_velocity(0.5, p) == omega_deriv(0.5, 1, p)


def test_derivative_order_validation():
    p = WalkParams(0.1, 0.0)
    with pytest.raises(ValueError):
        omega_deriv(0.0, 0, p)
    with pytest.raises(ValueError):
        omega_deriv(0.0, -2, p)


@pytest.mark.parametrize("m", [True, False, 1.0, "1"])
def test_derivative_order_must_be_an_integer(m):
    # True ran as m = 1: the velocity passed for an order
    p = WalkParams(0.1, 0.0)
    with pytest.raises(ValueError, match="derivative order must be an integer >= 1"):
        omega_deriv(0.3, m, p)
    assert omega_deriv(0.3, np.int64(1), p) == group_velocity(0.3, p)


def test_walkparams_validation():
    with pytest.raises(ValueError):
        WalkParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        WalkParams(0.1, -0.2)
    with pytest.raises(ValueError):
        WalkParams(0.1, 2.0)
    with pytest.raises(ValueError):
        WalkParams(math.nan, 0.0)


def test_canonicalize_identity_cases():
    r = canonicalize(0.25, 0.0)
    assert r.params == WalkParams(0.25, 0.0)
    assert (r.q_sign, r.q_shift, r.omega_sign) == (1, 0.0, 1)
    r = canonicalize(0.1, 2 * math.pi)
    assert r.params.phi == pytest.approx(0.0, abs=1e-15)
    assert (r.q_sign, r.omega_sign) == (1, 1)


def test_canonicalize_pi_phase():
    r = canonicalize(0.25, math.pi)
    assert r.params == WalkParams(0.25, 0.0)


@pytest.mark.parametrize("g,phi_raw", [
    (0.25, math.pi),
    (0.3, 2.5),
    (0.3, 4.0),
    (0.15, 5.9),
    (-0.2, 0.7),
    (0.4, -1.3),
])
def test_canonicalize_recovers_raw_band(g, phi_raw):
    r = canonicalize(g, phi_raw)
    assert 0.0 <= r.params.phi <= math.pi / 2
    assert r.params.g >= 0
    rng = np.random.default_rng(7)
    q = rng.uniform(-math.pi, math.pi, 64)
    raw = raw_band(q, g, phi_raw)
    via = r.omega_sign * omega(r.map_q(q), r.params)
    np.testing.assert_allclose(via, raw, atol=1e-13)


def test_canonicalize_full_phase_circle():
    # the reduction identity holds through every branch of the fold,
    # including the boundary phases pi/2, pi, 3pi/2 and whole turns
    rng = np.random.default_rng(3)
    q = rng.uniform(-math.pi, math.pi, 32)
    for phi_raw in np.linspace(-2 * math.pi, 4 * math.pi, 97):
        r = canonicalize(0.3, float(phi_raw))
        raw = raw_band(q, 0.3, phi_raw)
        np.testing.assert_allclose(
            r.omega_sign * omega(r.map_q(q), r.params), raw, atol=1e-12
        )


def test_canonicalize_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonicalize(math.inf, 0.0)
    with pytest.raises(ValueError):
        canonicalize(0.1, math.nan)
