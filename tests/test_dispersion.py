import math
import re

import numpy as np
import pytest

from chiralwalk import WalkParams, omega, omega_deriv


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
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer in [1, 1022], got m={m!r}")):
        omega_deriv(0.3, m, p)
    assert omega_deriv(0.3, np.int64(1), p) == omega_deriv(0.3, 1, p)


def test_walkparams_validation():
    with pytest.raises(ValueError):
        WalkParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        WalkParams(0.1, -0.2)
    with pytest.raises(ValueError):
        WalkParams(0.1, 2.0)
    with pytest.raises(ValueError):
        WalkParams(math.nan, 0.0)


@pytest.mark.parametrize("g, phi", [(True, 0.5), (0.3, False), (np.True_, 0.5), (0.3, np.False_)])
def test_walkparams_refuses_a_bool_coupling(g, phi):
    # True built g = True, read as g = 1 by every closed form
    name, value = ("g", g) if isinstance(g, (bool, np.bool_)) else ("phi", phi)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a ") + f".*, got {name}={re.escape(repr(value))}$"):
        WalkParams(g, phi)
    assert WalkParams(np.float64(0.3), 0) == WalkParams(0.3, 0.0)


def test_band_identities_carry_any_phase_into_the_window():
    # the three identities of WalkParams' docstring, from the band at a
    # coupling outside the window to omega inside it
    q = np.random.default_rng(7).uniform(-math.pi, math.pi, 64)
    for g in (0.1, 0.3):
        for phi in (0.0, 0.4, math.pi / 2):
            p = WalkParams(g, phi)
            np.testing.assert_allclose(raw_band(q, -g, phi + math.pi), omega(q, p), atol=1e-14)
            np.testing.assert_allclose(raw_band(q, g, 2 * math.pi - phi), omega(-q, p), atol=1e-14)
            np.testing.assert_allclose(raw_band(q, g, math.pi - phi), -omega(math.pi - q, p), atol=1e-14)
