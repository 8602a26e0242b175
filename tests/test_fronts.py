import math

import numpy as np
import pytest

from chiralwalk import (
    ConeTopology,
    WalkParams,
    cone_topology,
    critical_coupling,
    degeneracy,
    find_extremal_fronts,
    omega_deriv,
)
from chiralwalk.fronts import TOL_ROOT_MAX

from oracles import quartic_crosscheck

PI = math.pi


def test_two_fronts_below_critical():
    fronts = find_extremal_fronts(WalkParams(1 / 16, PI / 2))
    assert len(fronts) == 2
    left, right = fronts  # sorted by velocity
    assert left.q_star == pytest.approx(PI / 2, abs=1e-12)
    assert left.velocity == pytest.approx(-1.75, abs=1e-13)
    assert right.q_star == pytest.approx(-PI / 2, abs=1e-12)
    assert right.velocity == pytest.approx(2.25, abs=1e-13)
    assert [f.order for f in fronts] == [1, 1]
    assert left.chirality == "left" and right.chirality == "right"


def test_four_fronts_above_critical():
    g = 0.25
    fronts = find_extremal_fronts(WalkParams(g, PI / 2))
    assert len(fronts) == 4
    degen = [f for f in fronts if abs(f.velocity + 1.5) < 1e-10]
    assert len(degen) == 2
    for f in degen:
        assert abs(math.sin(f.q_star) - 1.0 / (8 * g)) < 1e-10
    qs = sorted(f.q_star for f in degen)
    assert qs[0] == pytest.approx(PI / 6, abs=1e-10)
    assert qs[1] == pytest.approx(5 * PI / 6, abs=1e-10)


def test_third_order_front_at_critical():
    fronts = find_extremal_fronts(WalkParams(0.125, PI / 2))
    assert [f.order for f in fronts] == [3, 1]
    third = fronts[0]
    assert third.q_star == pytest.approx(PI / 2, abs=1e-9)
    assert third.velocity == pytest.approx(-1.5, abs=1e-12)
    # quartic velocity profile near the front: kappa_3 = w^(5)/4! = 1/4
    assert third.kappa == pytest.approx(0.25, abs=1e-9)


def test_pm_half_pi_always_extremal_at_pure_imaginary_phase():
    for g in (0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
        fronts = find_extremal_fronts(WalkParams(g, PI / 2))
        qs = np.array([f.q_star for f in fronts])
        assert np.min(np.abs(qs - PI / 2)) < 1e-9
        assert np.min(np.abs(qs + PI / 2)) < 1e-9


def test_front_set_reflection_symmetric_at_real_coupling():
    fronts = find_extremal_fronts(WalkParams(0.4, 0.0))
    vels = sorted(f.velocity for f in fronts)
    np.testing.assert_allclose(vels, [-v for v in reversed(vels)], atol=1e-10)
    qs = sorted(f.q_star for f in fronts)
    for q in qs:
        assert any(abs(q + q2) < 1e-9 or abs(abs(q) - PI) < 1e-9 for q2 in qs)


def test_order_invariant_against_derivatives():
    for g, phi in [(0.05, 0.3), (0.3, PI / 2), (0.125, PI / 2), (0.25, 0.0)]:
        for f in find_extremal_fronts(WalkParams(g, phi)):
            p = WalkParams(g, phi)
            assert abs(omega_deriv(f.q_star, 2, p)) < 1e-9
            for j in range(3, f.order + 2):
                assert abs(omega_deriv(f.q_star, j, p)) < 1e-8
            assert abs(omega_deriv(f.q_star, f.order + 2, p)) >= 1e-8
            assert f.kappa != 0.0


def test_topology_classification():
    assert cone_topology(WalkParams(1 / 16, PI / 2)).topology is ConeTopology.ONE_CONE
    d = cone_topology(WalkParams(0.25, PI / 2))
    assert d.topology is ConeTopology.TWO_OVERLAPPING_CONES
    assert d.v_lm == pytest.approx(-1.5, abs=1e-12)
    assert d.v_rm == pytest.approx(3.0, abs=1e-12)
    assert cone_topology(WalkParams(0.35, PI / 4)).topology is ConeTopology.TWO_NESTED_CONES
    assert cone_topology(WalkParams(0.125, PI / 2)).topology is ConeTopology.CRITICAL_THIRD_ORDER


def test_critical_second_order_at_exact_real_coupling():
    # g_c at phi=0 is exactly 1/4: a tangential root at q = -pi with a
    # second-order front classification
    d = cone_topology(WalkParams(0.25, 0.0))
    assert d.topology is ConeTopology.CRITICAL_SECOND_ORDER
    orders = sorted(f.order for f in d.fronts)
    assert orders == [1, 1, 2]
    internal = next(f for f in d.fronts if f.order == 2)
    assert abs(abs(internal.q_star) - PI) < 1e-7
    assert internal.velocity == pytest.approx(0.0, abs=1e-10)


def test_degeneracy_count():
    d = cone_topology(WalkParams(0.25, PI / 2))
    left = next(f for f in d.fronts if f.velocity == d.v_lm)
    right = next(f for f in d.fronts if f.velocity == d.v_rm)
    assert degeneracy(d, left) == 2
    assert degeneracy(d, right) == 1


def test_critical_coupling_values():
    assert critical_coupling(PI / 2, tol_g=1e-8) == pytest.approx(0.125, abs=1e-8)
    assert critical_coupling(0.0, tol_g=1e-6) == pytest.approx(0.25, abs=1e-6)
    assert critical_coupling(PI / 4, tol_g=1e-6) == pytest.approx(0.225, abs=1e-3)


def test_critical_coupling_exact_at_window_edges():
    assert critical_coupling(PI / 2) == pytest.approx(0.125, abs=1e-12)
    assert critical_coupling(0.0) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("phi", np.linspace(0.0, PI / 2, 7))
def test_front_count_changes_at_critical_coupling(phi):
    # the newborn pair splits like sqrt(g - g_c): 4e-4 in q at phi = pi/2
    # for g - g_c = 1e-8, and off the circle by as much just below g_c
    gc = critical_coupling(phi)
    for delta in (1e-4, 1e-6, 1e-8):
        assert len(find_extremal_fronts(WalkParams(gc - delta, phi))) == 2, delta
        assert len(find_extremal_fronts(WalkParams(gc + delta, phi))) == 4, delta


def test_orders_sum_to_four_above_critical_coupling():
    # a front's order is the multiplicity of its root cluster, so the four
    # roots of w'' above g_c are counted once however they are joined; just
    # above 1/8 at phi = pi/2 the triple at pi/2, pi/2 +- 4 sqrt(g - 1/8)
    # joins while its velocities still agree to 64 (g - 1/8)^2
    deltas = {phi: 10.0 ** np.arange(-12, -5) for phi in np.linspace(0.0, PI / 2, 13)}
    deltas[PI / 2] = np.concatenate([deltas[PI / 2], 1e-10 * np.arange(1, 301)])
    for phi, ds in deltas.items():
        gc = critical_coupling(phi)
        for g in gc + ds:
            assert g > gc
            assert sum(f.order for f in find_extremal_fronts(WalkParams(g, phi))) == 4, (g, phi)
    d = cone_topology(WalkParams(0.125 + 1e-9, PI / 2))
    assert [f.order for f in d.fronts] == [3, 1]
    assert d.fronts[0].kappa == pytest.approx(0.25, abs=1e-8)
    assert d.topology is ConeTopology.CRITICAL_THIRD_ORDER


def test_critical_coupling_validation():
    with pytest.raises(ValueError):
        critical_coupling(-0.1)
    for tol_g in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            critical_coupling(0.3, tol_g=tol_g)


def test_find_fronts_validation():
    # past TOL_ROOT_MAX a loose tolerance merges fronts, loses them (10 gives
    # [] at (0.3, 0.8)) or divides by zero in _polish (1)
    for tol_root in (-1.0, 0.0, math.nan, 1e-2, 1.0, 10.0, math.inf):
        with pytest.raises(ValueError, match="tol_root"):
            find_extremal_fronts(WalkParams(0.3, 0.8), tol_root=tol_root)
    default = find_extremal_fronts(WalkParams(0.3, 0.8))
    assert find_extremal_fronts(WalkParams(0.3, 0.8), tol_root=TOL_ROOT_MAX) == default


def test_quartic_contains_known_roots():
    # at phi = pi/2 the quartic factorizes as y^2 (64 g^2 y^2 + 1 - 64 g^2),
    # giving y = 0 (q = +-pi/2) and y = +-sqrt(3)/2 (q3 = pi/6, q4 = 5 pi/6)
    ys = quartic_crosscheck(0.25, PI / 2)
    assert any(abs(y) < 1e-9 for y in ys)
    assert any(abs(y - math.sqrt(3) / 2) < 1e-9 for y in ys)
    assert all(abs(y) <= 1 + 1e-12 for y in ys)


def test_quartic_bounded_at_small_coupling():
    ys = quartic_crosscheck(1e-3, 0.4)
    assert all(abs(y) <= 1 + 1e-12 for y in ys)
    with pytest.raises(ValueError):
        quartic_crosscheck(0.0, 0.4)


def unmatched_fronts(p, tol=1e-6):
    """Fronts whose cos(q*) is not a root of the squared-form quartic."""
    ys = quartic_crosscheck(p.g, p.phi)
    fronts = find_extremal_fronts(p)
    gap = lambda f: min((abs(math.cos(f.q_star) - y) for y in ys), default=math.inf)
    return fronts, [f for f in fronts if gap(f) >= tol]


def test_quartic_report_consistency():
    fronts, unmatched = unmatched_fronts(WalkParams(0.25, PI / 2))
    assert len(fronts) == 4 and not unmatched
    # the quartic is exactly the squared extremal condition, so every front
    # maps into its root set across the whole parameter plane (at phi = 0 it
    # degenerates into a perfect square, the hardest case numerically);
    # spurious extra roots from the squaring are tolerated
    rng = np.random.default_rng(14)
    for _ in range(25):
        p = WalkParams(rng.uniform(0.02, 1.0), rng.uniform(0.0, PI / 2))
        assert not unmatched_fronts(p)[1], p
    assert not unmatched_fronts(WalkParams(0.3, 0.0))[1]
