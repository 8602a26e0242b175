import math
import random
import re
import sys
import threading
import tracemalloc
from typing import NamedTuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralwalk import (
    ConeTopology,
    WalkParams,
    cone_topology,
    critical_coupling,
    edge_scale,
    omega_deriv,
)
from chiralwalk.dispersion import PHI_MAX
from chiralwalk.fronts import (
    BAND_2, BAND_3_G, BAND_3_PHI, G_SEED, _quartic_roots, is_one_cone, same_velocity, scan_fronts
)

from oracles import count_topology, per_point_critical_coupling, per_point_fronts, quartic_crosscheck

PI = math.pi
EPS = sys.float_info.epsilon
# the bound of a simple root q* of w'' against the true root r,
# K_ROOT (ulp(r) + eps (2 + 8 g) / |w'''(r)|): Newton in float64 stops where
# the rounding of w'', a few eps (2 + 8 g), moves its root; 8 leaves a
# margin of 2 over that rounding, and was fixed before the comparisons
K_ROOT = 8.0


class Front(NamedTuple):
    """One row of a FrontTable."""

    q_star: float
    velocity: float
    order: int
    kappa: float


def grouped(points):
    """(fronts, topology) of each point, from one scan_fronts call over all of them.

    fronts are the point's rows of the table as Fronts, sorted by velocity,
    then by q*.
    """
    table = scan_fronts(points)
    rows = [Front(*row) for row in zip(*(column.tolist() for column in table[1:5]))]
    ends = np.searchsorted(table.point, np.arange(len(points) + 1)).tolist()
    return [(rows[a:b], topology) for a, b, topology in zip(ends[:-1], ends[1:], table.topology, strict=True)]


def holds(diagram, fronts, topology):
    """True when the FrontDiagram has these fronts and this topology, v_lm and v_rm at its ends."""
    got = [Front(f.q_star, f.velocity, f.order, f.kappa) for f in diagram.fronts]
    return (got, diagram.topology, diagram.v_lm, diagram.v_rm) == (
        fronts, topology, fronts[0].velocity, fronts[-1].velocity)


def point_bits(table, i):
    """The bytes of point i's slice of every FrontTable column but point, and its topology."""
    a, b = np.searchsorted(table.point, [i, i + 1]).tolist()
    return [column[a:b].tobytes() for column in table[1:5]], table.topology[i]


def test_two_fronts_below_critical():
    fronts = cone_topology(WalkParams(1 / 16, PI / 2)).fronts
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
    fronts = cone_topology(WalkParams(g, PI / 2)).fronts
    assert len(fronts) == 4
    degen = [f for f in fronts if abs(f.velocity + 1.5) < 1e-10]
    assert len(degen) == 2
    for f in degen:
        assert abs(math.sin(f.q_star) - 1.0 / (8 * g)) < 1e-10
    qs = sorted(f.q_star for f in degen)
    assert qs[0] == pytest.approx(PI / 6, abs=1e-10)
    assert qs[1] == pytest.approx(5 * PI / 6, abs=1e-10)


def test_third_order_front_at_critical():
    fronts = cone_topology(WalkParams(0.125, PI / 2)).fronts
    assert [f.order for f in fronts] == [3, 1]
    third = fronts[0]
    assert third.q_star == pytest.approx(PI / 2, abs=1e-9)
    assert third.velocity == pytest.approx(-1.5, abs=1e-12)
    # quartic velocity profile near the front: kappa_3 = w^(5)/4! = 1/4
    assert third.kappa == pytest.approx(0.25, abs=1e-9)


def test_pm_half_pi_always_extremal_at_pure_imaginary_phase():
    for g in (0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
        fronts = cone_topology(WalkParams(g, PI / 2)).fronts
        qs = np.array([f.q_star for f in fronts])
        assert np.min(np.abs(qs - PI / 2)) < 1e-9
        assert np.min(np.abs(qs + PI / 2)) < 1e-9


def test_front_set_reflection_symmetric_at_real_coupling():
    fronts = cone_topology(WalkParams(0.4, 0.0)).fronts
    vels = sorted(f.velocity for f in fronts)
    np.testing.assert_allclose(vels, [-v for v in reversed(vels)], atol=1e-10)
    qs = sorted(f.q_star for f in fronts)
    for q in qs:
        assert any(abs(q + q2) < 1e-9 or abs(abs(q) - PI) < 1e-9 for q2 in qs)


def test_order_invariant_against_derivatives():
    for g, phi in [(0.05, 0.3), (0.3, PI / 2), (0.125, PI / 2), (0.25, 0.0)]:
        for f in cone_topology(WalkParams(g, phi)).fronts:
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


@pytest.mark.parametrize("phi", [0.0, 0.8, 1.5, PI / 2 - 1e-3])
@pytest.mark.parametrize("eps", [1e-10, 1e-9, 1e-8, 1e-7])
def test_pair_born_at_critical_coupling_nests_the_cones(phi, eps):
    # just above g_c the internal pair agrees in velocity to 4e-16 .. 7e-11,
    # within TOL_DEGEN, but it is not the slowest pair: the cones are nested
    d = cone_topology(WalkParams(critical_coupling(phi) * (1.0 + eps), phi))
    assert d.topology is ConeTopology.TWO_NESTED_CONES, (phi, eps)


@pytest.mark.parametrize("g, phi", [(0.13, PI / 2), (1 / 4, PI / 2), (1 / 2, PI / 2), (1 / 4, PI / 2 - 1e-10)])
def test_slowest_pair_co_moving_overlaps_the_cones(g, phi):
    # the mirror pair of phi = pi/2 is the slowest; 1e-10 off pi/2 its two
    # velocities are still 1.7e-10 apart, within TOL_DEGEN
    d = cone_topology(WalkParams(g, phi))
    assert d.topology is ConeTopology.TWO_OVERLAPPING_CONES, (g, phi)
    assert same_velocity(d.fronts[0].velocity, d.fronts[1].velocity)


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
    # the fronts that share each outer front's velocity, counted as edge.json's
    # degeneracy is: the overlapping cones' left pair co-moves
    d = cone_topology(WalkParams(0.25, PI / 2))
    shared = [sum(same_velocity(f.velocity, v) for f in d.fronts) for v in (d.v_lm, d.v_rm)]
    assert shared == [2, 1]


def test_critical_coupling_values():
    assert critical_coupling(PI / 2) == pytest.approx(0.125, abs=1e-8)
    assert critical_coupling(0.0) == pytest.approx(0.25, abs=1e-6)
    assert critical_coupling(PI / 4) == pytest.approx(0.225, abs=1e-3)


def test_is_one_cone_equals_the_scan_topology():
    # the closed-form phase against the scan's topology: a dense (phi, g)
    # grid, the Lifshitz line at g_c (1 + eps) across both edges of the
    # order-2 band, and the order-3 corner across both edges of its band
    points = [WalkParams(g, phi) for phi in np.linspace(0.0, PHI_MAX, 35).tolist()
              for g in np.linspace(0.0, 0.5, 257).tolist()]
    eps = [0.0, 1e-6, 1e-9] + [BAND_2 * (1.0 + d) for d in (-1e-3, 0.0, 1e-3)]
    for phi in [0.0, 0.3, 0.8, 1.2, PHI_MAX - 1e-3, PHI_MAX]:
        g_c = critical_coupling(phi)
        points += [WalkParams(g_c * (1.0 + s * e), phi) for e in eps for s in (1.0, -1.0)]
    for dg in (0.0, BAND_3_G * 0.999, BAND_3_G * 1.001):
        for dphi in (0.0, BAND_3_PHI * 0.999, BAND_3_PHI * 1.001):
            points += [WalkParams(0.125 + s * dg, PHI_MAX - dphi) for s in (1.0, -1.0)]
    table = scan_fronts(points)
    one = [top is ConeTopology.ONE_CONE for top in table.topology]
    assert [is_one_cone(p) for p in points] == one
    assert 0 < sum(one) < len(points)


@pytest.mark.parametrize("phi", [True, False, np.True_])
def test_critical_coupling_refuses_a_bool_phase(phi):
    # True gave g_c(1.0) = 0.2076
    with pytest.raises(ValueError, match=re.escape(f"phi must be a finite real number in [0, {PHI_MAX!r}], got phi={phi!r}")):
        critical_coupling(phi)


def test_string_phase_and_time_are_refused():
    # each raised TypeError from a comparison
    with pytest.raises(ValueError, match=re.escape(f"phi must be a finite real number in [0, {PHI_MAX!r}], got phi='0.3'")):
        critical_coupling("0.3")
    front = cone_topology(WalkParams(0.3, 0.8)).fronts[0]
    with pytest.raises(ValueError, match=re.escape("t must be a finite real number in [0, inf), got t='5'")):
        edge_scale(front, "5")


def test_critical_coupling_exact_at_window_edges():
    assert critical_coupling(PI / 2) == 0.125
    assert critical_coupling(0.0) == 0.25


@pytest.mark.parametrize("phi", np.linspace(0.0, PI / 2, 7))
def test_front_count_changes_at_critical_coupling(phi):
    # the newborn pair splits like sqrt(g - g_c): 4e-4 in q at phi = pi/2
    # for g - g_c = 1e-8, and off the circle by as much just below g_c
    gc = critical_coupling(phi)
    for delta in (1e-4, 1e-6, 1e-8):
        assert len(cone_topology(WalkParams(gc - delta, phi)).fronts) == 2, delta
        assert len(cone_topology(WalkParams(gc + delta, phi)).fronts) == 4, delta


def test_orders_sum_to_four_above_critical_coupling():
    # the four roots of w'' above g_c are counted once in every band: as
    # [1, 2, 1] in the order-2 band, as [3, 1] in the order-3 band, where the
    # triple at pi/2, pi/2 +- 4 sqrt(g - 1/8) still agrees in velocity to
    # 64 (g - 1/8)^2, and as four simple fronts off the bands
    deltas = {phi: 10.0 ** np.arange(-12, -5) for phi in np.linspace(0.0, PI / 2, 13)}
    deltas[PI / 2] = np.concatenate([deltas[PI / 2], 1e-10 * np.arange(1, 301)])
    for phi, ds in deltas.items():
        gc = critical_coupling(phi)
        for g in gc + ds:
            assert g > gc
            assert sum(f.order for f in cone_topology(WalkParams(g, phi)).fronts) == 4, (g, phi)
    d = cone_topology(WalkParams(0.125 + 1e-9, PI / 2))
    assert [f.order for f in d.fronts] == [3, 1]
    assert d.fronts[0].kappa == pytest.approx(0.25, abs=1e-8)
    assert d.topology is ConeTopology.CRITICAL_THIRD_ORDER


def phase_diagram_count(p, fronts):
    """p's fronts are 2 + 2 [g > g_c] simple roots of w'', each at its own q*."""
    distinct = len({fr.q_star for fr in fronts}) == len(fronts)
    return distinct and [fr.order for fr in fronts] == [1] * (4 if p.g > critical_coupling(p.phi) else 2)


def test_front_count_off_the_bands_is_the_phase_diagram():
    # uniform points, and points near the Lifshitz line but outside the
    # order-2 band, every one at least 1e-6 off phi = pi/2
    rng = np.random.default_rng(28)
    phi = rng.uniform(0.0, PI / 2 - 1e-6, 4000)
    eps = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(np.log10(1.5 * BAND_2), -2.0, 2000)
    g = np.concatenate([rng.uniform(0.0, 0.6, 2000), [critical_coupling(f) for f in phi[2000:]] * (1 + eps)])
    points = [WalkParams(gi, fi) for gi, fi in zip(g.tolist(), phi.tolist())]
    for p, (fronts, _) in zip(points, grouped(points), strict=True):
        assert phase_diagram_count(p, fronts), p


def test_multiple_front_sits_at_the_closed_form_root():
    # q* = q_c + pi with q_c = atan(tan(pi/4 - phi/2)^(1/3)) - pi/4 - phi/2,
    # the double root of w'' at g_c: -pi at phi = 0 and pi/2 at phi = pi/2
    for phi in np.linspace(0.0, PI / 2, 13).tolist():
        q_c = math.atan(math.tan(PI / 4 - phi / 2) ** (1.0 / 3.0)) - PI / 4 - phi / 2
        want = (q_c + PI + PI) % (2 * PI) - PI
        gc = critical_coupling(phi)
        for g in (gc, gc * (1 - 0.5 * BAND_2), gc * (1 + 0.5 * BAND_2)):
            (front,) = [fr for fr in cone_topology(WalkParams(g, phi)).fronts if fr.order > 1]
            assert front.order == (3 if phi == PI / 2 else 2)
            assert front.q_star == want, (g, phi)
        p = WalkParams(gc, phi)
        assert abs(omega_deriv(want, 2, p)) < 1e-14 and abs(omega_deriv(want, 3, p)) < 1e-14
    assert cone_topology(WalkParams(0.25, 0.0)).fronts[1].q_star == -PI
    assert cone_topology(WalkParams(0.125, PI / 2)).fronts[0].q_star == PI / 2


def test_order_three_band_is_two_dimensional():
    # at the float below pi/2 the cusp of the Lifshitz line keeps the three
    # roots of w'' near pi/2, real or complex, within ~1e-5 of it: one
    # triple front in velocity, as at pi/2 itself
    below = math.nextafter(PI / 2, 0.0)
    for g in (0.125, 0.125 - 0.5 * BAND_3_G, 0.125 + 0.5 * BAND_3_G, critical_coupling(below)):
        d = cone_topology(WalkParams(g, below))
        assert [fr.order for fr in d.fronts] == [3, 1], g
        assert d.fronts[0].kappa == pytest.approx(0.25, abs=1e-8)
        assert d.topology is ConeTopology.CRITICAL_THIRD_ORDER


def test_points_just_outside_each_band_read_two_or_four_fronts():
    points = []
    for phi in [*np.linspace(0.0, 1.5, 7).tolist(), PI / 2 - 1e-6, PI / 2 - 2 * BAND_3_PHI]:
        gc = critical_coupling(phi)
        points += [WalkParams(gc * (1 + s * 2 * BAND_2), phi) for s in (-1, 1)]
    for phi in (PI / 2, math.nextafter(PI / 2, 0.0), PI / 2 - 0.5 * BAND_3_PHI, PI / 2 - 2 * BAND_3_PHI):
        points += [WalkParams(0.125 + s * 2 * BAND_3_G, phi) for s in (-1, 1)]
    points.append(WalkParams(0.125, PI / 2 - 2 * BAND_3_PHI))
    for p, (fronts, _) in zip(points, grouped(points), strict=True):
        assert phase_diagram_count(p, fronts), p


def test_critical_coupling_validation():
    # the window is WalkParams': the float just past pi/2 is refused, pi/2 is not
    for phi in (-0.1, 1.6, math.nan, math.nextafter(PI / 2, 2.0)):
        with pytest.raises(ValueError, match=re.escape(f"phi must be a finite real number in [0, {PHI_MAX!r}], got phi={phi!r}")):
            critical_coupling(phi)
    assert critical_coupling(PI / 2) == pytest.approx(0.125, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_find_fronts_refuses_a_coupling_that_overflows():
    # the largest g whose 64 g is finite still scans cleanly, the next float up is refused
    g = sys.float_info.max / 64.0
    assert len(cone_topology(WalkParams(g, 0.8)).fronts) == 4
    for bad in (math.nextafter(g, math.inf), 2.3e307, sys.float_info.max):
        with pytest.raises(ValueError, match=re.escape(f"g={bad!r} ")):
            cone_topology(WalkParams(bad, 0.8))


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
    fronts = cone_topology(p).fronts
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


def five_phase_sweep_points():
    """The published five-phase sweep, g in [0, 0.6] on 241 steps, plus the hard points.

    Those are g = 0 and g just under G_SEED (seeded, never on the companion
    stack), the third-order front at g = 1/8 and phi = pi/2, the zone-seam
    root at g = 1/4 and phi = 0, and points on and near the Lifshitz line,
    inside and outside the critical bands.
    """
    gs = np.linspace(0.0, 0.6, 241).tolist()
    points = [WalkParams(g, phi) for phi in (0.0, 0.3, 0.8, 1.2, PI / 2) for g in gs]
    hard = [(0.0, 0.8), (0.5 * G_SEED, 0.8), (math.nextafter(G_SEED, 0.0), PI / 2),
            (G_SEED, 0.0), (0.125, PI / 2), (0.25, 0.0), (critical_coupling(0.8), 0.8)]
    deltas = [0.0, *(s * 10.0**-k for k in range(3, 13) for s in (-1, 1))]
    hard += [(critical_coupling(phi) + d, phi) for phi in np.linspace(0.0, PI / 2, 13).tolist()
             for d in deltas]
    return points + [WalkParams(g, phi) for g, phi in hard]


def root_bound(q, p):
    """K_ROOT (ulp(q) + eps (2 + 8 g) / |w'''(q)|), the bound of a simple front at q."""
    return K_ROOT * (math.ulp(q) + EPS * (2.0 + 8.0 * p.g) / abs(omega_deriv(q, 3, p)))


def angular_gap(a, b):
    return abs((a - b + PI) % (2.0 * PI) - PI)


def paired(fronts, want):
    """Each front beside the front of want nearest to it in q, of the same order.

    Fronts of one velocity, as the mirror pair of phi = pi/2, may sort in
    either order when their velocities differ in the last bit.
    """
    left = list(want)
    for front in fronts:
        ref = min((f for f in left if f.order == front.order), key=lambda f: angular_gap(f.q_star, front.q_star))
        left.remove(ref)
        yield front, ref


def test_batched_scan_equals_per_point_oracle():
    # each point alone through np.roots and a scalar Newton polish: the same
    # counts, orders and topology, and each front within the root bound; a
    # front's velocity and kappa move with its q* by w'' ~ 0 and by w''''/2
    points = five_phase_sweep_points()
    for p, (fronts, topology) in zip(points, grouped(points), strict=True):
        want = per_point_fronts(p)
        assert sorted(f.order for f in fronts) == sorted(f.order for f in want), p
        assert topology is count_topology(want)[0], p
        for got, ref in paired(fronts, want):
            dq = root_bound(ref.q_star, p) if got.order == 1 else 0.0
            assert angular_gap(got.q_star, ref.q_star) <= dq, (p, got, ref)
            assert abs(got.velocity - ref.velocity) <= K_ROOT * EPS * (2.0 + 4.0 * p.g), (p, got, ref)
            dkappa = (1.0 + 16.0 * p.g) * dq + K_ROOT * EPS * (2.0 + 16.0 * p.g)
            assert abs(got.kappa - ref.kappa) <= dkappa, (p, got, ref)
        assert holds(cone_topology(p), fronts, topology), p


def mpmath_root(q, p):
    """The root of w'' at 200 bits nearest the float q, by Newton from q."""
    with mp.workprec(200):
        g, phi, r = mp.mpf(p.g), mp.mpf(p.phi), mp.mpf(q)
        for _ in range(10):
            r += (mp.cos(r) + 4 * g * mp.cos(2 * r + phi)) / (mp.sin(r) + 8 * g * mp.sin(2 * r + phi))
        return float(r)


def accuracy_sweep_points():
    """The benchmark's six-phi grid at three offsets, random g <= 5, and g_c (1 +- 1e-10 .. 1e-6)."""
    phis = [0.0, PI / 6, PI / 4, PI / 3, 5 * PI / 12, PI / 2]
    points = [WalkParams(g + offset, phi) for offset in (0.0, 0.0013, 0.0037) for phi in phis
              for g in np.linspace(0.02, 0.3, 57).tolist()]
    rng = np.random.default_rng(43)
    points += [WalkParams(g, phi) for g, phi in zip(rng.uniform(0.0, 5.0, 600).tolist(),
                                                     rng.uniform(0.0, PI / 2, 600).tolist())]
    for phi in np.linspace(0.0, PI / 2, 13).tolist():
        gc = critical_coupling(phi)
        points += [WalkParams(gc * (1.0 + s * 10.0**-k), phi) for k in range(6, 11) for s in (-1, 1)]
    return points


def test_simple_fronts_within_the_root_bound_of_a_200_bit_root():
    points = accuracy_sweep_points()
    checked = 0
    for p, (fronts, _) in zip(points, grouped(points), strict=True):
        for front in fronts:
            if front.order == 1:
                r = mpmath_root(front.q_star, p)
                assert abs(front.q_star - r) <= root_bound(r, p), (p, front.q_star, r)
                checked += 1
    assert checked > 5000


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.floats(G_SEED, sys.float_info.max / 64.0), st.floats(0.0, PI / 2))
@example(G_SEED, 0.0)
@example(G_SEED, PI / 2)
@example(0.125, PI / 2)
@example(1.0 / (8.0 * math.sqrt(2.0)), PI / 2)  # a double root of the resolvent cubic
@example(1e150, 0.8)  # b^2 underflows
@example(sys.float_info.max / 64.0, 0.0)
@example(sys.float_info.max / 64.0, PI / 2)
def test_closed_form_roots_are_finite_and_count_the_phase(g, phi):
    # four finite roots at every admitted coupling from G_SEED up, and the
    # fronts read from them are those the phase counts
    z = _quartic_roots(np.array([g]), np.array([phi]))
    assert z.shape == (1, 4) and np.isfinite(z).all(), (g, phi, z)
    p = WalkParams(g, phi)
    diagram = cone_topology(p)
    assert (diagram.topology, diagram.v_lm, diagram.v_rm) == count_topology(diagram.fronts), p
    orders = sorted(f.order for f in diagram.fronts)
    if diagram.topology is ConeTopology.CRITICAL_SECOND_ORDER:
        assert orders == [1, 1, 2], p
    elif diagram.topology is ConeTopology.CRITICAL_THIRD_ORDER:
        assert orders == [1, 3], p
    else:
        assert phase_diagram_count(p, diagram.fronts), p


def test_fronts_same_bits_alone_and_in_a_shuffled_sweep():
    # one shuffled batch of 20 000 points, enough for numpy to reuse its
    # temporaries in place (from 256 KiB, 2^14 complex values): the accuracy
    # sweep, random points, both critical bands, a seeded point and huge
    # couplings.  Every tenth point, and each of the special ones, alone has
    # the bits of its slice of the sweep's columns
    rng = np.random.default_rng(44)
    special = [WalkParams(0.25, 0.0), WalkParams(0.125, PI / 2), WalkParams(0.5 * G_SEED, 0.8),
               WalkParams(1e200, 0.3), WalkParams(sys.float_info.max / 64.0, 1.2)]
    points = accuracy_sweep_points() + special + [
        WalkParams(g, phi) for g, phi in zip(rng.uniform(0.0, 2.0, 18239).tolist(), rng.uniform(0.0, PI / 2, 18239).tolist())
    ]
    random.Random(43).shuffle(points)
    assert len(points) == 20000
    table = scan_fronts(points)
    assert len(table.topology) == len(points)
    for i, p in enumerate(points):
        if i % 10 == 0 or p in special:
            assert point_bits(scan_fronts([p]), 0) == point_bits(table, i), p


def test_scan_calls_no_lapack_and_starts_no_thread(monkeypatch):
    # the quartic's roots are elementwise numpy arithmetic in the caller's thread
    def refuse(*args, **kwargs):
        raise AssertionError("the front scan called LAPACK or started a thread")

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    points = accuracy_sweep_points()
    table = scan_fronts(points)
    assert len(table.topology) == len(points) and np.isfinite(table.q_star).all()


def test_topology_equals_the_front_count_oracle():
    # the phase the scan reads off the closed form classifies each point as
    # counting its fronts does, batched and alone: 20 000 random points,
    # 3 000 of them at small g, the two critical bands and their edges at
    # ten phi, and the seeded points
    rng = np.random.default_rng(30)
    g = np.concatenate([rng.uniform(0.0, 1.0, 17000), 10.0 ** rng.uniform(-7.0, -3.0, 3000)])
    phi = rng.uniform(0.0, PI / 2, g.size)
    points = [WalkParams(gi, fi) for gi, fi in zip(g.tolist(), phi.tolist())]
    for f in [*np.linspace(0.0, PI / 2, 10).tolist(), math.nextafter(PI / 2, 0.0), PI / 2 - 2 * BAND_3_PHI]:
        gc = critical_coupling(f)
        eps = [0.0, *(s * m * BAND_2 for m in (0.5, 1.0, 2.0) for s in (-1, 1)),
               *(s * 10.0**-k for k in range(5, 15) for s in (-1, 1))]
        points += [WalkParams(gc * (1 + e), f) for e in eps]
        points += [WalkParams(0.125 + s * m * BAND_3_G, f) for m in (0.0, 0.5, 1.0, 2.0) for s in (-1, 1)]
    points += [WalkParams(gi, fi) for gi in (0.0, 0.5 * G_SEED, math.nextafter(G_SEED, 0.0))
               for fi in (0.0, 0.8, PI / 2)]
    seen = set()
    for p, (fronts, topology) in zip(points, grouped(points), strict=True):
        assert (topology, fronts[0].velocity, fronts[-1].velocity) == count_topology(fronts), p
        assert holds(cone_topology(p), fronts, topology), p
        seen.add(topology)
    assert seen == set(ConeTopology)


def test_critical_coupling_equals_per_point_oracle():
    # the sextic scan of the oracle is good to ~1.6e-15 up to phi = 1.5 and
    # loses digits near pi/2, where it meets the near-triple root
    phis = [*np.linspace(0.0, PI / 2, 13).tolist(), 0.8, 1.2, 1.5]
    for phi in [phi for phi in phis if phi <= 1.5]:
        want = per_point_critical_coupling(phi)
        assert abs(critical_coupling(phi) - want) <= 4e-15 * want, phi


def test_critical_coupling_matches_mpmath_to_roundoff():
    # the closed form at 40 digits: with the true pi its (q, g) is a double
    # root of w'', and with the package's float pi, the pi of PHI_MAX, it is
    # the reference that the float evaluation must match to roundoff
    def closed_form(phi, pi):
        phi = mp.mpf(phi)
        q = mp.atan(mp.cbrt(mp.tan(pi / 4 - phi / 2))) - pi / 4 - phi / 2
        c, s = mp.cos(2 * q + phi), mp.sin(2 * q + phi)
        g = -(4 * mp.cos(q) * c + 8 * mp.sin(q) * s) / (16 * c**2 + 64 * s**2)
        return g, 2 * mp.cos(q) + 8 * g * c, 2 * mp.sin(q) + 16 * g * s  # g, -w'', w'''

    phis = [*np.linspace(0.0, PHI_MAX, 257).tolist(), *(PHI_MAX - 10.0**-k for k in range(2, 17))]
    with mp.workdps(40):
        for phi in phis:
            assert max(abs(r) for r in closed_form(phi, mp.pi)[1:]) < 1e-30, phi
            want = abs(closed_form(phi, mp.mpf(PI))[0])  # q + pi gives -g
            assert abs(critical_coupling(phi) - want) <= 1e-15 * want, phi
    gc = [critical_coupling(phi) for phi in np.linspace(0.0, PHI_MAX, 10001).tolist()]
    assert all(a > b for a, b in zip(gc, gc[1:]))


PHIS = st.floats(0.0, PI / 2)
POINTS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), PHIS),
    st.tuples(st.sampled_from([0.0, 0.5 * G_SEED, G_SEED, 0.125, 0.25]), PHIS),
    PHIS.map(lambda phi: (critical_coupling(phi), phi)),  # on the Lifshitz line
)


def test_scan_is_batch_independent():
    # a point's fronts are bit-identical alone, in a sweep, and in any order
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(POINTS, min_size=1, max_size=8), st.randoms(use_true_random=False))
    def check(pairs, rnd):
        points = [WalkParams(g, phi) for g, phi in pairs]
        together = scan_fronts(points)
        order = list(range(len(points)))
        rnd.shuffle(order)
        shuffled = scan_fronts([points[i] for i in order])
        for i, p in enumerate(points):
            alone = point_bits(scan_fronts([p]), 0)
            assert point_bits(together, i) == alone, p
            assert point_bits(shuffled, order.index(i)) == alone, p

    check()


def test_sweep_scan_peak_memory_per_point():
    # the traced peak of a sweep's scan, its transient arrays and the
    # table it returns together, stays under 900 B per point (603 B
    # measured on numpy 2.4; 1.5x of headroom for other numpy versions)
    gs = np.linspace(0.0, 0.6, 1024).tolist()
    points = [WalkParams(g, phi) for phi in np.linspace(0.0, PI / 2, 4).tolist() for g in gs]
    scan_fronts(points[::64])  # one-time allocations fall outside the window
    tracemalloc.start()
    try:
        table = scan_fronts(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.topology) == len(points)
    assert peak / len(points) <= 900, peak / len(points)
