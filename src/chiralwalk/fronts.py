"""Extremal fronts, causal-cone topology and the Lifshitz critical coupling.

The band w(q) = 2 cos q + 2 g cos(2q + phi) is a degree-2 trigonometric
polynomial, so both questions have algebraic answers:

- Extremal fronts are the real roots of w''(q), the stationary points of
  the group velocity, and z^2 w''(q) = -(4g e^{i phi} z^4 + z^3 + z
  + 4g e^{-i phi}) is a quartic in z = e^{iq}.
- The Lifshitz coupling g_c(phi), the smallest g > 0 at which w'' has a
  double real root, is a cube root in closed form (critical_coupling).

So the phase diagram is known in closed form, and the scan reads each
point's front count, orders and cone topology off it rather than off its
roots: w'' has a multiple root only on the Lifshitz line, a double root at
q_c + pi, and a triple one only at (g, phi) = (1/8, pi/2).  Off them there
are 2 + 2 [g > g_c] simple fronts, the roots of the quartic nearest the
unit circle.  A point is critical of order k when the fronts that would
split off the multiple root agree in velocity to float64 roundoff (the
bands BAND_2 and BAND_3): its order-k front sits at the closed-form root,
and its 4 - k simple fronts are the roots farthest in angle from it.  The
quartic's roots are Ferrari's closed form (_quartic_roots), and each
simple root is polished by Newton in real q on w''.  A front's edge
coefficient is kappa_k = w^(k+2)(q*)/(k+1)! at its root q*.

A scan (scan_fronts) runs over a whole batch of points at once and
returns every front as columns, with each point's topology: the quartics'
roots, each selection, Newton step, derivative and the sort are each one
array operation over every point or root of the batch, in the caller's
thread, with no linear algebra call.  Every operation is elementwise or per
row, so a point's fronts are the same bits alone, in a sweep, or in any
order of the points, and no point's scan can fail.  cone_topology builds
one point's FrontDiagram from a one-point scan and caches it; is_one_cone
reads the phase alone, with no scan.  Points lie in WalkParams' window
0 <= phi <= pi/2, into which its band identities carry any g e^{i phi}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._checks import real
from .dispersion import PHI_MAX, TWO_PI, WalkParams, omega_deriv

TOL_DEGEN = 1e-9          # velocity window of co-moving fronts, see same_velocity
# the order-2 band |g/g_c - 1| <= BAND_2: a pair of fronts splits off the
# double root like sqrt(eps) in q and like eps^(3/2) in velocity, below
# float64 roundoff for eps <= 1e-11
BAND_2 = 1e-11
# the order-3 band |g - 1/8| <= BAND_3_G, pi/2 - phi <= BAND_3_PHI: with
# gamma = g - 1/8, eta = pi/2 - phi and u = q - pi/2, w'' ~ eta - 16 gamma u
# + u^3, whose roots split in velocity like u^4: by 64 gamma^2 <= 1e-16 at
# eta = 0, and by 6.75 (eta/2)^(4/3) <= 3e-16 on the Lifshitz line, which
# leaves the band through its phi edge at gamma = 1.2e-9
BAND_3_G = 1.25e-9
BAND_3_PHI = 1e-12
# below this g the quartic's roots span 4g .. 1/(4g) and the closed form's
# roots near the circle lose accuracy like eps/g; the fronts are then the two
# simple roots of w'' within 4g of -pi/2 and pi/2
G_SEED = 1e-4
NEWTON_STEPS = 6


class ConeTopology(Enum):
    ONE_CONE = "one_cone"
    TWO_NESTED_CONES = "two_nested_cones"
    TWO_OVERLAPPING_CONES = "two_overlapping_cones"
    CRITICAL_SECOND_ORDER = "critical_second_order"
    CRITICAL_THIRD_ORDER = "critical_third_order"


@dataclass(frozen=True, slots=True)
class ExtremalFront:
    """One stationary point of the group velocity."""

    q_star: float
    velocity: float
    order: int
    kappa: float
    chirality: str  # "left" or "right"


@dataclass(frozen=True, slots=True)
class FrontDiagram:
    """All extremal fronts of a parameter point, sorted by velocity."""

    params: WalkParams
    fronts: tuple
    v_lm: float
    v_rm: float
    topology: ConeTopology


class FrontTable(NamedTuple):
    """A batch scan as columns, see scan_fronts.

    point, q_star, velocity, order and kappa hold one entry per front, the
    fronts sorted by (point, velocity, q_star); point is the index of the
    front's point in the batch.  topology holds one ConeTopology per point.
    """

    point: np.ndarray
    q_star: np.ndarray
    velocity: np.ndarray
    order: np.ndarray
    kappa: np.ndarray
    topology: list


class _Couplings(NamedTuple):
    """g and phi as arrays for omega_deriv over a stack, one coupling per root."""

    g: np.ndarray
    phi: np.ndarray

    def at(self, rows) -> _Couplings:
        return _Couplings(self.g[rows], self.phi[rows])


_NEWTON_ORDERS = np.array([[2], [3]])  # w'' and w''' of each root, see _polish
# a point's topology by its code in scan_fronts: ConeTopology's members in their order
_TOPOLOGY = tuple(ConeTopology)
# the cube roots of unity, which turn one root of the resolvent cubic into all three
_OMEGA = np.array([1.0, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75))])
_SIGNS = np.array([-1.0, 1.0])  # the two quadratic factors of the quartic, see _quartic_roots


def _polish(x, c: _Couplings):
    """Newton on w'', at simple roots.

    Each step evaluates omega_deriv(x, m, c) for m = 2 and 3 as one (2, n)
    array, operation by operation, so with the same bits; the shifts m pi/2
    and the NNN coefficients 2^(m+1) g are formed once, not at every step.
    """
    shift = _NEWTON_ORDERS * (math.pi / 2.0)
    nnn = np.ldexp(2.0, _NEWTON_ORDERS) * c.g
    for _ in range(NEWTON_STEPS):
        w = 2.0 * np.cos(x + shift)
        w += nnn * np.cos(2.0 * x + c.phi + shift)
        x -= w[0] / w[1]
    return (x + math.pi) % TWO_PI - math.pi


def _quartic_roots(g, phi):
    """The roots z of 4g e^{i phi} z^4 + z^3 + z + 4g e^{-i phi} at each point, shape (n, 4).

    Ferrari's closed form, elementwise over the points.  Divided by its
    leading coefficient the quartic is z^4 + b z^3 + b z + e, with b = e^{-i phi}/(4g)
    and e = e^{-2i phi}, and it equals (z^2 + b z/2 + m)^2 - (alpha z + beta)^2,
    alpha^2 = b^2/4 + 2m and 2 alpha beta = b (m - 1), when m solves the
    resolvent cubic

        m^3 + (b^2/4 - e) m - b^2 (1 + e)/8 = 0.

    Of its three roots (Cardano) the one of largest |alpha| is taken, so
    that the division for beta is stable, and each factor
    z^2 + (b/2 -+ alpha) z + m -+ beta gives its root of larger modulus by
    the quadratic formula and the other as its product of roots over it.  A
    row holds the two larger roots, then the two others.

    g >= G_SEED and passes check_coupling, so every value is finite: the
    three alpha^2 sum to 3 b^2/4, or to 0 with two at |alpha^2| = 2 where
    b^2 underflows, and Cardano's u^3 = 0 would need b^2 (1 + e) = 0 and
    b^2/4 = e at once.

    numpy multiplies complex arrays with a fused multiply-add, so a * b and
    b * a may differ in the last bit, and on arrays of 256 KiB or more it
    computes a * (temporary) in place as (temporary) * a.  In every product
    of two complex arrays here the temporary therefore stands on the left,
    so that a point's roots do not depend on the size of its batch.
    """
    c = np.exp(-1j * phi)
    b = c / (4.0 * g)
    e = c * c
    b2 = b * b
    quarter = 0.25 * b2
    p = quarter - e
    h = 0.0625 * b2 * (1.0 + e)  # minus half the cubic's constant term
    d = np.sqrt(h * h + p * p * p / 27.0)
    u = np.where((h.conj() * d).real < 0.0, h - d, h + d) ** (1.0 / 3.0)
    cube = u[:, None] * _OMEGA
    m = cube - p[:, None] / (3.0 * cube)
    alpha2 = quarter[:, None] + 2.0 * m
    rows, pick = np.arange(g.size), np.argmax(np.abs(alpha2), axis=1)
    m, alpha = m[rows, pick], np.sqrt(alpha2[rows, pick])
    beta = (m - 1.0) * b / (2.0 * alpha)
    linear = (0.5 * b)[:, None] + alpha[:, None] * _SIGNS
    constant = m[:, None] + beta[:, None] * _SIGNS
    root = np.sqrt(linear * linear - 4.0 * constant)
    larger = -0.5 * np.where((linear.conj() * root).real < 0.0, linear - root, linear + root)
    return np.concatenate([larger, constant / larger], axis=1)


def check_coupling(g: float) -> None:
    """Refuse a g too large for the front scan, with ValueError.

    The scan forms 4g (the quartic), g/g_c <= 8g (the order-2 band) and
    2^(k+3) g, the NNN coefficient of w^(k+2), for the kappa of a front of
    order k <= 3; all of them are finite when 64 g is.
    """
    if not math.isfinite(64.0 * g):
        raise ValueError(f"g={g!r} is too large for the front scan: 64 g overflows")


def _phases(g, phi):
    """Each point's phase, read off the closed-form diagram: (phase, two_cones, q_c).

    g and phi are arrays of one entry per point.  phase is the order k of
    the point's multiple root in the order-k band, 0 off the bands;
    two_cones is g > g_c(phi); q_c is the double root of w'' at g_c(phi).
    """
    closed = {f: _critical_root(f) for f in set(phi.tolist())}
    q_c, g_c = np.array([closed[f] for f in phi.tolist()]).reshape(-1, 2).T
    phase = 2 * (np.abs(g / g_c - 1.0) <= BAND_2)
    phase[(np.abs(g - 0.125) <= BAND_3_G) & (PHI_MAX - phi <= BAND_3_PHI)] = 3
    return phase, g > g_c, q_c


def is_one_cone(p: WalkParams) -> bool:
    """True when p is in the one-cone phase: g <= g_c(phi), off both critical bands.

    scan_fronts' phase rule without the scan: the same answer as
    cone_topology(p).topology is ONE_CONE.  g must pass check_coupling.
    """
    check_coupling(p.g)
    phase, two_cones, _ = _phases(np.array([p.g], dtype=float), np.array([p.phi], dtype=float))
    return not (phase[0] or two_cones[0])


def scan_fronts(points) -> FrontTable:
    """Every front of a batch of points as one FrontTable, uncached.

    The topology is the point's phase (_phases): critical of order k in the
    order-k band, one cone for g <= g_c, else two cones, overlapping when the
    two slowest fronts co-move.  Only the mirror pair of phi = pi/2, where
    v(pi - q) = v(q), does; the internal pair born at g_c agrees in velocity
    to roundoff just above it, and its cones are nested.  Every g must pass
    check_coupling.
    """
    for p in points:
        check_coupling(p.g)
    n = len(points)
    g = np.array([p.g for p in points], dtype=float)
    phi = np.array([p.phi for p in points], dtype=float)
    couplings = _Couplings(g, phi)
    phase, two_cones, q_c = _phases(g, phi)
    band = phase > 0
    simple = np.where(band, 4 - phase, 2 + 2 * two_cones)
    # a seeded row never reaches the division by its leading coefficient,
    # which vanishes for the quartic at g = 0
    live = np.flatnonzero(g >= G_SEED)
    z = _quartic_roots(g[live], phi[live])
    # each row's simple roots are the first of its slots by score: for a band
    # row the roots farthest in angle from its multiple root, for any
    # other row those nearest the unit circle, and for a seeded row its seeds
    angle, score = np.zeros((2, n, 4))
    angle[g < G_SEED, :2] = -math.pi / 2, math.pi / 2
    angle[live] = np.angle(z)
    score[live] = np.abs(np.log(np.abs(z)))
    if band.any():
        score[band] = -np.abs((angle[band] - q_c[band, None] + math.pi) % TWO_PI - math.pi)
    rank = np.argsort(score, axis=1, kind="stable")
    picked = np.arange(4) < simple[:, None]
    rows = np.nonzero(picked)[0]
    q = _polish(angle[rows, rank[picked]], couplings.at(rows))
    multiple = np.flatnonzero(band)
    rows = np.concatenate([rows, multiple])
    q = np.concatenate([q, q_c[multiple]])
    order = np.concatenate([np.ones(q.size - multiple.size, np.intp), phase[multiple]])
    velocity = omega_deriv(q, 1, couplings.at(rows))
    kappa = np.empty_like(q)
    for m in set(order.tolist()):
        sel = order == m
        kappa[sel] = omega_deriv(q[sel], m + 2, couplings.at(rows[sel])) / math.factorial(m + 1)
    by = np.lexsort((q, velocity, rows))
    point, q, velocity, order, kappa = rows[by], q[by], velocity[by], order[by], kappa[by]
    # each point's code in _TOPOLOGY; the first two fronts of a two-cone
    # point are its two slowest
    two = np.flatnonzero(two_cones & ~band)
    first = np.searchsorted(point, two)
    code = two_cones.astype(np.intp)
    code[two] += same_velocity(velocity[first], velocity[first + 1])
    code[band] = phase[band] + 1
    return FrontTable(point, q, velocity, order, kappa, [_TOPOLOGY[c] for c in code.tolist()])


@lru_cache(maxsize=64)
def cone_topology(p: WalkParams) -> FrontDiagram:
    """The front diagram of p, from a one-point scan_fronts.

    Its fronts are the table's rows, sorted by velocity, then by q*.  Cached
    per p.  g must pass check_coupling.
    """
    table = scan_fronts([p])
    fronts = tuple(
        ExtremalFront(q, v, k, kappa, "left" if v < 0 else "right")
        for q, v, k, kappa in zip(*(column.tolist() for column in table[1:5]))
    )
    return FrontDiagram(p, fronts, fronts[0].velocity, fronts[-1].velocity, table.topology[0])


def same_velocity(v_a: float, v_b: float) -> bool:
    """True when two front velocities agree within TOL_DEGEN: the fronts co-move.

    Elementwise on arrays of velocities.
    """
    return abs(v_a - v_b) <= TOL_DEGEN


def edge_scale(front: ExtremalFront, t: float) -> float:
    """(|kappa_k| t)^(1/(k+2)), the site width of the front's edge window at time t.

    t: finite, >= 0 (a negative t has a complex root); t = 0 gives 0, the
    scale evolve's ring layout reads at t = 0.
    """
    t = real("t", t, 0)
    return (abs(front.kappa) * t) ** (1.0 / (front.order + 2))


def _critical_root(phi: float) -> tuple:
    """(q, g_c(phi)): the double root q in [-pi, pi) of w'' at the Lifshitz coupling.

    w'' = w''' = 0 is linear in g; eliminating g leaves sin(3q + phi)
    + 3 sin(q + phi) = 0, which with tau = tan(q + phi/2) reads
    ((1 + tau) / (1 - tau))^3 = tan(pi/4 - phi/2).  Its one real root is
    tan(q + phi/2 + pi/4) = tan(pi/4 - phi/2)^(1/3), up to q -> q + pi.
    At q, g solves w'' = 0 and w''' = 0 in the least-squares sense,

        g = -(4 cos q c + 8 sin q s) / (16 c^2 + 64 s^2),
        c = cos(2q + phi),  s = sin(2q + phi),

    defined also where c or s vanishes (the zone-seam root at phi = 0).
    q and q + pi give -g and g, so |g| is g_c, exact to roundoff, and the
    double root is whichever of the two has g > 0.
    """
    # the base lies in [0, 1] on the window; math.cbrt needs Python 3.11
    q = math.atan(math.tan(math.pi / 4 - phi / 2) ** (1.0 / 3.0)) - math.pi / 4 - phi / 2
    c, s = math.cos(2.0 * q + phi), math.sin(2.0 * q + phi)
    g = -(4.0 * math.cos(q) * c + 8.0 * math.sin(q) * s) / (16.0 * c * c + 64.0 * s * s)
    return ((q if g > 0 else q + math.pi) + math.pi) % TWO_PI - math.pi, abs(g)


def critical_coupling(phi: float) -> float:
    """Lifshitz coupling g_c(phi): the smallest g > 0 with a double root of w''.

    A cube root in closed form, see _critical_root.  phi: in [0, pi/2], as
    in WalkParams.
    """
    phi = real("phi", phi, 0, PHI_MAX)
    return _critical_root(phi)[1]
