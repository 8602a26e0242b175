"""Extremal fronts, causal-cone topology and the Lifshitz critical coupling.

The band w(q) = 2 cos q + 2 g cos(2q + phi) is a degree-2 trigonometric
polynomial, so both questions reduce to polynomial roots on the unit circle
z = e^{iq}:

- Extremal fronts are the real roots of w''(q), the stationary points of
  the group velocity, and z^2 w''(q) = -(4g e^{i phi} z^4 + z^3 + z
  + 4g e^{-i phi}) is a quartic.
- The Lifshitz coupling g_c(phi) is the smallest g > 0 at which w'' has a
  double real root.  w'' = w''' = 0 is linear in g, and eliminating g
  leaves sin(3q + phi) + 3 sin(q + phi) = 0, a sextic in z.

A companion-matrix root is kept when it lies on the unit circle and the
trigonometric form vanishes at its angle.  Adjacent kept roots are one
multiple root only when the form also vanishes at their midpoint, and a
cluster of m roots is polished by Newton in real q on the form's (m-1)-th
derivative, where it is a simple root.  A front's order k is the
multiplicity m of its cluster, and its edge-scaling coefficient is
kappa_k = w^(k+2)(q*)/(k+1)! at the polished root q*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .dispersion import TWO_PI, WalkParams, omega_deriv

TOL_ROOT = 1e-12
# loosest tol_root accepted: from 1e-10 to 1e-3 the front orders equal the
# default's at 6 phi in [0, pi/2] x 241 g in [0, 0.6]; 1e-2 merges distinct
# fronts at 11 of those points, and from 1 on roots are lost
TOL_ROOT_MAX = 1e-6
TOL_DEGEN = 1e-9          # velocity window for degenerate-front labelling
# |log|z|| bound for a root on the unit circle: the companion eigenvalues of
# a triple root scatter by ~eps^(1/3) ~ 1e-5, while at phi = pi/2 an
# off-circle pair sharing the angle of a real root sits at 4 sqrt(1/8 - g)
TOL_CIRCLE = 1e-4
# below this g the quartic's roots span 4g .. 1/(4g) and its eigenvalues near
# the circle lose accuracy like eps/sqrt(g); the fronts are then the two
# simple roots of w'' within 4g of -pi/2 and pi/2
G_SEED = 1e-4
NEWTON_STEPS = 6


class ConeTopology(Enum):
    ONE_CONE = "one_cone"
    TWO_NESTED_CONES = "two_nested_cones"
    TWO_OVERLAPPING_CONES = "two_overlapping_cones"
    CRITICAL_SECOND_ORDER = "critical_second_order"
    CRITICAL_THIRD_ORDER = "critical_third_order"


@dataclass(frozen=True)
class ExtremalFront:
    """One stationary point of the group velocity."""

    q_star: float
    velocity: float
    order: int
    kappa: float
    chirality: str  # "left" or "right"


@dataclass(frozen=True)
class FrontDiagram:
    """All extremal fronts of a parameter point, sorted by velocity."""

    params: WalkParams
    fronts: tuple
    v_lm: float
    v_rm: float
    topology: ConeTopology


class FrontScanError(RuntimeError):
    """Raised when a front set cannot be classified."""


def _polish(f, x: float, m: int) -> float:
    """Newton on f^(m-1), where a root of multiplicity m of f is simple."""
    for _ in range(NEWTON_STEPS):
        x -= f(x, m - 1) / f(x, m)
    return (x + math.pi) % TWO_PI - math.pi


def _circle_roots(coeffs, f, tol: float) -> list[tuple[float, int]]:
    """Real roots q in [-pi, pi) of a trigonometric polynomial, once each.

    coeffs (highest power first) define a polynomial in z = e^{iq} that is
    a power of z times f(q), and f(q, j) is the j-th derivative of f.
    Returns (polished root, multiplicity) pairs.
    """
    z = np.roots(coeffs)
    q = np.sort(np.angle(z[np.abs(np.log(np.abs(z))) < TOL_CIRCLE]))
    q = q[np.abs(f(q, 0)) <= tol]
    n = len(q)
    # joined[i]: q[i] and its successor on the circle are one multiple root
    succ = np.append(q[1:], q[:1] + TWO_PI)
    joined = (np.abs(f(0.5 * (q + succ), 0)) <= tol) & (n > 1)
    roots = []
    for s in np.flatnonzero(~np.roll(joined, 1)):
        m = 1
        while joined[(s + m - 1) % n]:
            m += 1
        idx = s + np.arange(m)
        centre = float(np.mean(q[idx % n] + TWO_PI * (idx >= n)))
        roots.append((_polish(f, centre, m), m))
    return roots


def find_extremal_fronts(p: WalkParams, tol_root: float = TOL_ROOT) -> list[ExtremalFront]:
    """Locate and classify every extremal front of the dispersion.

    The fronts are the unit-circle roots of the quartic z^2 w''(q); a root
    is kept when |w''| <= tol_root (1 + 8g) at its angle, 1 + 8g being the
    curvature scale of the band.  A front's order is the multiplicity of
    its root cluster, and kappa is taken at the polished wave vector, the
    centre of that cluster.  tol_root must lie in (0, TOL_ROOT_MAX].
    """
    if not 0.0 < tol_root <= TOL_ROOT_MAX:
        raise ValueError(f"tol_root must lie in (0, {TOL_ROOT_MAX}], got {tol_root}")
    w2 = lambda q, j: omega_deriv(q, 2 + j, p)
    if p.g < G_SEED:
        roots = [(_polish(w2, q, 1), 1) for q in (-math.pi / 2, math.pi / 2)]
    else:
        c = 4.0 * p.g * complex(math.cos(p.phi), math.sin(p.phi))
        quartic = [c, 1.0, 0.0, 1.0, c.conjugate()]
        roots = _circle_roots(quartic, w2, tol_root * (1.0 + 8.0 * p.g))
    fronts = []
    for q, order in roots:
        kappa = omega_deriv(q, order + 2, p) / math.factorial(order + 1)
        v = omega_deriv(q, 1, p)
        fronts.append(
            ExtremalFront(q, v, order, kappa, "left" if v < 0 else "right")
        )
    fronts.sort(key=lambda fr: fr.velocity)
    return fronts


def build_diagram(p: WalkParams, fronts: tuple) -> FrontDiagram:
    """Classify the causal-cone topology of an already-scanned front set."""
    n = len(fronts)
    if n not in (2, 3, 4):
        raise FrontScanError(f"unexpected front count {n} at {p}")
    v_lm = min(fr.velocity for fr in fronts)
    v_rm = max(fr.velocity for fr in fronts)
    orders = [fr.order for fr in fronts]
    if n == 2:
        topo = ConeTopology.CRITICAL_THIRD_ORDER if 3 in orders else ConeTopology.ONE_CONE
    elif n == 3:
        topo = ConeTopology.CRITICAL_SECOND_ORDER
    else:
        vs = sorted(fr.velocity for fr in fronts)
        degen = any(abs(vs[i + 1] - vs[i]) <= TOL_DEGEN for i in range(3))
        topo = (
            ConeTopology.TWO_OVERLAPPING_CONES if degen else ConeTopology.TWO_NESTED_CONES
        )
    return FrontDiagram(p, fronts, v_lm, v_rm, topo)


@lru_cache(maxsize=64)
def cone_topology(p: WalkParams) -> FrontDiagram:
    """Assemble the front diagram and classify the causal-cone topology."""
    return build_diagram(p, tuple(find_extremal_fronts(p)))


def degeneracy(diagram: FrontDiagram, front: ExtremalFront) -> int:
    """Number of fronts sharing this front's velocity (2 for overlapping cones)."""
    return sum(
        1 for fr in diagram.fronts if abs(fr.velocity - front.velocity) <= TOL_DEGEN
    )


def edge_scale(front: ExtremalFront, t: float) -> float:
    """(|kappa_k| t)^(1/(k+2)), the site width of the front's edge window at time t."""
    return (abs(front.kappa) * t) ** (1.0 / (front.order + 2))


def critical_coupling(phi: float, tol_g: float = 1e-6) -> float:
    """Lifshitz coupling g_c(phi): the smallest g > 0 with a double root of w''.

    The real roots of sin(3q + phi) + 3 sin(q + phi) are the unit-circle
    roots of e^{i phi} z^6 + 3 e^{i phi} z^4 - 3 e^{-i phi} z^2 - e^{-i phi}.
    At each, g is the least-squares solution of w'' = 0 and w''' = 0,

        g = -(4 cos q c + 8 sin q s) / (16 c^2 + 64 s^2),
        c = cos(2q + phi),  s = sin(2q + phi),

    which stays defined where c or s vanishes (the zone-seam root at
    phi = 0).  The result is exact to roundoff, so it meets any finite
    tol_g > 0.
    """
    if not 0.0 <= phi <= math.pi / 2.0 + 1e-15:
        raise ValueError("phi must lie in the canonical window [0, pi/2]")
    if not 0.0 < tol_g < math.inf:
        raise ValueError(f"tol_g must be finite and positive, got {tol_g}")
    e = complex(math.cos(phi), math.sin(phi))
    sextic = [e, 0.0, 3.0 * e, 0.0, -3.0 * e.conjugate(), 0.0, -e.conjugate()]

    def f(q, j):
        shift = phi + j * math.pi / 2.0
        return 3.0**j * np.sin(3.0 * q + shift) + 3.0 * np.sin(q + shift)

    gs = []
    for q, _ in _circle_roots(sextic, f, TOL_ROOT):
        c, s = math.cos(2.0 * q + phi), math.sin(2.0 * q + phi)
        gs.append(-(4.0 * math.cos(q) * c + 8.0 * math.sin(q) * s) / (16.0 * c * c + 64.0 * s * s))
    return min(g for g in gs if g > 0.0)
