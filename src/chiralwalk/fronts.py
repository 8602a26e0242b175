"""Extremal fronts, causal-cone topology and the Lifshitz critical coupling.

The band w(q) = 2 cos q + 2 g cos(2q + phi) is a degree-2 trigonometric
polynomial, so both questions have algebraic answers:

- Extremal fronts are the real roots of w''(q), the stationary points of
  the group velocity, and z^2 w''(q) = -(4g e^{i phi} z^4 + z^3 + z
  + 4g e^{-i phi}) is a quartic in z = e^{iq}.
- The Lifshitz coupling g_c(phi), the smallest g > 0 at which w'' has a
  double real root, is a cube root in closed form (critical_coupling).

A companion-matrix root of the quartic is kept when it lies on the unit
circle and w'' vanishes at its angle.  Adjacent kept roots are one
multiple root only when w'' also vanishes at their midpoint, and a cluster
of m roots is polished by Newton in real q on w^(m+1), where it is a
simple root.  A front's order k is the multiplicity m of its cluster, and
its edge-scaling coefficient is kappa_k = w^(k+2)(q*)/(k+1)! at the
polished root q*.

A scan runs over a whole batch of points at once: one stacked eigenvalue
call on their companion matrices, then each filter, Newton step and
derivative as one array operation over every root of the batch.  The roots
sit in a padded (points x degree) array, each point's kept angles sorted to
the front of its row, so a root's circular neighbours and its cluster are
found by indexing within its row.  Every operation is elementwise, per
matrix or per row, so a point's fronts are the same bits alone, in a
sweep, or in any order of the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dispersion import PHI_MAX, TWO_PI, WalkParams, omega_deriv

TOL_ROOT = 1e-12          # |w''| at a kept root, times its scale 1 + 8g
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


class FrontScanError(RuntimeError):
    """Raised when a front set cannot be classified."""


class _Couplings(NamedTuple):
    """g and phi as arrays for omega_deriv over a stack: per root, or as (points, 1) columns."""

    g: np.ndarray
    phi: np.ndarray

    def at(self, rows) -> _Couplings:
        return _Couplings(self.g[rows], self.phi[rows])


def _polish(x, m: int, c: _Couplings):
    """Newton on w^(m+1), where a root of multiplicity m of w'' is simple."""
    for _ in range(NEWTON_STEPS):
        x -= omega_deriv(x, m + 1, c) / omega_deriv(x, m + 2, c)
    return (x + math.pi) % TWO_PI - math.pi


def _eigvals(a):
    """Eigenvalues of a stack of matrices, and {index: LinAlgError} of those that fail.

    A failing stack is halved until each failure is a matrix of its own,
    whose eigenvalues are then NaN.
    """
    try:
        return np.linalg.eigvals(a), {}
    except np.linalg.LinAlgError as exc:
        if len(a) == 1:
            return np.full(a.shape[:2], np.nan, complex), {0: exc}
        h = len(a) // 2
        (za, ea), (zb, eb) = _eigvals(a[:h]), _eigvals(a[h:])
        return np.concatenate([za, zb]), {**ea, **{h + i: e for i, e in eb.items()}}


def _circle_roots(coeffs, couplings, tol, seeded):
    """Real roots q in [-pi, pi) of w'' at a stack of couplings, once each.

    Row i of coeffs (highest power first) defines a polynomial in z = e^{iq}
    that is a power of z times w''(q) at the couplings of row i, and tol[i]
    bounds |w''| at a kept root of row i.  A seeded row skips its
    companion matrix: its roots are the simple ones polished from -pi/2 and
    pi/2.  The layout is padded, a row per polynomial and a slot per degree:
    a row's kept angles are sorted to its front and its other slots hold 0.
    Returns (roots, order) in that layout, a cluster of m roots polished at
    the slot of its first root with order m there and 0 at the slots that
    start no cluster, and {row: LinAlgError} for the rows whose eigenvalues
    failed.
    """
    # a seeded row never reaches the division by its leading coefficient,
    # which vanishes for the quartic at g = 0
    live = np.flatnonzero(~seeded)
    p = coeffs[live]
    d = p.shape[1] - 1
    companion = np.zeros((live.size, d, d), complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, 0, :] = -p[:, 1:] / p[:, :1]
    z, failed = _eigvals(companion)
    column, tol = _Couplings(couplings.g[:, None], couplings.phi[:, None]), tol[:, None]
    q = np.zeros((len(coeffs), d))
    kept = np.zeros(q.shape, bool)
    kept[live] = np.abs(np.log(np.abs(z))) < TOL_CIRCLE
    q[kept] = np.angle(z[kept[live]])
    kept &= np.abs(omega_deriv(q, 2, column)) <= tol
    q[seeded, :2], kept[seeded, :2] = (-math.pi / 2, math.pi / 2), True
    q = np.sort(np.where(kept, q, np.inf), axis=1)
    count = np.count_nonzero(kept, axis=1)[:, None]
    row, slot, n = np.arange(len(q))[:, None], np.arange(d), np.maximum(count, 1)
    real = slot < count
    q[~real] = 0.0
    # joined[i, s]: slot s and its successor on row i's circle are one multiple root
    succ = q[row, (slot + 1) % n]
    succ = np.where(slot + 1 < count, succ, succ + TWO_PI)
    joined = real & (count > 1) & ~seeded[:, None]
    joined &= np.abs(omega_deriv(0.5 * (q + succ), 2, column)) <= tol
    # a cluster starts at a kept root not joined to its predecessor, and
    # each joined link that follows adds one to its multiplicity
    link = real & ~joined[row, (slot - 1) % n]
    order = link.astype(np.intp)
    for i in range(d - 1):
        link &= joined[row, (slot + i) % n]
        order += link
    roots = np.zeros(q.shape)
    for m in set(order[order > 0].tolist()):
        r, s = np.nonzero(order == m)
        idx, c = s[:, None] + np.arange(m), count[r]
        centre = (q[r[:, None], idx % c] + TWO_PI * (idx >= c)).mean(axis=1)
        roots[r, s] = _polish(centre, m, couplings.at(r))
    return roots, order, {int(live[i]): exc for i, exc in failed.items()}


def check_coupling(g: float) -> None:
    """Refuse a g too large for the front scan, with ValueError.

    The scan forms 4g (the quartic), 1 + 8g (the scale of the root
    tolerance) and 2^(k+3) g, the NNN coefficient of w^(k+2), for the kappa
    of a front of order k <= 3; all of them are finite when 64 g is.
    """
    if not math.isfinite(64.0 * g):
        raise ValueError(f"g={g!r} is too large for the front scan: 64 g overflows")


def _front_sets(points) -> list:
    """Per point, its fronts sorted by velocity, or the LinAlgError of its quartic.

    All points are scanned in one pass: one stack of companion matrices, and
    each Newton step and derivative taken once per multiplicity over every
    root of the stack.  The cluster starts of the padded (points x degree)
    layout of _circle_roots, read in row order, give each point's fronts.
    Every g must pass check_coupling.
    """
    for p in points:
        check_coupling(p.g)
    g = np.array([p.g for p in points], dtype=float)
    couplings = _Couplings(g, np.array([p.phi for p in points], dtype=float))
    seeded = g < G_SEED
    quartic = np.zeros((len(points), 5), complex)
    quartic[:, 0] = [4.0 * p.g * complex(math.cos(p.phi), math.sin(p.phi)) for p in points]
    quartic[:, 1] = quartic[:, 3] = 1.0
    quartic[:, 4] = quartic[:, 0].conj()
    roots, order, failed = _circle_roots(quartic, couplings, TOL_ROOT * (1.0 + 8.0 * g), seeded)
    start = order > 0
    rows, q, order = np.nonzero(start)[0], roots[start], order[start]
    velocity = omega_deriv(q, 1, couplings.at(rows))
    kappa = np.empty_like(q)
    for m in set(order.tolist()):
        sel = order == m
        kappa[sel] = omega_deriv(q[sel], m + 2, couplings.at(rows[sel])) / math.factorial(m + 1)
    fronts = [[] for _ in points]
    for r, *front in zip(rows.tolist(), q.tolist(), velocity.tolist(), order.tolist(), kappa.tolist()):
        fronts[r].append(ExtremalFront(*front, "left" if front[1] < 0 else "right"))
    for found in fronts:
        found.sort(key=lambda fr: fr.velocity)
    for r, exc in failed.items():
        fronts[r] = exc
    return fronts


def find_extremal_fronts(p: WalkParams) -> list[ExtremalFront]:
    """Locate and classify every extremal front of the dispersion.

    The fronts are the unit-circle roots of the quartic z^2 w''(q); a root
    is kept when |w''| <= TOL_ROOT (1 + 8g) at its angle, 1 + 8g being the
    curvature scale of the band.  A front's order is the multiplicity of
    its root cluster, and kappa is taken at the polished wave vector, the
    centre of that cluster.  g must pass check_coupling.
    """
    (fronts,) = _front_sets([p])
    if isinstance(fronts, Exception):
        raise fronts
    return fronts


def _diagram(p: WalkParams, fronts) -> FrontDiagram:
    """Assemble the front diagram of p and classify its causal-cone topology.

    fronts must be sorted by velocity, as _front_sets returns them: v_lm and
    v_rm are its ends, and two cones overlap when neighbours share a velocity.
    """
    fronts = tuple(fronts)
    n = len(fronts)
    if n not in (2, 3, 4):
        raise FrontScanError(f"unexpected front count {n} at {p}")
    v_lm, v_rm = fronts[0].velocity, fronts[-1].velocity
    orders = [fr.order for fr in fronts]
    if n == 2:
        topo = ConeTopology.CRITICAL_THIRD_ORDER if 3 in orders else ConeTopology.ONE_CONE
    elif n == 3:
        topo = ConeTopology.CRITICAL_SECOND_ORDER
    else:
        degen = any(abs(b.velocity - a.velocity) <= TOL_DEGEN for a, b in zip(fronts, fronts[1:]))
        topo = (
            ConeTopology.TWO_OVERLAPPING_CONES if degen else ConeTopology.TWO_NESTED_CONES
        )
    return FrontDiagram(p, fronts, v_lm, v_rm, topo)


@lru_cache(maxsize=64)
def cone_topology(p: WalkParams) -> FrontDiagram:
    """Assemble the front diagram and classify the causal-cone topology."""
    return _diagram(p, find_extremal_fronts(p))


def scan_diagrams(points) -> list:
    """cone_topology of many points in one batched scan, without its cache.

    Returns, per point, its FrontDiagram or the FrontScanError or
    LinAlgError that its scan raised, so that one failing point does not
    fail the others; every g must pass check_coupling.
    """
    out = []
    for p, fronts in zip(points, _front_sets(points)):
        if not isinstance(fronts, Exception):
            try:
                fronts = _diagram(p, fronts)
            except FrontScanError as exc:
                fronts = exc
        out.append(fronts)
    return out


def degeneracy(diagram: FrontDiagram, front: ExtremalFront) -> int:
    """Number of fronts sharing this front's velocity (2 for overlapping cones)."""
    return sum(
        1 for fr in diagram.fronts if abs(fr.velocity - front.velocity) <= TOL_DEGEN
    )


def edge_scale(front: ExtremalFront, t: float) -> float:
    """(|kappa_k| t)^(1/(k+2)), the site width of the front's edge window at time t >= 0."""
    if not t >= 0:  # a negative t has a complex root, and NaN has no window
        raise ValueError(f"the edge scale needs t >= 0, got t={t}")
    return (abs(front.kappa) * t) ** (1.0 / (front.order + 2))


def critical_coupling(phi: float) -> float:
    """Lifshitz coupling g_c(phi): the smallest g > 0 with a double root of w''.

    w'' = w''' = 0 is linear in g; eliminating g leaves sin(3q + phi)
    + 3 sin(q + phi) = 0, which with tau = tan(q + phi/2) reads
    ((1 + tau) / (1 - tau))^3 = tan(pi/4 - phi/2).  Its one real root is
    tan(q + phi/2 + pi/4) = tan(pi/4 - phi/2)^(1/3), up to q -> q + pi.
    At q, g solves w'' = 0 and w''' = 0 in the least-squares sense,

        g = -(4 cos q c + 8 sin q s) / (16 c^2 + 64 s^2),
        c = cos(2q + phi),  s = sin(2q + phi),

    defined also where c or s vanishes (the zone-seam root at phi = 0).
    q and q + pi give -g and g, so |g| is g_c, exact to roundoff.
    """
    if not 0.0 <= phi <= PHI_MAX:
        raise ValueError("phi must lie in the canonical window [0, pi/2]")
    # the base lies in [0, 1] on the window; math.cbrt needs Python 3.11
    q = math.atan(math.tan(math.pi / 4 - phi / 2) ** (1.0 / 3.0)) - math.pi / 4 - phi / 2
    c, s = math.cos(2.0 * q + phi), math.sin(2.0 * q + phi)
    return abs(4.0 * math.cos(q) * c + 8.0 * math.sin(q) * s) / (16.0 * c * c + 64.0 * s * s)
