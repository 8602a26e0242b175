"""Hydrodynamic bulk predictions on the scaled coordinate nu = n/t.

At long times the cumulative probability depends on n and t only through
nu = n/t, and equals the fraction of the Brillouin zone moving slower
than nu:

    Phi(nu) = |{q : v(q) <= nu}| / 2pi

The cumulative current is the integral of v over the same sub-level set,
which telescopes exactly to band energies at the set's endpoints because
v = w'.  The higher cumulative moments telescope the same way: v is a
degree-2 trigonometric polynomial, so v^k is one of degree 2k, and its
integral over each interval is a difference of one closed-form
antiderivative.  Phi, J and every moment are thus exact up to the roots.
So is the density rho = dPhi/dnu = (1/2pi) sum_r 1/|w''(q_r)|: each root
q_r of v = nu moves with nu at the rate 1/|v'(q_r)|.  One solve for the
roots gives all of them: _bulk is the only code that turns the roots into
Phi, J, M~_k and rho, and scaling_curve returns them at any array of nu.

Between consecutive front wave vectors q* the group velocity is monotone,
because w'' has no root there.  The zone therefore splits into monotone
branches, and on each branch the sub-level set is one interval ending at
the branch's single root of v = nu.  Branches whose end velocities both
lie on one side of nu are empty or whole without any root finding.  For
the others, v is tabulated once per branch set at Chebyshev-spaced nodes
of every branch; one searchsorted over the merged table puts each
(branch, nu) pair in the cell whose end velocities bracket nu, and a
safeguarded Newton iteration started at the cell's secant point finds the
root in about three evaluations, all branches and all nu at once.  An
evaluation takes one sin and one cos, and v and w'' follow from them by
double-angle products.  The roots' own sin and cos then give e^{iq} and w
for the closed forms, and their w'' gives rho, so that no transcendental
function is evaluated on the whole (branches, nu) array.  This is valid on
both sides of the Lifshitz transition and at the critical couplings.  The
nu are taken NU_BLOCK at a time, so memory does not grow with the grid.

The median nu_half, where Phi crosses 1/2, is exactly v(0) = -4g sin(phi)
in the one-cone phase, which the closed-form phase diagram recognises
without a front scan, and at phi = 0 in every phase, where v(-q) = -v(q);
otherwise Newton on Phi - 1/2 with the closed-form rho as its slope finds
it, inside a bracket, each step one two-point _bulk call that also
certifies the answer.  Newton starts where Phi of the branches' velocity
table crosses 1/2, linear in q between the nodes, and needs one to three
calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._checks import as_numbers, real
from .dispersion import TWO_PI, WalkParams
from .evolve import (
    cumulative,
    cumulative_moment,
    current_density,
    evolve,
    probability_density,
    ring_layout,
)
from .fronts import cone_topology, edge_scale, is_one_cone

# half-width of each front's exclusion window, in edge scales
EXCLUSION = 8.0
# nodes per branch of the velocity table in which every root starts
_NODES = 128
# nu per block of _bulk: its (branches, nu) arrays then hold a few MB at any
# t (7 MB traced for two blocks), and blocks of 2^12 to 2^18 nu took 1.2 to
# 1.6 s over compare_bulk's 1.2 million nu at t = 3e5, this one the fastest
NU_BLOCK = 1 << 14
# the largest g for M~_2 and M~_3, ~8.9e101: the Fourier coefficients of v^3
# reach 24 g^3, at e^{+-2iq}, each of the antiderivative's harmonics is one
# coefficient times a sum over at most four branches of modulus <= 8, and
# the harmonics of M~_3 add up to less than 256 g^3, finite up to here
MOMENT_G_MAX = (sys.float_info.max / 256.0) ** (1.0 / 3.0)


def _evaluate(p: WalkParams, q):
    """sin q, cos q, v(q) and w''(q), from one sin/cos pair.

    With s = sin q, c = cos q, sin 2q = 2sc and cos 2q = (c - s)(c + s),
    v = -s (2 + 8g cos(phi) c) - 4g sin(phi) cos 2q and
    w'' = c (16g sin(phi) s - 2) - 8g cos(phi) cos 2q.
    """
    s, c = np.sin(q), np.cos(q)
    gc, gs = p.g * math.cos(p.phi), p.g * math.sin(p.phi)
    c2 = (c - s) * (c + s)
    v = -s * (2.0 + 8.0 * gc * c) - 4.0 * gs * c2
    return s, c, v, c * (16.0 * gs * s - 2.0) - 8.0 * gc * c2


def _energy(p: WalkParams, s, c):
    """w(q) = c (2 - 4g sin(phi) s) + 2g cos(phi) cos 2q from s = sin q and c = cos q."""
    gc, gs = p.g * math.cos(p.phi), p.g * math.sin(p.phi)
    return c * (2.0 - 4.0 * gs * s) + 2.0 * gc * (c - s) * (c + s)


class _Branches:
    """The monotone branches [a, b] of v, with v(a) = va, v(b) = vb, and their velocity table.

    a, b, va and vb are columns of shape (branches, 1).  Each branch's v is
    tabulated at _NODES Chebyshev-spaced wave vectors q[j, 0] = a < ... <
    q[j, -1] = b, with the fronts' own velocities at the ends.  Where
    roundoff reorders velocities closer than the float noise of v, the
    table is clipped to the end velocities and held monotone in the
    branch's direction.  merged holds every tabulated
    velocity, sorted, and count[j, r] says how many of the first r belong
    to branch j, so that one searchsorted over merged counts the
    velocities <= nu on every branch.  sin, cos and w at each branch's
    ends a and b are kept for the interval ends, one sin and cos per front.
    """

    def __init__(self, p: WalkParams, a, b, va, vb):
        self.a, self.b, self.va, self.vb = a, b, va, vb
        self.rising = vb > va
        self.q = a + (0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, _NODES))) * (b - a)
        self.q[:, 0], self.q[:, -1] = a[:, 0], b[:, 0]
        v = _evaluate(p, self.q)[2]
        v[:, 0], v[:, -1] = va[:, 0], vb[:, 0]
        sign = np.where(self.rising, 1.0, -1.0)
        self.v = sign * np.maximum.accumulate(np.clip(sign * v, sign * va, sign * vb), axis=1)
        order = np.argsort(self.v, axis=None, kind="stable")
        self.merged = self.v.ravel()[order]
        self.count = np.zeros((a.shape[0], order.size + 1), dtype=np.intp)
        np.cumsum(order // _NODES == np.arange(a.shape[0])[:, None], axis=1, out=self.count[:, 1:])
        self.sin_a, self.cos_a = np.sin(a), np.cos(a)
        self.w_a = _energy(p, self.sin_a, self.cos_a)
        # b is the next branch's a, or the first a plus 2pi
        self.sin_b, self.cos_b, self.w_b = (
            np.roll(x, -1, axis=0) for x in (self.sin_a, self.cos_a, self.w_a)
        )


def _branches(p: WalkParams) -> _Branches:
    """Monotone branches [a, b] of v between consecutive fronts, with v(a), v(b).

    The last branch wraps across the zone seam, so b may exceed pi.  End
    velocities are the fronts' own, which makes v_lm and v_rm exact branch
    extrema.  The result also carries the branches' velocity table.
    """
    fronts = sorted(cone_topology(p).fronts, key=lambda fr: fr.q_star)
    a = np.array([fr.q_star for fr in fronts])
    va = np.array([fr.velocity for fr in fronts])
    b = np.append(a[1:], a[0] + TWO_PI)
    return _Branches(p, a[:, None], b[:, None], va[:, None], np.roll(va, -1)[:, None])


def _cells(branches: _Branches, nu):
    """The (branch, nu) pairs whose branch straddles nu, and the table cell of each.

    Returns the pairs' branch and nu indices, and each cell's index k in the
    flattened table: its ends q[k] < q[k + 1] have the tabulated velocities
    v[k] and v[k + 1], and nu lies in [v[k], v[k + 1]) on a rising branch
    and in [v[k + 1], v[k]) on a falling one.
    """
    va, vb = branches.va, branches.vb
    branch, col = np.nonzero((np.minimum(va, vb) < nu) & (nu < np.maximum(va, vb)))
    below = branches.count[branch, np.searchsorted(branches.merged, nu, side="right")[col]]
    k = branch * _NODES + np.where(branches.rising[branch, 0], below - 1, _NODES - 1 - below)
    return branch, col, k


def _branch_roots(p: WalkParams, branches: _Branches, k, nu):
    """The root of v(q) = nu in each cell k of _cells, with sin, cos and w'' there.

    k and nu are 1-D arrays, one entry per (branch, nu) pair.  Newton on
    v - nu with v' = w'', started at the secant point of the cell and kept
    inside a bracket that every tested point narrows; a step that would
    leave the bracket is replaced by its midpoint.  Only the pairs still
    open are iterated.  A pair stops when |v - nu| reaches the float noise
    of v, 4 ulps of 2 + 4g + |nu|, or when the step or the bracket is down
    to adjacent floats, and its root is the point whose residual was
    tested.  Returns the rows root, sin, cos and w'' of one (4, pairs) array.
    """
    nodes, speeds = branches.q.ravel(), branches.v.ravel()
    lo, hi, va, vb = nodes[k], nodes[k + 1], speeds[k], speeds[k + 1]
    rising = vb > va
    x = lo + (nu - va) / (vb - va) * (hi - lo)
    del va, vb  # freed before the first iteration, over every pair, sets the peak memory
    noise = 4.0 * np.spacing(2.0 + 4.0 * p.g + np.abs(nu))
    out = np.empty((4, x.size))
    open_ = np.arange(x.size)
    while open_.size:
        s, c, v, slope = _evaluate(p, x)
        f = v - nu
        size = np.abs(f)
        right = (f <= 0.0) == rising
        lo = np.where(right, x, lo)
        hi = np.where(right, hi, x)
        mid = 0.5 * (lo + hi)
        # w'' vanishes at the branch ends: divide only where the Newton step
        # is shorter than the bracket, so the quotient neither overflows nor
        # divides by zero
        short = size < np.abs(slope) * (hi - lo)
        guess = x - np.divide(f, slope, out=np.zeros_like(f), where=short)
        nxt = np.where(short & (lo < guess) & (guess < hi), guess, mid)
        done = (
            (size <= noise)
            | (np.abs(nxt - x) <= np.spacing(np.abs(x)))
            | (mid == lo)
            | (mid == hi)
        )
        for row, arr in zip(out, (x, s, c, slope)):
            row[open_[done]] = arr[done]
        keep = ~done
        open_ = open_[keep]
        x, lo, hi, nu, rising, noise = (
            arr[keep] for arr in (nxt, lo, hi, nu, rising, noise)
        )
    return out


def _ends(p: WalkParams, nu, branches: _Branches):
    """The end of {v <= nu} that moves with nu on every branch, with its sin and cos.

    Arrays of shape (branches, len(nu)): the interval is [a, end] on a
    rising branch and [end, b] on a falling one, so an empty branch ends
    where it starts and a whole one at its far end; a NaN nu gives NaN.
    Only the roots take a sin and a cos; a branch end takes its front's.
    Also returns the straddling pairs' branch and nu indices, and w'' at
    their roots.
    """
    branch, col, k = _cells(branches, nu)
    root, s, c, curvature = _branch_roots(p, branches, k, nu[col])
    at_b = (nu >= np.maximum(branches.va, branches.vb)) == branches.rising
    end = np.where(at_b, branches.b, branches.a)
    sin = np.where(at_b, branches.sin_b, branches.sin_a)
    cos = np.where(at_b, branches.cos_b, branches.cos_a)
    for x in (end, sin, cos):
        x[:, np.isnan(nu)] = np.nan
    end[branch, col], sin[branch, col], cos[branch, col] = root, s, c
    return end, sin, cos, (branch, col, curvature)


def _branch_sum(x):
    """x summed over its first axis, one branch after another.

    Each column gets the same bits whatever the number of columns: numpy's
    sum may pair the terms of a short contiguous axis, as in a (branches, 1)
    block.
    """
    total = x[0].copy()
    for row in x[1:]:
        total += row
    return total


def _signed(branches: _Branches, at_end, fixed):
    """The sum over the branches of F(end) - F(start), one value per nu.

    at_end is F at each branch's moving end, shape (branches, len(nu)), and
    fixed is F at its other end, a column: a rising branch's start a and a
    falling branch's end b.  An empty branch adds exactly 0.
    """
    diff = at_end - fixed
    return _branch_sum(np.where(branches.rising, diff, -diff))


def _fixed(branches: _Branches, at_a, at_b):
    """A column of values at each branch's fixed end: a if it rises, b if it falls."""
    return np.where(branches.rising, at_a, at_b)


def _velocity_powers(p: WalkParams, kmax: int) -> dict:
    """Fourier coefficients of v^k for k = 2..kmax, index m + 2k for e^{imq}.

    v = w' = sum_{|m|<=2} c_m e^{imq} with c_{+-1} = +-i and
    c_{+-2} = +-2ig e^{+-i phi}; each further power is one convolution.
    """
    rot = complex(math.cos(p.phi), math.sin(p.phi))
    v = np.array([-2j * p.g * rot.conjugate(), -1j, 0.0, 1j, 2j * p.g * rot])
    powers, c = {}, v
    for k in range(2, kmax + 1):
        c = np.convolve(c, v)
        powers[k] = c
    return powers


def _bulk(p: WalkParams, nu, ks: tuple = (), branches: _Branches | None = None) -> dict:
    """Phi, J, rho and the scaled moments M~_k (k in ks) at every nu.

    Each of Phi, J and M~_k is (1/2pi) times the summed differences
    F_k(end) - F_k(start) of an antiderivative of v^k over the sub-level
    intervals: F_0 = q gives Phi, normalised by the summed branch lengths
    (the zone as the branches tile it, so it is exactly 0 below the cone
    and 1 above it); F_1 = w gives J, and M~_1 is J itself; for k >= 2,
    with v^k = sum c_m e^{imq}, F_k = c_0 q + sum_{m != 0} c_m e^{imq} / (im),
    summed one harmonic at a time from powers of e^{iq} = cos q + i sin q.
    rho = dPhi/dnu sums 1/|w''| over the same roots, those strictly inside
    their branches, which invert_velocity returns: a branch ending at nu is
    empty or whole and adds nothing, and a root where w'' is 0 (nu within
    float noise of a front) adds inf.  rho is 0 outside the cone and NaN at
    a NaN nu.  branches, if given, is _branches(p), for a caller that makes
    many calls.  The nu are taken NU_BLOCK at a time; each nu's values do
    not depend on the others.  With M~_2 or M~_3 asked for, a g above
    MOMENT_G_MAX is refused with ValueError.
    """
    high = sorted(k for k in set(ks) if k >= 2)
    if high:
        real("g", p.g, 0, MOMENT_G_MAX)
    branches = _branches(p) if branches is None else branches
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    powers = _velocity_powers(p, high[-1]) if high else {}
    names = ["phi", "j", "rho"] + (["m1"] if 1 in ks else []) + [f"m{k}" for k in high]
    out = {name: np.empty(nu.shape) for name in names}
    for lo in range(0, nu.size, NU_BLOCK):
        block = slice(lo, lo + NU_BLOCK)
        for name, values in _bulk_block(p, nu[block], high, powers, branches).items():
            out[name][block] = values
    if 1 in ks:
        out["m1"][:] = out["j"]
    return out


def _bulk_block(p: WalkParams, nu, high: list, powers: dict, branches: _Branches) -> dict:
    """_bulk's Phi, J, rho and M~_k (k in high, all >= 2) on one block of nu."""
    end, sin, cos, (_, col, curvature) = _ends(p, nu, branches)
    width = _signed(branches, end, _fixed(branches, branches.a, branches.b))
    curvature = np.abs(curvature)
    # np.nonzero lists the pairs branch by branch, so bincount adds each nu's
    # roots in _branch_sum's order
    weight = np.divide(1.0, curvature, out=np.full(curvature.shape, np.inf), where=curvature > 0.0)
    rho = np.bincount(col, weight, minlength=nu.size) / TWO_PI
    rho[np.isnan(nu)] = np.nan
    out = {
        "phi": width / _branch_sum(branches.b - branches.a),
        "j": _signed(branches, _energy(p, sin, cos), _fixed(branches, branches.w_a, branches.w_b)) / TWO_PI,
        "rho": rho,
    }
    if high:
        acc = {k: powers[k][2 * k].real * width for k in high}
        z = np.empty(end.shape, dtype=complex)
        z.real, z.imag = cos, sin
        z_fixed = _fixed(
            branches, branches.cos_a + 1j * branches.sin_a, branches.cos_b + 1j * branches.sin_b
        )
        # e and e_fixed are +-z^m, signed as in _signed, so that each
        # harmonic is one subtraction and one sum
        sign = np.where(branches.rising, 1.0, -1.0)
        e, e_fixed = sign * z, sign * z_fixed
        for m in range(1, 2 * high[-1] + 1):
            diff = _branch_sum(e - e_fixed)
            for k in high:
                if m <= 2 * k:
                    # the e^{-imq} term is the complex conjugate (v^k is real)
                    acc[k] += (2.0 / m) * (powers[k][2 * k + m] * -1j * diff).real
            e *= z
            e_fixed *= z_fixed
        for k in high:
            out[f"m{k}"] = acc[k] / TWO_PI
    return out


def invert_velocity(p: WalkParams, nu: float) -> list[float]:
    """All solutions q in [-pi, pi) of v(q) = nu, sorted.

    One root per monotone branch whose end velocities straddle nu; the
    empty list outside (v_lm, v_rm), for nu = -inf and inf too.  nu: a
    scalar, not NaN.
    """
    nu = real("nu", nu, finite=False)
    end, _, _, (branch, col, _) = _ends(p, np.array([nu]), _branches(p))
    return sorted(float(r - TWO_PI if r >= math.pi else r) for r in end[branch, col])


def _table_median(branches: _Branches) -> float:
    """Where Phi of the branches' velocity table crosses 1/2.

    Each branch's q(v) is taken linear between its nodes, so that Phi of the
    table is linear between consecutive merged velocities, and its crossing
    is one linear interpolation between the two that straddle 1/2.
    """
    grid = branches.merged
    width = np.zeros(grid.size)
    for j, rising in enumerate(branches.rising[:, 0].tolist()):
        v, q = branches.v[j], branches.q[j]
        if rising:
            width += np.interp(grid, v, q) - branches.a[j, 0]
        else:
            width += branches.b[j, 0] - np.interp(grid, v[::-1], q[::-1])
    phi = width / _branch_sum(branches.b - branches.a)[0]
    # phi is 0 at grid[0] = v_lm, so the first k with phi >= 1/2 is >= 1
    k = int(np.argmax(phi >= 0.5))
    lo, hi = grid[k - 1], grid[k]
    return float(lo + (0.5 - phi[k - 1]) / (phi[k] - phi[k - 1]) * (hi - lo))


def nu_half(p: WalkParams, tol: float = 1e-10) -> float:
    """Diagnostic: the scaled coordinate x where Phi crosses 1/2.

    In the one-cone phase (fronts.is_one_cone, read off the closed-form
    phase diagram with no front scan) the level set of v(0) = v(pi) =
    -4g sin(phi) is exactly {0, pi}, so that value is returned; so it is at
    phi = 0 in every phase, where v(-q) = -v(q) makes Phi(0) = 1/2 with no
    solve (-0.0, the one-cone expression's bits).  Otherwise the answer is
    certified: Phi(x - tol/2) < 1/2 <= Phi(x + tol/2).
    Newton on Phi - 1/2, with rho as its slope, starts where Phi of the
    branches' velocity table crosses 1/2 (_table_median), and stays inside
    a bracket with Phi(lo) < 1/2 <= Phi(hi), the cone [v_lm, v_rm] at
    first.  Each step evaluates Phi and rho at the candidate's two
    certifying points, clipped to the bracket, in one _bulk call: the
    candidate is returned if they straddle 1/2, and otherwise the nearer
    one becomes an end of the bracket and Newton steps from it; one to
    three calls in all at tol = 1e-10 over the two-cone phase.  A step
    that would leave the bracket, or meets an infinite rho (w'' = 0 at a
    root, at the critical couplings), or is not under half the step before
    last, is a bisection instead.  The last rule stops Newton from creeping
    where nu is within the float noise of a flat front: Phi is noise
    there, and the roots' rho finite but meaningless.  The bracket shrinks
    at every step; once it is down to adjacent floats (a tol below the
    float spacing), its upper end, the float where Phi reaches 1/2, is
    returned.  tol: >= 0, inf included.
    """
    tol = real("tol", tol, 0, finite=False)
    if is_one_cone(p) or p.phi == 0.0:
        return -4.0 * p.g * math.sin(p.phi)
    branches = _branches(p)
    lo, hi = float(branches.va.min()), float(branches.va.max())
    x = _table_median(branches)
    step = before = hi - lo
    while True:
        below = max(lo, x - 0.5 * tol)
        above = min(hi, x + 0.5 * tol)
        h = _bulk(p, [below, above], branches=branches)
        phi, rho = h["phi"], h["rho"]
        if phi[0] < 0.5 <= phi[1]:
            return x
        # both points lie on one side of the crossing; a point at lo or hi
        # repeats its Phi bit for bit, so the new end lies strictly inside
        i = 0 if phi[0] >= 0.5 else 1
        base = (below, above)[i]
        lo, hi = (lo, base) if i == 0 else (base, hi)
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi  # the bracket is down to adjacent floats
        x = mid
        if 0.0 < rho[i] < math.inf:
            newton = base + (0.5 - float(phi[i])) / float(rho[i])
            if lo < newton < hi and abs(newton - base) < 0.5 * before:
                x = newton
        before, step = step, abs(x - base)


@dataclass(frozen=True, eq=False)
class ScalingCurve:
    """Hydrodynamic Phi, J, rho and scaled moments at every nu of a 1-D array."""

    params: WalkParams
    nu: np.ndarray
    phi_scaled: np.ndarray
    j_scaled: np.ndarray
    rho: np.ndarray
    m_scaled: tuple  # arrays for k = 1, 2, 3


def scaling_curve(p: WalkParams, nu) -> ScalingCurve:
    """Phi, J, rho = dPhi/dnu and M~_1..3 at every nu, from one solve for the roots.

    nu: a scalar, which gives a one-point curve, or a 1-D array; NaN and
    +-inf included.  Each nu's values do not depend on the others: a NaN nu
    gives NaN in every field; outside the cone rho is 0, and Phi, J and
    M~_k are those of the empty or the whole zone; rho is inf where a root
    has w'' = 0 (nu within float noise of a front).  M~_1 is J bit for bit.
    p.g: at most MOMENT_G_MAX, ~8.9e101, above which M~_3 overflows; a
    larger g is refused with ValueError.
    """
    nu = np.atleast_1d(as_numbers("nu", nu))
    if nu.ndim != 1:
        raise ValueError(f"nu must be a scalar or a 1-D array, got an array of shape {nu.shape}")
    h = _bulk(p, nu, (1, 2, 3))
    return ScalingCurve(p, nu, h["phi"], h["j"], h["rho"], (h["m1"], h["m2"], h["m3"]))


@dataclass(frozen=True)
class Deviation:
    sup_outside: float
    l1_outside: float
    sup_inside: float


@dataclass(frozen=True, eq=False)
class BulkReport:
    params: WalkParams
    t: float
    windows: list = field(default_factory=list)
    deviations: dict = field(default_factory=dict)
    numeric: dict = field(default_factory=dict)  # compared fields over the whole ring
    origin: int = field(kw_only=True)  # index of site 0 in the numeric fields


def compare_bulk(p: WalkParams, t: float, margin: float = 0.25) -> BulkReport:
    """Evolve numerically on ring_layout(p, t) and measure deviations from hydro.

    Sites with nu = n/t within margin of the cone are compared against the
    sub-level-set predictions of Phi, J and M~_1..3 (the numeric moments
    scaled by t^k); sup and L1 deviations are reported separately outside
    and inside the exclusion windows, (centre, half-width) in nu: the edge
    region of a k-th order front spans ~ (|kappa_k| t)^(1/(k+2)) sites,
    where bulk scaling is violated by construction, and each window reaches
    EXCLUSION such edge scales either side of its front.  The five numeric
    fields, on every site of the ring, are returned in the report's numeric
    dict, with site 0 at index origin.  t: finite, > 0; margin: finite,
    >= 0.  ValueError is also raised before the evolution for a t so small
    that t^3 is not a normal float (the scaled moments would divide by zero
    or lose their precision), and when the windows cover every compared
    site, so that nothing would be compared outside them.  p.g: at most
    MOMENT_G_MAX, as in scaling_curve.
    """
    t, margin = real("t", t, 0, above=True), real("margin", margin, 0)
    d = cone_topology(p)
    wins = [(fr.velocity, EXCLUSION * edge_scale(fr, t) / t) for fr in d.fronts]
    L, origin = ring_layout(p, t)
    # after the ring's cap check, so that t^3 cannot overflow
    if t**3 < sys.float_info.min:
        raise ValueError(
            f"t={t} is too small to scale the moments: t^3 is below the smallest normal float"
        )
    nus = (np.arange(L) - origin) / t
    mask = (nus >= d.v_lm - margin) & (nus <= d.v_rm + margin)
    nus = nus[mask]
    inside = np.zeros(nus.shape, dtype=bool)
    for centre, half in wins:
        inside |= np.abs(nus - centre) <= half
    if inside.all():
        raise ValueError(
            f"the exclusion windows cover every compared site at t={t} "
            f"(nu in [{d.v_lm - margin:.6g}, {d.v_rm + margin:.6g}]): nothing lies outside them"
        )
    wf = evolve(p, t)
    prob = probability_density(wf)
    numeric = {
        "phi": cumulative(prob).values,
        "j": cumulative(current_density(wf)).values,
        **{f"m{k}": cumulative_moment(prob, k).values / t**k for k in (1, 2, 3)},
    }
    hydro = _bulk(p, nus, (1, 2, 3))
    devs = {}
    dnu = 1.0 / t
    for name, values in numeric.items():
        diff = np.abs(values[mask] - hydro[name])
        devs[name] = Deviation(
            sup_outside=float(diff[~inside].max()),
            l1_outside=float(diff[~inside].sum() * dnu),
            sup_inside=float(diff[inside].max()) if inside.any() else 0.0,
        )
    return BulkReport(p, t, wins, devs, numeric, origin=wf.origin)
