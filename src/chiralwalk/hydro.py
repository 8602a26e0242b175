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
q_r of v = nu moves with nu at the rate 1/|v'(q_r)|.

Between consecutive front wave vectors q* the group velocity is monotone,
because w'' has no root there.  The zone therefore splits into monotone
branches, and on each branch the sub-level set is one interval ending at
the branch's single root of v = nu.  Branches whose end velocities both
lie on one side of nu are empty or whole without any root finding; on
the others a safeguarded Newton iteration finds the root, all branches and
all nu at once.  This is valid on both sides of the Lifshitz transition
and at the critical couplings.

The median nu_half, where Phi crosses 1/2, is exactly v(0) = -4g sin(phi)
in the one-cone phase; otherwise Newton on Phi - 1/2 with the closed-form
rho as its slope finds it, each step one two-point sub-level call that
also certifies the answer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dispersion import TWO_PI, WalkParams, omega, omega_deriv
from .evolve import (
    _ring_layout,
    cumulative,
    cumulative_moment,
    current_density,
    evolve,
    probability_density,
)
from .fronts import ConeTopology, FrontDiagram, cone_topology, edge_scale

DEFAULT_EXCLUSION = 8.0


def _branches(p: WalkParams):
    """Monotone branches [a, b] of v between consecutive fronts, with v(a), v(b).

    Columns of shape (branches, 1); the last branch wraps across the zone
    seam, so b may exceed pi.  End velocities are the fronts' own, which
    makes v_lm and v_rm exact branch extrema.
    """
    fronts = sorted(cone_topology(p).fronts, key=lambda fr: fr.q_star)
    a = np.array([fr.q_star for fr in fronts])
    va = np.array([fr.velocity for fr in fronts])
    b = np.append(a[1:], a[0] + TWO_PI)
    return a[:, None], b[:, None], va[:, None], np.roll(va, -1)[:, None]


def _branch_roots(p: WalkParams, a, b, va, vb, nu):
    """The root of v(q) = nu on each branch [a, b], with nu strictly between va and vb.

    All arguments are 1-D arrays, one entry per (branch, nu) pair.  Newton
    on v - nu with v' = w'', started at the secant point of the branch and
    kept inside a bracket that every tested point narrows; a step that
    would leave the bracket is replaced by its midpoint.  Only the pairs
    still open are iterated.  A pair stops when |v - nu| reaches the float
    noise of v, 4 ulps of 2 + 4g + |nu|, or when the step or the bracket is
    down to adjacent floats, and its root is the point whose residual was
    tested.
    """
    rising = vb > va
    x = a + (nu - va) / (vb - va) * (b - a)
    lo, hi = a, b
    noise = 4.0 * np.spacing(2.0 + 4.0 * p.g + np.abs(nu))
    root = np.empty_like(x)
    open_ = np.arange(x.size)
    while open_.size:
        f = omega_deriv(x, 1, p) - nu
        slope = omega_deriv(x, 2, p)
        right = (f <= 0.0) == rising
        lo = np.where(right, x, lo)
        hi = np.where(right, hi, x)
        mid = 0.5 * (lo + hi)
        # w'' vanishes at the branch ends: divide only where the Newton step
        # is shorter than the bracket, so the quotient neither overflows nor
        # divides by zero
        short = np.abs(f) < np.abs(slope) * (hi - lo)
        guess = x - np.divide(f, slope, out=np.zeros_like(f), where=short)
        nxt = np.where(short & (lo < guess) & (guess < hi), guess, mid)
        done = (
            (np.abs(f) <= noise)
            | (np.abs(nxt - x) <= np.spacing(np.abs(x)))
            | (mid == lo)
            | (mid == hi)
        )
        root[open_[done]] = x[done]
        keep = ~done
        open_ = open_[keep]
        x, lo, hi, nu, rising, noise = (
            arr[keep] for arr in (nxt, lo, hi, nu, rising, noise)
        )
    return root


def _sublevel(p: WalkParams, nu, branches=None):
    """Interval [start, end] of {v <= nu} on every branch, shape (branches, len(nu)).

    An empty interval has start == end, a whole branch is exactly [a, b];
    a NaN nu gives NaN ends on every branch.  branches, if given, is
    _branches(p), for a caller that makes many calls.
    """
    a, b, va, vb = _branches(p) if branches is None else branches
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    rising = vb > va
    v_min, v_max = np.minimum(va, vb), np.maximum(va, vb)
    root = np.full(np.broadcast_shapes(a.shape, nu.shape), np.nan)
    branch, col = np.nonzero((v_min < nu) & (nu < v_max))
    root[branch, col] = _branch_roots(
        p, a[branch, 0], b[branch, 0], va[branch, 0], vb[branch, 0], nu[col]
    )
    root = np.where(nu <= v_min, np.where(rising, a, b), root)
    root = np.where(nu >= v_max, np.where(rising, b, a), root)
    return np.where(rising, a, root), np.where(rising, root, b)


def _phi_density(p: WalkParams, nu, branches):
    """Phi and rho = dPhi/dnu at every nu, from one _sublevel call.

    Phi is _bulk's, bit for bit.  rho sums 1/|w''| over the roots strictly
    inside their branches, the roots invert_velocity returns: a branch
    ending at nu is empty or whole and adds nothing, and a root where w''
    is 0 (nu within float noise of a front) adds inf.  rho is 0
    outside the cone and NaN at a NaN nu.
    """
    a, b, va, vb = branches
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    start, end = _sublevel(p, nu, branches)
    straddle = (np.minimum(va, vb) < nu) & (nu < np.maximum(va, vb))
    curvature = np.abs(omega_deriv(np.where(vb > va, end, start), 2, p))
    weight = np.divide(
        1.0, curvature, out=np.full(curvature.shape, np.inf), where=straddle & (curvature > 0.0)
    )
    rho = np.where(straddle, weight, 0.0).sum(0) / TWO_PI
    rho[np.isnan(nu)] = np.nan
    return (end - start).sum(0) / (b - a).sum(0), rho


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


def _bulk(p: WalkParams, nu, ks: tuple = ()) -> dict:
    """Phi, J and the scaled moments M~_k (k in ks) at every nu.

    Each is (1/2pi) times the summed differences F_k(end) - F_k(start) of
    an antiderivative of v^k over the sub-level intervals: F_0 = q gives
    Phi, normalised by the summed branch lengths (the zone as the branches
    tile it, so it is exactly 0 below the cone and 1 above it); F_1 = w
    gives J, and M~_1 is J itself; for k >= 2, with v^k = sum c_m e^{imq},
    F_k = c_0 q + sum_{m != 0} c_m e^{imq} / (im), summed one harmonic at
    a time from powers of e^{iq}.
    """
    a, b, _, _ = _branches(p)
    start, end = _sublevel(p, nu)
    width = (end - start).sum(0)
    out = {
        "phi": width / (b - a).sum(0),
        "j": (omega(end, p) - omega(start, p)).sum(0) / TWO_PI,
    }
    if 1 in ks:
        out["m1"] = out["j"].copy()
    high = sorted(k for k in set(ks) if k >= 2)
    if high:
        powers = _velocity_powers(p, high[-1])
        acc = {k: powers[k][2 * k].real * width for k in high}
        z_start, z_end = np.exp(1j * start), np.exp(1j * end)
        e_start, e_end = z_start.copy(), z_end.copy()
        for m in range(1, 2 * high[-1] + 1):
            diff = e_end.sum(0) - e_start.sum(0)
            for k in high:
                if m <= 2 * k:
                    # the e^{-imq} term is the complex conjugate (v^k is real)
                    acc[k] += (2.0 / m) * (powers[k][2 * k + m] * -1j * diff).real
            e_start *= z_start
            e_end *= z_end
        for k in high:
            out[f"m{k}"] = acc[k] / TWO_PI
    return out


def invert_velocity(p: WalkParams, nu: float) -> list[float]:
    """All solutions q in [-pi, pi) of v(q) = nu, sorted.

    One root per monotone branch whose end velocities straddle nu; the
    empty list outside (v_lm, v_rm).
    """
    _check_scalar(nu)
    _, _, va, vb = _branches(p)
    start, end = _sublevel(p, nu)
    roots = np.where(vb > va, end, start)[(np.minimum(va, vb) < nu) & (nu < np.maximum(va, vb))]
    return sorted(float(r - TWO_PI if r >= math.pi else r) for r in roots)


def _check_scalar(nu) -> None:
    if np.ndim(nu) != 0:
        raise ValueError(f"nu must be a scalar, got an array of shape {np.shape(nu)}")


def scaled_cpd(p: WalkParams, nu: float) -> float:
    """Phi(nu): measure of the sub-level set {v <= nu}, normalised by 2pi."""
    _check_scalar(nu)
    return float(_bulk(p, nu)["phi"][0])


def scaled_ccd(p: WalkParams, nu: float) -> float:
    """J(nu) = (1/2pi) integral of v over {v <= nu} = telescoped band energies."""
    _check_scalar(nu)
    return float(_bulk(p, nu)["j"][0])


def scaled_moment(p: WalkParams, nu: float, k: int) -> float:
    """Scaled cumulative moment: (1/2pi) integral of v^k over {v <= nu}."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"moment order must be >= 1 and an integer, got k={k}")
    _check_scalar(nu)
    return float(_bulk(p, nu, (k,))[f"m{k}"][0])


def scaled_density(p: WalkParams, nu: float) -> float:
    """rho(nu) = dPhi/dnu = (1/2pi) sum_r 1/|w''(q_r)| over the roots of v(q) = nu.

    0 outside the causal cone; at a front velocity the branch that ends
    there adds nothing, although rho diverges as nu approaches it.
    """
    _check_scalar(nu)
    return float(_phi_density(p, nu, _branches(p))[1][0])


def nu_half(p: WalkParams, tol: float = 1e-10) -> float:
    """Diagnostic: the scaled coordinate x where Phi crosses 1/2.

    In the one-cone phase the level set of v(0) = v(pi) = -4g sin(phi) is
    exactly {0, pi}, so that value is returned.  Otherwise the answer is
    certified: Phi(x - tol/2) < 1/2 <= Phi(x + tol/2).  Newton on
    Phi - 1/2, with rho as its slope, starts at -4g sin(phi) and stays
    inside a bracket with Phi(lo) < 1/2 <= Phi(hi).  Each step evaluates
    Phi and rho at the candidate's two certifying points, clipped to the
    bracket, in one _sublevel call: the candidate is returned if they
    straddle 1/2, and otherwise the nearer one becomes an end of the
    bracket and Newton steps from it.  A step that would leave the bracket,
    or meets an infinite rho (w'' = 0 at a root, at the critical
    couplings), is a bisection instead.  The bracket shrinks at every step;
    once it is down to adjacent floats (a tol below the float spacing),
    its upper end, the float where Phi reaches 1/2, is returned.  A tol
    that is not >= 0 (NaN or negative) is refused with ValueError.
    """
    if not tol >= 0.0:
        raise ValueError(f"nu_half needs tol >= 0, got tol={tol!r}")
    d = cone_topology(p)
    x = -4.0 * p.g * math.sin(p.phi)
    if d.topology is ConeTopology.ONE_CONE:
        return x
    branches = _branches(p)
    lo, hi = d.v_lm, d.v_rm
    while True:
        below = max(lo, x - 0.5 * tol)
        above = min(hi, x + 0.5 * tol)
        phi, rho = _phi_density(p, [below, above], branches)
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
            if lo < newton < hi:
                x = newton


@dataclass(frozen=True, eq=False)
class ScalingCurve:
    """Hydrodynamic Phi, J and scaled moments sampled on a nu grid."""

    params: WalkParams
    nu: np.ndarray
    phi_scaled: np.ndarray
    j_scaled: np.ndarray
    m_scaled: tuple  # arrays for k = 1, 2, 3


def scaling_curve(p: WalkParams, num: int = 4001) -> ScalingCurve:
    """Sample the bulk scaling functions across the causal cone, 0.5 past each side."""
    d = cone_topology(p)
    nu = np.linspace(d.v_lm - 0.5, d.v_rm + 0.5, num)
    h = _bulk(p, nu, (1, 2, 3))
    return ScalingCurve(p, nu, h["phi"], h["j"], (h["m1"], h["m2"], h["m3"]))


def exclusion_windows(
    diagram: FrontDiagram, t: float, c: float = DEFAULT_EXCLUSION
) -> list[tuple[float, float]]:
    """(centre, half-width) in nu of the edge windows around each front.

    The edge region of a k-th order front spans ~ (|kappa_k| t)^(1/(k+2))
    sites, where bulk scaling is violated by construction.  t must be
    finite and > 0, and c finite and >= 0.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"exclusion windows need a finite t > 0, got t={t}")
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"exclusion must be finite and >= 0, got {c}")
    return [(fr.velocity, c * edge_scale(fr, t) / t) for fr in diagram.fronts]


@dataclass(frozen=True)
class Deviation:
    sup_outside: float
    l1_outside: float
    sup_inside: float


@dataclass(frozen=True, eq=False)
class BulkReport:
    params: WalkParams
    t: float
    exclusion: float
    windows: list = field(default_factory=list)
    deviations: dict = field(default_factory=dict)
    numeric: dict = field(default_factory=dict)  # compared fields over the whole ring
    origin: int = field(kw_only=True)  # index of site 0 in the numeric fields


def compare_bulk(
    p: WalkParams,
    t: float,
    exclusion: float = DEFAULT_EXCLUSION,
    lattice: int | None = None,
    margin: float = 0.25,
) -> BulkReport:
    """Evolve numerically and measure deviations from the hydro predictions.

    Sites with nu = n/t within margin of the cone are compared against the
    sub-level-set predictions of Phi, J and M~_1..3 (the numeric moments
    scaled by t^k); sup and L1 deviations are reported separately outside
    and inside the front exclusion windows (half-width exclusion * edge
    scale).  The five numeric fields, on every site of the ring, are
    returned in the report's numeric dict, with site 0 at index origin.
    ValueError is raised before the evolution for a t that is not positive
    (NaN included), for a margin that is not finite and >= 0, for a t so
    small that t^3 is not a normal float (the scaled moments would divide
    by zero or lose their precision), and when the windows cover every
    compared site, so that nothing would be compared outside them.
    """
    if not t > 0:
        raise ValueError(f"compare_bulk needs t > 0, got t={t}")
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"compare_bulk needs a finite margin >= 0, got margin={margin}")
    d = cone_topology(p)
    wins = exclusion_windows(d, t, exclusion)
    L, origin = _ring_layout(p, t, lattice)
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
    wf = evolve(p, t, lattice)
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
    return BulkReport(p, float(t), exclusion, wins, devs, numeric, origin=wf.origin)
