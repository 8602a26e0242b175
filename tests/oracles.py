"""Independent reference implementations used only by the tests.

Each oracle takes a different route than the package code it checks:
the Airy-type profiles come from an exact Maclaurin series evaluated in
mpmath arbitrary precision (the package integrates a rotated contour in
float64), the ring evolution comes from a dense matrix exponential (the
package uses FFT diagonalization), and the hydrodynamic sub-level measure
comes from counting a dense uniform q grid (the package finds one root per
monotone branch of the group velocity), the sub-level roots come from a
fixed 54-step bisection of each branch (the package runs a safeguarded
Newton iteration and stops at the float noise of v), the front wave
vectors come from a quartic in cos q obtained by squaring away sin q (the
package takes the unit-circle roots of a quartic in e^{iq}), each point's
fronts come from its own np.roots call and a scalar Newton polish of each
root (the package scans a whole stack of points at once and must match
this bit for bit; both read the point's front count and orders off the
same closed-form phase diagram), the cone topology comes from counting a
point's fronts (the package reads it off the point's phase), the scaled
moments come from Gauss-Legendre quadrature of v^k (the package telescopes a closed-form
antiderivative), the ring kernels come from whole-ring array
expressions (the package walks the ring in cache-sized blocks and must
match these bit for bit), the ring amplitudes come from a direct
O(L^2) Fourier sum with exactly reduced angles, summed exactly (the package
runs a four-step FFT), the Airy contour comes from the segment and ray
concatenated into one complex node array (the package keeps the segment
real and sums the pieces apart), and the ring layout comes from one
next-larger 5-smooth search per tried length (the package enumerates the
candidate lengths once).  One helper is a self-check rather than a second
route: airy_ode_residual puts the package's own Airy table into the ODE
that A_k solves.
"""

import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm

from chiralwalk import ConeTopology, ExtremalFront, cone_topology
from chiralwalk._checks import real, whole
from chiralwalk.airy import RAY_DECAY, XI_LIMIT, _RAY_RULE, _SEGMENT_RULE, _ode_sign, airy_table
from chiralwalk.dispersion import PHI_MAX, TWO_PI, omega_deriv
from chiralwalk.fronts import (
    BAND_2, BAND_3_G, BAND_3_PHI, G_SEED, NEWTON_STEPS, _critical_root, same_velocity
)
from chiralwalk.evolve import GUARD_SITES, _check_cap, _int_power, _rows, _tail_margin
from chiralwalk.hydro import _branches, _ends

_BISECT_STEPS = 54  # brackets a root on a branch of length <= 2pi to < 4e-16
# the sextic scan of per_point_critical_coupling keeps a root on the unit
# circle within _TOL_CIRCLE in |log|z||, where |f| <= _TOL_ROOT at its angle
_TOL_CIRCLE = 1e-4
_TOL_ROOT = 1e-12


_SERIES = {}  # (k, dps) -> the Maclaurin coefficients of 2 pi A_k computed so far


def _series_coefficient(k, dps, m):
    """Coefficient of xi^m in the Maclaurin series of 2 pi A_k, at dps digits."""
    coef = _SERIES.setdefault((k, dps), [])
    while len(coef) <= m:
        j, kp2 = len(coef), k + 2
        delta = mp.pi / (2 * kp2)
        gam = mp.power(kp2, mp.mpf(j + 1) / kp2 - 1) * mp.gamma(mp.mpf(j + 1) / kp2)
        if j % 2 == 0:
            c = ((-1) ** (j // 2)) * 2 * gam * mp.cos((j + 1) * delta)
        else:
            c = ((-1) ** ((j + 1) // 2)) * 2 * gam * mp.sin((j + 1) * delta)
        coef.append(c / mp.factorial(j))
    return coef[m]


def series_airy(k, xi, dps=60, nmax=4000):
    """Maclaurin series of the order-k edge profile function.

    Expanding exp(-i xi eta) under the integral gives moments of
    exp(-i eta^(k+2)/(k+2)) along the decay rays, which reduce to Gamma
    functions; the series is entire and is summed in mpmath arithmetic so
    the large-|xi| cancellation costs no precision.  The coefficients do not
    depend on xi and are kept between calls.
    """
    with mp.workdps(dps):
        total = mp.mpf(0)
        x = mp.mpf(xi)
        power = mp.mpf(1)
        tiny = mp.mpf(10) ** (-dps + 4)
        small = 0
        for m in range(nmax):
            term = _series_coefficient(k, dps, m) * power
            total += term
            if abs(term) < tiny:
                small += 1
                if small >= k + 3:
                    break
            else:
                small = 0
            power *= x
        return float(total / (2 * mp.pi))


def airy_ode_residual(k, xi):
    """Residual A_k^(k+1)(xi) - c xi A_k(xi) of the defining ODE, for k = 1 or 3.

    c = (-1)^k i^(k+1) is real for odd k: +xi A_1 for k=1, -xi A_3 for k=3.
    Both terms are rows of one airy_table with derivs = k + 1, so the
    residual measures the quadrature alone (~1e-12 over the validated
    range), with no finite-difference step.  k: as in airy_table; xi: a
    scalar, with |xi| <= XI_LIMIT.
    """
    k, xi = whole("k", k, 1, 3), real("xi", xi, -XI_LIMIT, XI_LIMIT)
    a = airy_table(k, xi, derivs=k + 1)
    return float(a[k + 1] - _ode_sign(k) * xi * a[0])


def concatenated_contour(k, xi, rows):
    """A_k and its first rows - 1 derivatives on the package's contour, shape (rows, xi.size).

    The same nodes, weights and geometry as airy._contour, but the real
    segment [0, r0] and the ray are concatenated into one complex node
    array, so the phase, z^(k+2) and every row product run in complex
    arithmetic over all the nodes.
    """
    kp2 = k + 2
    delta = math.pi / (2.0 * kp2)
    rot = complex(math.cos(delta), -math.sin(delta))
    u, wu = _SEGMENT_RULE
    v, wv = _RAY_RULE
    x = np.asarray(xi, dtype=float)[:, None]
    r0 = np.where(x < 0.0, np.maximum(2.0, 1.6 * np.abs(x) ** (1.0 / (k + 1))), 1.0)
    a = (x + r0 ** (k + 1)) * math.sin(delta)
    s_max = np.minimum(RAY_DECAY / a, (kp2 * RAY_DECAY) ** (1.0 / kp2))
    z = np.concatenate([r0 * u, r0 + (s_max * v) * rot], axis=1)
    dz = np.concatenate([r0 * wu, (s_max * wv) * rot], axis=1)
    f = np.exp(-1j * (x * z + z**kp2 / kp2)) * dz
    out = np.empty((rows, x.shape[0]))
    for j in range(rows):
        if j:
            f *= -1j * z
        out[j] = f.sum(axis=1).real / math.pi
    return out


def _pruned_next_fast_even(n):
    """Smallest even 5-smooth integer >= n, pruning by the best length so far."""
    n = max(2, int(n))
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << max(1, (-(-n // odd) - 1).bit_length()))
            odd *= 3
        odd5 *= 5
    return best


def ring_sides(p, t, sites=None):
    """(left, right): the sites the whole ring needs on each side of site 0, as floats.

    Each side holds its outermost front's |v| t, its Airy tail and 40 sites,
    widened to hold the sites (n1, n2) with GUARD_SITES to spare, as in
    evolve._whole_ring.
    """
    d = cone_topology(p)

    def side(v):
        return max(
            abs(v) * t + _tail_margin(fr, t)
            for fr in d.fronts
            if fr.velocity == v
        )

    left, right = side(d.v_lm), side(d.v_rm)
    if sites is not None:
        left, right = max(left, GUARD_SITES - sites[0]), max(right, sites[1] + 1 + GUARD_SITES)
    return left, right


def stepped_ring_layout(p, t, sites=None):
    """(L, origin) of the whole ring, trying one next-larger length at a time.

    The sides are ring_sides; each rejected length L starts a fresh search
    for the smallest even 5-smooth integer >= L + 1.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got t={t}")
    left, right = ring_sides(p, t, sites)
    _check_cap(left + right)
    left, right = math.ceil(left), math.ceil(right)
    L = _pruned_next_fast_even(left + right)
    while True:
        _check_cap(L)
        R = _rows(L)
        step = L // R if R > 1 else 1
        if (L - right) // step * step >= left:
            return L, (left + L - right + step) // (2 * step) * step
        L = _pruned_next_fast_even(L + 1)


def ring_hamiltonian(L, g, phi):
    """Dense Hamiltonian of the periodic chain, NN plus complex NNN hopping."""
    H = np.zeros((L, L), dtype=complex)
    for n in range(L):
        H[n, (n + 1) % L] += 1.0
        H[n, (n - 1) % L] += 1.0
        H[n, (n + 2) % L] += g * np.exp(1j * phi)
        H[n, (n - 2) % L] += g * np.exp(-1j * phi)
    return H


def dense_ring_evolution(L, g, phi, t):
    """expm(-i H t) applied to the delta state, centered site indexing."""
    psi0 = np.zeros(L, dtype=complex)
    psi0[L // 2] = 1.0
    return expm(-1j * ring_hamiltonian(L, g, phi) * t) @ psi0


def exact_cut_current(amps, g, phi):
    """Lattice current through the cut between sites n-1 and n.

    Sums the NN bond plus both NNN bonds crossing the cut, so the discrete
    continuity equation dp/dt = j(n) - j(n+1) holds exactly for every g.
    """
    b_nn = np.conj(np.roll(amps, 1)) * amps
    b_far = np.conj(np.roll(amps, 2)) * amps
    b_straddle = np.conj(np.roll(amps, 1)) * np.roll(amps, -1)
    return -2.0 * np.imag(b_nn) - 2.0 * g * np.imag(np.exp(1j * phi) * (b_far + b_straddle))


def whole_ring_phase_factors(p, t, L):
    """exp(-i w(q_k) t) at q_k = 2 pi k / L, k = 0 .. L - 1, as one whole-ring expression.

    Frequency k is an image of the master j = min(k, L - k, |L/2 - k|) <= L/4
    with momentum q = 2 pi j / L: q itself for k <= L/4, pi - q below L/2,
    q + pi up to 3L/4 and -q above.  e^{-i w t} = A B with A = e^{-2it cos q}
    (conjugated at q + pi and pi - q) and B = e^{-2igt cos(2q + phi)} (phi
    negated at -q and pi - q).  2 pi / L is split in mpmath into a 29-bit
    head and a rounded tail, so j head is exact and q = j head + j tail is
    correctly rounded.
    """
    with mp.workdps(60):
        mantissa, exponent = mp.frexp(2 * mp.pi / L)
        head = mp.ldexp(mp.floor(mp.ldexp(mantissa, 29)), exponent - 29)
        head, tail = float(head), float(2 * mp.pi / L - head)
    k = np.arange(L)
    j = np.minimum(np.minimum(k, L - k), np.abs(L // 2 - k)).astype(float)
    q = j * head + j * tail
    a = np.exp(-2j * t * np.cos(q))
    b_plus = np.exp(-2j * p.g * t * np.cos(2.0 * q + p.phi))
    b_minus = np.exp(-2j * p.g * t * np.cos(2.0 * q - p.phi))
    mirrored = (4 * k > L) & (4 * k <= 3 * L)
    plus = (4 * k <= L) | ((2 * k >= L) & (4 * k <= 3 * L))
    return np.where(mirrored, np.conj(a), a) * np.where(plus, b_plus, b_minus)


def whole_ring_amplitudes(p, t, L):
    """The ring propagator of the site-0 delta state as one whole-ring FFT expression."""
    return np.fft.fftshift(np.fft.ifft(whole_ring_phase_factors(p, t, L)))


def direct_ring_amplitudes(phase, origin=None):
    """(1/L) sum_j phase[j] e^{2 pi i j n / L} on the sites n in [-origin, L - origin).

    origin is L // 2 by default.  The angle of each term is reduced as
    (j n mod L) in integers before the exp, and every site's terms are
    summed with math.fsum, so the only roundings are one exp and one
    product per term.
    """
    L = phase.size
    n = np.arange(L) - (L // 2 if origin is None else origin)
    r = np.outer(np.arange(L), n) % L
    terms = phase[:, None] * np.exp((2j * np.pi / L) * r)
    return np.array(
        [complex(math.fsum(c.real), math.fsum(c.imag)) for c in terms.T]
    ) / L


def whole_ring_current(amps, g, phi):
    """Single-bond NN plus NNN current with np.roll neighbours over the whole ring."""
    b1 = np.conj(np.roll(amps, 1)) * amps
    b2 = np.conj(np.roll(amps, 2)) * amps
    return -2.0 * b1.imag - 4.0 * g * (np.exp(1j * phi) * b2).imag


def whole_ring_moment_terms(values, k, origin=None):
    """n^k p(n) on the sites [-origin, L - origin), with the sites built as floats.

    origin is L // 2 by default.
    """
    L = values.size
    origin = L // 2 if origin is None else origin
    n = np.arange(-origin, L - origin, dtype=float)
    return _int_power(n, k) * values


def brute_force_cpd(g, phi, nus, n):
    """Fraction of n uniform midpoint wave vectors with v(q) <= nu, per nu.

    The group velocity v = -2 sin q - 4 g sin(2q + phi) is sampled directly
    and sorted once; the count error is at most one point per boundary of
    the sub-level set, i.e. a few times 1/n.
    """
    q = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    v = np.sort(-2.0 * np.sin(q) - 4.0 * g * np.sin(2.0 * q + phi))
    return np.searchsorted(v, nus, side="right") / n


def sublevel_intervals(p, nu, branches=None):
    """The package's intervals [start, end] of {v <= nu}, shape (branches, len(nu)).

    Built from hydro._ends, the roots that _bulk integrates over: an empty
    interval has start == end, a whole branch is exactly [a, b], and a NaN
    nu gives a NaN root end.  branches, if given, is _branches(p).
    """
    branches = _branches(p) if branches is None else branches
    end = _ends(p, np.atleast_1d(np.asarray(nu, dtype=float)), branches)[0]
    return np.where(branches.rising, branches.a, end), np.where(branches.rising, end, branches.b)


def bisected_sublevel(p, nu):
    """Interval [start, end] of {v <= nu} on every branch, shape (branches, len(nu)).

    Each branch's root is bisected a fixed _BISECT_STEPS times, all
    branches and all nu at once; an empty interval has start == end, a
    whole branch is exactly [a, b].
    """
    branches = _branches(p)
    a, b, va, vb = branches.a, branches.b, branches.va, branches.vb
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    rising = vb > va
    lo, hi = np.broadcast_arrays(a, b, nu)[:2]
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        right = (omega_deriv(mid, 1, p) <= nu) == rising
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    root = 0.5 * (lo + hi)
    root = np.where(nu <= np.minimum(va, vb), np.where(rising, a, b), root)
    root = np.where(nu >= np.maximum(va, vb), np.where(rising, b, a), root)
    return np.where(rising, a, root), np.where(rising, root, b)


def gauss_legendre_moment(g, phi, start, end, ks):
    """{k: (1/2pi) times the integral of v^k over the intervals [start, end]}.

    Intervals are arrays of shape (branches, n) and are summed over axis 0;
    each is integrated by fixed-order Gauss-Legendre with v = -2 sin q -
    4 g sin(2q + phi) sampled directly.  v^k is a trigonometric polynomial
    of degree 2k, so 64 nodes converge to roundoff on any interval within
    one zone, for every k up to a few and every g up to ~10.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    half, centre = 0.5 * (end - start), 0.5 * (end + start)
    total = {k: np.zeros(np.shape(start)[1]) for k in ks}
    for xi, wi in zip(x, w):
        q = centre + half * xi
        v = -2.0 * np.sin(q) - 4.0 * g * np.sin(2.0 * q + phi)
        vk = half
        for k in range(1, max(ks) + 1):
            vk = vk * v
            if k in total:
                total[k] += wi * vk.sum(0)
    return {k: m / (2.0 * np.pi) for k, m in total.items()}


def quartic_crosscheck(g, phi):
    """Real roots y = cos q of the squared form of the extremal condition.

    Squaring w''(q) = 0 to eliminate sin q yields
    64 g^2 y^4 + 16 g cos(2a) y^3 + (1 + 16 g mu cos(2a) - 64 g^2 sin^2(2a)) y^2
    + 2 mu y + mu^2 = 0 with a = phi/2 and mu = 8 g sin^2(a) - 4 g.  Every
    front's cos(q*) is a root, but the squaring can add spurious roots from
    the mirrored sin branch.  At phi = 0 the quartic degenerates into a
    perfect square, so the imaginary-part filter must tolerate the numeric
    splitting of double roots.  Roots with |y| > 1 are discarded.
    """
    if g <= 0:
        raise ValueError("quartic crosscheck requires g > 0")
    alpha = phi / 2.0
    mu = 8.0 * g * math.sin(alpha) ** 2 - 4.0 * g
    c4 = 64.0 * g * g
    c3 = 16.0 * g * math.cos(2.0 * alpha)
    c2 = 1.0 + 16.0 * g * mu * math.cos(2.0 * alpha) - 64.0 * g * g * math.sin(2.0 * alpha) ** 2
    c1 = 2.0 * mu
    c0 = mu * mu
    roots = np.roots([c4, c3, c2, c1, c0])
    real = sorted(
        float(r.real) for r in roots if abs(r.imag) < 1e-5 and abs(r.real) <= 1.0 + 1e-12
    )
    merged = []
    for r in real:
        if merged and abs(r - merged[-1]) < 1e-6:
            continue
        merged.append(r)
    return merged


def _polish(f, x, m):
    """Newton on f^(m-1), one scalar at a time."""
    for _ in range(NEWTON_STEPS):
        x -= f(x, m - 1) / f(x, m)
    return (x + math.pi) % TWO_PI - math.pi


def _circle_roots(coeffs, f, tol):
    """(polished root, multiplicity) of one trigonometric polynomial's real roots.

    Adjacent unit-circle roots are one multiple root when f also vanishes
    at their midpoint; a cluster of m roots is polished on f^(m-1).
    """
    z = np.roots(coeffs)
    q = np.sort(np.angle(z[np.abs(np.log(np.abs(z))) < _TOL_CIRCLE]))
    q = q[np.abs(f(q, 0)) <= tol]
    n = len(q)
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


def per_point_fronts(p):
    """The extremal fronts of one point, sorted by velocity, scanned on their own.

    The band rule of the package decides the order k of the point's multiple
    root, placed at the closed-form q_c + pi; the simple roots are the 4 - k
    roots of np.roots on this point's quartic alone farthest in angle from
    it, or off the bands the 2 + 2 [g > g_c] nearest the unit circle, each
    polished by Newton in Python floats.
    """
    w2 = lambda q, j: omega_deriv(q, 2 + j, p)
    q_c, g_c = _critical_root(p.phi)
    if abs(p.g - 0.125) <= BAND_3_G and PHI_MAX - p.phi <= BAND_3_PHI:
        k = 3
    else:
        k = 2 if abs(p.g / g_c - 1.0) <= BAND_2 else 0
    if p.g < G_SEED:
        seeds = [-math.pi / 2, math.pi / 2]
    else:
        c = 4.0 * p.g * complex(math.cos(p.phi), math.sin(p.phi))
        z = np.roots([c, 1.0, 0.0, 1.0, c.conjugate()])
        if k:
            far = np.abs((np.angle(z) - q_c + math.pi) % TWO_PI - math.pi)
            z = z[np.argsort(-far, kind="stable")[: 4 - k]]
        else:
            z = z[np.argsort(np.abs(np.log(np.abs(z))), kind="stable")[: 4 if p.g > g_c else 2]]
        seeds = np.angle(z).tolist()
    roots = [(_polish(w2, q, 1), 1) for q in seeds] + ([(q_c, k)] if k else [])
    fronts = []
    for q, order in roots:
        kappa = omega_deriv(q, order + 2, p) / math.factorial(order + 1)
        v = omega_deriv(q, 1, p)
        fronts.append(ExtremalFront(q, v, order, kappa, "left" if v < 0 else "right"))
    fronts.sort(key=lambda fr: (fr.velocity, fr.q_star))
    return fronts


def count_topology(fronts):
    """(topology, v_lm, v_rm) of a point's velocity-sorted fronts, by counting them.

    Two fronts are one cone, or the third-order critical point when one of
    them has order 3; three are the second-order critical point; four are
    two cones, overlapping when the two slowest fronts co-move.
    """
    n, orders = len(fronts), [fr.order for fr in fronts]
    assert n in (2, 3, 4), f"unexpected front count {n}"
    if n == 2:
        topology = ConeTopology.CRITICAL_THIRD_ORDER if 3 in orders else ConeTopology.ONE_CONE
    elif n == 3:
        topology = ConeTopology.CRITICAL_SECOND_ORDER
    elif same_velocity(fronts[0].velocity, fronts[1].velocity):
        topology = ConeTopology.TWO_OVERLAPPING_CONES
    else:
        topology = ConeTopology.TWO_NESTED_CONES
    return topology, fronts[0].velocity, fronts[-1].velocity


def per_point_critical_coupling(phi):
    """g_c(phi) from np.roots on this phi's sextic alone, polished in Python floats."""
    e = complex(math.cos(phi), math.sin(phi))
    sextic = [e, 0.0, 3.0 * e, 0.0, -3.0 * e.conjugate(), 0.0, -e.conjugate()]

    def f(q, j):
        shift = phi + j * math.pi / 2.0
        return 3.0**j * np.sin(3.0 * q + shift) + 3.0 * np.sin(q + shift)

    gs = []
    for q, _ in _circle_roots(sextic, f, _TOL_ROOT):
        c, s = math.cos(2.0 * q + phi), math.sin(2.0 * q + phi)
        gs.append(-(4.0 * math.cos(q) * c + 8.0 * math.sin(q) * s) / (16.0 * c * c + 64.0 * s * s))
    return min(g for g in gs if g > 0.0)
