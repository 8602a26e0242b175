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
this bit for bit), the scaled
moments come from
Gauss-Legendre quadrature of v^k (the package telescopes a closed-form
antiderivative), the ring kernels come from whole-ring array
expressions (the package walks the ring in cache-sized blocks and must
match these bit for bit), the ring amplitudes come from a direct
O(L^2) Fourier sum with exactly reduced angles, summed exactly (the package
runs a four-step FFT), the Airy contour comes from the segment and ray
concatenated into one complex node array (the package keeps the segment
real and sums the pieces apart), and the ring layout comes from one
next-larger 5-smooth search per tried length (the package enumerates the
candidate lengths once).
"""

import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm

from chiralwalk import ExtremalFront, cone_topology, edge_scale, omega
from chiralwalk.airy import RAY_DECAY, RAY_NODES, SEGMENT_NODES, _unit_rule
from chiralwalk.dispersion import TWO_PI, omega_deriv
from chiralwalk.fronts import G_SEED, NEWTON_STEPS, TOL_CIRCLE, TOL_ROOT
from chiralwalk.evolve import GUARD_SITES, _check_cap, _int_power, _rows, _tail_margin
from chiralwalk.hydro import _branches

_BISECT_STEPS = 54  # brackets a root on a branch of length <= 2pi to < 4e-16


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
    u, wu = _unit_rule(SEGMENT_NODES)
    v, wv = _unit_rule(RAY_NODES)
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


def ring_sides(p, t, reach=0):
    """(left, right): the sites the automatic ring needs on each side of site 0, as floats.

    Each side holds its outermost front's |v| t, its Airy tail and 40 sites,
    and at least reach + GUARD_SITES sites past the front, as in
    evolve.ring_layout.
    """
    d = cone_topology(p)

    def side(v):
        return max(
            abs(v) * t + max(_tail_margin(fr.order) * edge_scale(fr, t) + 40.0, reach + GUARD_SITES)
            for fr in d.fronts
            if fr.velocity == v
        )

    return side(d.v_lm), side(d.v_rm)


def stepped_ring_layout(p, t, reach=0):
    """(L, origin) of the automatic ring, trying one next-larger length at a time.

    The sides are ring_sides; each rejected length L starts a fresh search
    for the smallest even 5-smooth integer >= L + 1.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got t={t}")
    left, right = ring_sides(p, t, reach)
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
    """exp(-i w(q) t) at q = 2 pi fftfreq(L), as one whole-ring expression."""
    q = 2.0 * np.pi * np.fft.fftfreq(L)
    return np.exp(-1j * omega(q, p) * t)


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


def bisected_sublevel(p, nu):
    """Interval [start, end] of {v <= nu} on every branch, shape (branches, len(nu)).

    Each branch's root is bisected a fixed _BISECT_STEPS times, all
    branches and all nu at once; an empty interval has start == end, a
    whole branch is exactly [a, b].
    """
    a, b, va, vb = _branches(p)
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
    """(polished root, multiplicity) of one trigonometric polynomial's real roots."""
    z = np.roots(coeffs)
    q = np.sort(np.angle(z[np.abs(np.log(np.abs(z))) < TOL_CIRCLE]))
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

    The companion eigenvalues come from np.roots on this point's quartic
    alone, and each root cluster is polished by Newton in Python floats.
    """
    w2 = lambda q, j: omega_deriv(q, 2 + j, p)
    if p.g < G_SEED:
        roots = [(_polish(w2, q, 1), 1) for q in (-math.pi / 2, math.pi / 2)]
    else:
        c = 4.0 * p.g * complex(math.cos(p.phi), math.sin(p.phi))
        roots = _circle_roots([c, 1.0, 0.0, 1.0, c.conjugate()], w2, TOL_ROOT * (1.0 + 8.0 * p.g))
    fronts = []
    for q, order in roots:
        kappa = omega_deriv(q, order + 2, p) / math.factorial(order + 1)
        v = omega_deriv(q, 1, p)
        fronts.append(ExtremalFront(q, v, order, kappa, "left" if v < 0 else "right"))
    fronts.sort(key=lambda fr: fr.velocity)
    return fronts


def per_point_critical_coupling(phi):
    """g_c(phi) from np.roots on this phi's sextic alone, polished in Python floats."""
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
