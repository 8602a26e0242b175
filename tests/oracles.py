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
package takes the unit-circle roots of a quartic in e^{iq}), the scaled
moments come from
Gauss-Legendre quadrature of v^k (the package telescopes a closed-form
antiderivative), the ring kernels come from whole-ring array
expressions (the package walks the ring in cache-sized blocks and must
match these bit for bit), and the ring amplitudes come from a direct
O(L^2) Fourier sum with exactly reduced angles, summed exactly (the package
runs a four-step FFT).
"""

import math

import mpmath as mp
import numpy as np
from scipy.linalg import expm

from chiralwalk import omega
from chiralwalk.dispersion import omega_deriv
from chiralwalk.evolve import _int_power
from chiralwalk.hydro import _branches

_BISECT_STEPS = 54  # brackets a root on a branch of length <= 2pi to < 4e-16


def series_airy(k, xi, dps=60, nmax=4000):
    """Maclaurin series of the order-k edge profile function.

    Expanding exp(-i xi eta) under the integral gives moments of
    exp(-i eta^(k+2)/(k+2)) along the decay rays, which reduce to Gamma
    functions; the series is entire and is summed in mpmath arithmetic so
    the large-|xi| cancellation costs no precision.
    """
    with mp.workdps(dps):
        kp2 = k + 2
        delta = mp.pi / (2 * kp2)
        total = mp.mpf(0)
        x = mp.mpf(xi)
        small = 0
        for m in range(nmax):
            gam = mp.power(kp2, mp.mpf(m + 1) / kp2 - 1) * mp.gamma(mp.mpf(m + 1) / kp2)
            if m % 2 == 0:
                term = ((-1) ** (m // 2)) * x**m / mp.factorial(m) * 2 * gam * mp.cos((m + 1) * delta)
            else:
                term = ((-1) ** ((m + 1) // 2)) * x**m / mp.factorial(m) * 2 * gam * mp.sin((m + 1) * delta)
            total += term
            if abs(term) < mp.mpf(10) ** (-dps + 4):
                small += 1
                if small >= kp2 + 1:
                    break
            else:
                small = 0
        return float(total / (2 * mp.pi))


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
