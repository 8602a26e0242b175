"""Exact time evolution of the initially localized walker and its observables.

Evolution is diagonal in momentum space, so a single inverse FFT of the
phase factors exp(-i w(q) t) gives the wave function at any time with no
time-stepping error.  The lattice is a periodic ring sized so that the
causal cone plus an Airy-tail margin fits with room to spare; a tail guard
verifies that wraparound contamination stays below 1e-10.

The ring kernels (the phase factors, the current, the cumulative moments
and the exact position moments) walk the ring in blocks of BLOCK sites, so
their temporaries stay in cache and only the output is ring-sized.  Each
block applies the same elementwise operations, in the same order, as the
whole-ring expression, and the cumulative moments carry each block's last
prefix sum into the next block's first term, so every output is
bit-identical to the whole-ring computation for any block size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dispersion import WalkParams, omega
from .fronts import cone_topology

TAIL_GUARD = 1e-10
GUARD_SITES = 10
# edge scales between an order-1 front and the ring edge: Ai(12) ~ 1e-13
TAIL_XI = 12.0
# largest ring evolved, 2^25 sites: ~2 GB for the arrays of one evolution
# (64 B per site), reached near t = 5e6 at g = 0.3
MAX_LATTICE = 1 << 25
# sites per block of the ring kernels: 2^14 complex values are 256 KB
BLOCK = 1 << 14
# exact summation: blocks per exact float64 accumulation; BLOCK x FSUM_FLUSH
# must stay <= 2^26 (2^14 terms x 2^12 blocks x 2^27 per term < 2^53)
FSUM_FLUSH = 1 << 12
_EXP_MIN = -1073  # np.frexp exponent of the smallest subnormal
_EXP_BUCKETS = 1024 - _EXP_MIN + 1


class GuardError(RuntimeError):
    """Lattice too small for the causal cone, or wraparound detected."""


class FieldKind(Enum):
    PROBABILITY = "probability"
    CURRENT = "current"
    CUMULATIVE_PROBABILITY = "cumulative_probability"
    CUMULATIVE_CURRENT = "cumulative_current"
    CUMULATIVE_MOMENT = "cumulative_moment"


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitudes on sites n in [-L/2, L/2) at time t."""

    params: WalkParams
    t: float
    L: int
    amps: np.ndarray

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.L) - self.L // 2


@dataclass(frozen=True, eq=False)
class ObservableField:
    """A real per-site field derived from a wave function."""

    kind: FieldKind
    values: np.ndarray
    t: float
    params: WalkParams
    L: int
    moment_order: int | None = None

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.L) - self.L // 2


def _blocks(size: int):
    """(start, stop) of the consecutive BLOCK-site slices that tile range(size)."""
    return ((start, min(start + BLOCK, size)) for start in range(0, size, BLOCK))


def next_fast_even(n: int) -> int:
    """Smallest even 5-smooth integer >= n (friendly FFT lengths)."""
    n = max(2, int(n))
    while True:
        m = n
        for prime in (2, 3, 5):
            while m % prime == 0:
                m //= prime
        if m == 1 and n % 2 == 0:
            return n
        n += 1


def max_front_speed(p: WalkParams) -> float:
    d = cone_topology(p)
    return max(abs(d.v_lm), abs(d.v_rm))


def _check_cap(L: int) -> int:
    if L > MAX_LATTICE:
        raise GuardError(f"lattice L={L} exceeds the cap of {MAX_LATTICE} sites")
    return L


def _tail_margin(order: int) -> float:
    """Edge scales past a front of this order where its Airy tail is negligible.

    Outside an order-k front the profile A_k decays like
    exp(-(k+1)/(k+2) sin(pi/(k+1)) xi^((k+2)/(k+1))), xi in units of the
    front's edge scale (|kappa_k| t)^(1/(k+2)).  The margin is the xi at
    which that bound equals Ai's exp(-(2/3) TAIL_XI^(3/2)) at TAIL_XI.
    """
    rate = (order + 1) / (order + 2) * math.sin(math.pi / (order + 1))
    decay = 2.0 / 3.0 * TAIL_XI**1.5
    return (decay / rate) ** ((order + 1) / (order + 2))


def auto_lattice_size(p: WalkParams, t: float) -> int:
    """Ring size from the outermost front on each side of the causal cone.

    Each of those fronts needs |v| t sites, plus _tail_margin(k) of its own
    edge scales (|kappa_k| t)^(1/(k+2)) for the Airy tail, plus a fixed 40
    sites; the ring's half-width is the larger side.  Raises GuardError
    above MAX_LATTICE, before the search for an FFT-friendly size
    (MAX_LATTICE is itself 5-smooth, so that search never passes the cap).
    """
    d = cone_topology(p)
    radius = 40.0 + max(
        abs(fr.velocity) * t + _tail_margin(fr.order) * (abs(fr.kappa) * t) ** (1.0 / (fr.order + 2))
        for fr in d.fronts
        if fr.velocity in (d.v_lm, d.v_rm)
    )
    return next_fast_even(_check_cap(2 * math.ceil(radius)))


def _phase_factors(p: WalkParams, t: float, L: int) -> np.ndarray:
    """exp(-i w(q_j) t) at q = 2 pi fftfreq(L), filled block by block."""
    phase = np.empty(L, dtype=complex)
    negative = (L - 1) // 2 + 1  # first index of fftfreq's negative half
    for start, stop in _blocks(L):
        # fftfreq's integers times 1/L, exactly as fftfreq builds them
        k = np.arange(start, stop)
        k[max(negative - start, 0):] -= L
        q = 2.0 * np.pi * (k * (1.0 / L))
        np.exp(-1j * omega(q, p) * t, out=phase[start:stop])
    return phase


def evolve(
    p: WalkParams,
    t: float,
    lattice: int | None = None,
    *,
    enforce_guard: bool = True,
) -> WaveFunction:
    """Evolve the site-0 delta state to time t on a periodic ring.

    amps[n] = (1/L) sum_j exp(i q_j n) exp(-i w(q_j) t), q_j = 2 pi j / L,
    which is the exact propagator of the ring Hamiltonian applied to the
    localized initial state.  Rings above MAX_LATTICE sites are refused
    with GuardError before anything is allocated.  With enforce_guard the
    lattice must be large enough that boundary amplitudes are negligible;
    pass enforce_guard=False only for deliberate small-ring studies (e.g.
    cross-checks against dense matrix exponentials, where wraparound is
    part of the model).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if lattice is None:
        L = auto_lattice_size(p, t)
    else:
        L = int(lattice)
        if L < 4 or L % 2:
            raise ValueError("lattice size must be an even integer >= 4")
        _check_cap(L)
        if enforce_guard and L / 2 < max_front_speed(p) * t + 12.0:
            raise GuardError(
                f"lattice L={L} too small for the causal cone at t={t}: "
                f"need L/2 >= {max_front_speed(p) * t + 12.0:.1f}"
            )
    amps = np.fft.fftshift(np.fft.ifft(_phase_factors(p, t, L)))
    wf = WaveFunction(p, float(t), L, amps)
    if enforce_guard:
        edge = max(np.max(np.abs(amps[:GUARD_SITES])), np.max(np.abs(amps[-GUARD_SITES:])))
        if edge >= TAIL_GUARD:
            raise GuardError(
                f"wraparound guard violated: boundary amplitude {edge:.2e} >= {TAIL_GUARD}"
            )
    return wf


def probability_density(wf: WaveFunction) -> ObservableField:
    """p(n, t) = |psi(n, t)|^2."""
    return ObservableField(
        FieldKind.PROBABILITY, np.abs(wf.amps) ** 2, wf.t, wf.params, wf.L
    )


def current_density(wf: WaveFunction) -> ObservableField:
    """Local probability current with NN and NNN bond contributions.

    j(n) = i [psi*(n-1) psi(n) - psi*(n) psi(n-1)]
         + 2 i g [e^{i phi} psi*(n-2) psi(n) - e^{-i phi} psi*(n) psi(n-2)]
         = -2 Im b1(n) - 4 g Im(e^{i phi} b2(n)),   b_m(n) = psi*(n-m) psi(n),

    evaluated with periodic neighbour indexing, block by block from slices
    of psi with a two-site halo.  The real form is computed directly, so
    the current is real by construction.  A non-finite value (from a
    non-finite wave function) raises GuardError.
    """
    psi = wf.amps
    g, rot = wf.params.g, np.exp(1j * wf.params.phi)
    j = np.empty(wf.L)
    for start, stop in _blocks(wf.L):
        # psi(n - 2) .. psi(n) for n in [start, stop), wrapping at site 0
        ext = psi[start - 2:stop] if start >= 2 else np.concatenate((psi[start - 2:], psi[:stop]))
        b1 = np.conj(ext[1:-1]) * ext[2:]
        b2 = np.conj(ext[:-2]) * ext[2:]
        out = j[start:stop]
        np.subtract(-2.0 * b1.imag, 4.0 * g * (rot * b2).imag, out=out)
        if not np.isfinite(out).all():
            raise GuardError("current density is not finite: the wave function has non-finite amplitudes")
    return ObservableField(FieldKind.CURRENT, j, wf.t, wf.params, wf.L)


def cumulative(field: ObservableField) -> ObservableField:
    """Prefix sum from the left lattice edge (cumulative distribution)."""
    if field.kind is FieldKind.PROBABILITY:
        kind = FieldKind.CUMULATIVE_PROBABILITY
    elif field.kind is FieldKind.CURRENT:
        kind = FieldKind.CUMULATIVE_CURRENT
    else:
        raise ValueError(f"cumulative not defined for {field.kind}")
    return ObservableField(kind, np.cumsum(field.values), field.t, field.params, field.L)


def _int_power(n: np.ndarray, k: int) -> np.ndarray:
    """n^k for integer-valued floats n, correctly rounded for k <= 4.

    n^2 is exact for |n| <= 2^26 (|n| <= 2^24 under MAX_LATTICE), so
    n^3 = n^2 n and n^4 = n^2 n^2 are each one rounded product, hence
    correctly rounded; np.power is only within an ulp, and slower.
    """
    if not 2 <= k <= 4:
        return n**k
    n2 = n * n
    return n2 if k == 2 else n2 * (n if k == 3 else n2)


def _moment_blocks(field: ObservableField, k: int, name: str):
    """Callable yielding n^k p(n) block by block, with the sites built as floats."""
    if field.kind is not FieldKind.PROBABILITY:
        raise ValueError(f"{name} expects a probability field")
    if k < 0:
        raise ValueError("moment order must be >= 0")
    offset = field.L // 2

    def blocks():
        for start, stop in _blocks(field.L):
            n = np.arange(start - offset, stop - offset, dtype=float)
            yield _int_power(n, k) * field.values[start:stop]

    return blocks


def cumulative_moment(field: ObservableField, k: int) -> ObservableField:
    """Prefix sums of n^k p(n), the k-th cumulative position moment.

    Each block's first term gets the previous block's last prefix sum before
    the block's cumsum, which is exactly the sequential sum over the ring.
    """
    values = np.empty(field.L)
    start = 0
    for terms in _moment_blocks(field, k, "cumulative_moment")():
        if start:
            terms[0] += values[start - 1]
        np.cumsum(terms, out=values[start:start + terms.size])
        start += terms.size
    return ObservableField(
        FieldKind.CUMULATIVE_MOMENT, values, field.t, field.params, field.L, moment_order=k
    )


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x) of a float64 array, with no Python step per element."""
    x = np.asarray(x, dtype=float).ravel()
    return _fsum_blocks(lambda: (x[start:stop] for start, stop in _blocks(x.size)))


def _fsum_blocks(blocks) -> float:
    """math.fsum of the float64 terms that blocks() yields, at most BLOCK at a time.

    Every finite term is m 2^(e-53) with an integer mantissa |m| < 2^53
    (np.frexp), split into a high half below 2^26 and a low half below
    2^27.  Each half is summed per exponent with np.bincount, block by
    block: a bucket gains less than BLOCK 2^27 per block and stays below
    2^53 over FSUM_FLUSH blocks, so every float64 bucket is an exact integer.
    The buckets are then combined as one Python int and rounded once by
    int division, which is correctly rounded (half to even) like fsum; a
    sum beyond the float range raises OverflowError as fsum does (only a
    finite sum that fsum rejects for an intermediate overflow is returned
    here).  A non-finite term hands every term to math.fsum, and an exact
    zero takes fsum's sign; both call blocks() again, so no ring-sized
    array of terms is ever built.
    """
    total = 0
    buckets = np.zeros((2, _EXP_BUCKETS))
    for i, x in enumerate(blocks(), 1):
        if not np.isfinite(x).all():
            return math.fsum(itertools.chain.from_iterable(b.tolist() for b in blocks()))
        m, e = np.frexp(x)
        m *= 2.0**53
        hi = np.trunc(m * 2.0**-27)
        idx = e - _EXP_MIN
        buckets[0] += np.bincount(idx, hi, _EXP_BUCKETS)
        buckets[1] += np.bincount(idx, m - hi * 2.0**27, _EXP_BUCKETS)
        if i % FSUM_FLUSH == 0:
            total += _bucket_total(buckets)
            buckets[:] = 0.0
    total += _bucket_total(buckets)
    if total == 0:
        # fsum's zero keeps the sign of all-(-0.0) input on Python >= 3.12
        signs = [np.signbit(x).all() for x in blocks()]
        return math.fsum([-0.0]) if signs and all(signs) else 0.0
    return total / (1 << (53 - _EXP_MIN))


def _bucket_total(buckets: np.ndarray) -> int:
    """The exact integer sum of the high and low mantissa buckets, in units of 2^(_EXP_MIN-53)."""
    his, los = buckets.tolist()
    return sum(((int(h) << 27) + int(lo)) << b for b, (h, lo) in enumerate(zip(his, los)))


def position_moment(field: ObservableField, k: int) -> float:
    """mu_k = sum_n n^k p(n), exactly rounded.

    n^4 p(n) spans many orders of magnitude at large t, so the terms are
    reduced to the exactly rounded sum, equal to math.fsum of the same
    terms, by a vectorised exponent-bucket reduction that takes them block
    by block (no per-site Python loop, no ring-sized array of terms).
    """
    return _fsum_blocks(_moment_blocks(field, k, "position_moment"))


def skewness(field: ObservableField) -> float:
    """gamma = mu_3 / mu_2^(3/2); rejects the degenerate t=0 distribution."""
    mu2 = position_moment(field, 2)
    if mu2 <= 0:
        raise ValueError("skewness undefined: second moment is not positive")
    return position_moment(field, 3) / mu2**1.5
