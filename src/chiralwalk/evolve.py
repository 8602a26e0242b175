"""Exact time evolution of the initially localized walker and its observables.

Evolution is diagonal in momentum space, so one inverse discrete Fourier
transform of the phase factors exp(-i w(q) t) gives the wave function at any
time with no time-stepping error.  The ring is periodic and holds the
causal cone plus an Airy-tail margin; a tail guard verifies that wraparound
contamination stays below 1e-10.  It is chiral: each side is sized for its
own outermost front, so a cone asymmetric about the origin gets an
asymmetric ring, with site 0 at index origin.  A given lattice is a
centred (origin L/2), unguarded ring study.

A window of sites (n1, n2) that must be exact takes a windowed ring when
that is the shorter, holding the evolution of a state whose momenta are
weighted by a C-infinity step in q at a front in the window and in velocity
at every other root of v = n/t (_window_ring), folded onto its sites.

Rings of ROW_BATCH or more rows of at least BLOCK sites are transformed in
four steps (Bailey's FFT in hierarchical memory), because numpy's single
transform of a ring far larger than cache is limited by memory traffic.
The ring is viewed as R x M (L = R M, R even, R >= ROW_BATCH, M >= BLOCK):
frequency j = j1 + R j2 sits in row j1, column j2, and index n = n2 + M n1
in row n1, column n2.  The phase factors are filled into that layout from
momentum quartets (_phase_factors): of e^{-iwt} = e^{-2it cos q}
e^{-2igt cos(2q + phi)}, the first factor is conjugated at q + pi and
pi - q, and the second is the same at q + pi and, phi negated, at -q and
pi - q, so each master momentum in [0, pi/2] gives four sites for 3
complex exp, written in place as runs of consecutive frequencies.  Then
the rows are transformed (length M), ROW_BATCH rows per ifft call (numpy
vectorises a batch across rows, with one row's bits), the columns are
multiplied by the twiddles e^{2 pi i j1 (n2 - origin)/L}, and each column
is transformed (length R) in place, a chunk of columns at a time, so the
result is the ring in natural order and the amplitudes are a
reshape of the one buffer.  Rotating site 0 to index origin is the factor
e^{-2 pi i j origin/L} on the input; origin is a multiple of M, so that
factor depends on j1 alone and is folded into the twiddles as the exact
integer angle j1 (n2 - origin) mod L.  Smaller rings take one
np.roll(ifft(...), origin), which is fftshift(ifft(...)) at origin = L/2.
The amplitudes differ from that single transform at roundoff level.

The ring kernels (the phase factors, the probability and the current) walk
the ring in blocks of BLOCK sites (of BLOCK master momenta for the phase
factors), so their temporaries stay in cache and only the output is
ring-sized; the exact position moments and the terms of
the cumulative moments take blocks of SUM_BLOCK sites.  Each block applies
the same elementwise operations, in the same order, as the whole-ring
expression, and the cumulative moments are one in-place prefix sum over
the ring of their terms, so every output is bit-identical to the
whole-ring computation, applied to the same amplitudes, for any block
size.  Observable fields are read-only, and each exact position moment is
summed once per field and then reused.

On rings of at least THREAD_SITES sites the kernels are split by
map_runs across WORKERS threads, one per CPU in the process's affinity
mask: the phase fill, the row and column passes of the transform, the
probability, the current, the terms of the cumulative moments and the
exact sums.  Each thread takes a contiguous run
of the same block spans and writes only their slices, or, for an exact
sum, returns its own list of exact parts, which the caller joins in span
order; so every output is bit-identical for any worker count.  Smaller
rings, and a process confined to one CPU, run every kernel in the caller's
thread.  The prefix sums of the cumulative moments and the fallbacks of
the exact sums always run in the caller's thread; no other layer of the
package starts a thread.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import pair, real, whole
from .dispersion import TWO_PI, WalkParams, omega_deriv
from .fronts import cone_topology, edge_scale

TAIL_GUARD = 1e-10
GUARD_SITES = 10
# edge scales between an order-1 front and the ring edge: Ai(12) ~ 1e-13
TAIL_XI = 12.0
# Ai(TAIL_XI) ~ exp(-_DECAY): every margin of a ring puts its tail below this
_DECAY = 2.0 / 3.0 * TAIL_XI**1.5
# W's q-step at a front of order k, (d1, d2) in 1/edge scales: u s <= d1 reaches
# xi = d1^(k+1) (64, 256), past any edge window; at order 3 a d2 of 24 outgrows the whole ring
_Q_STEP = {1: (8.0, 24.0), 3: (4.0, 8.0)}
# 2 pi in units of 2^-_PHASE_BITS, from its first 100 digits, to reduce the
# carriers' phases exactly
_PHASE_BITS = 256
_TWO_PI_FIXED = (
    int("6283185307179586476925286766559005768394338798750211641949889184615632812572417997256069650684234136")
    << _PHASE_BITS
) // 10**99
# largest ring evolved, 2^25 sites: 0.5 GB for the amplitudes (16 B per
# site) and 0.27 GB per observable field, reached near t = 5e6 at g = 0.3
MAX_LATTICE = 1 << 25
# sites per block of the ring kernels: 2^14 complex values are 256 KB
BLOCK = 1 << 14
# sites per block of the exact sums and of the cumulative moments' terms.
# mu0..mu4 at t = 1e6 (5 400 000 sites) on one and on two workers: 2^14-site
# blocks 65 and 93 ms (two threads queue on the GIL between numpy calls),
# 2^15 63-66 and 50-51 ms, 2^16 78-82 and 46-50 ms (one thread's scratch
# outgrows its 2 MB L2)
SUM_BLOCK = 1 << 15
# rings of at least this many sites run their kernels on WORKERS threads (_ring_runs).
# Two workers against one, medians of 21 alternating runs on a 2-core Xeon:
#   sites     fill  transform  probability+current  exact sums  cumulative moments
#   552 960   -46%     -35%           -21%              -5%            +4%
#   262 144   -42%     -27%            -8%              -3%           +11%
#   163 840   -43%      -6%            -8%             +12%           +24%
#    46 080    -8%     +10%           +52%             +49%           +51%
THREAD_SITES = 1 << 18
# threads per kernel call at most: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# rows per ifft call in the four-step's row pass, and its fewest rows: one
# ifft of a ring with fewer rows of BLOCK sites measured as fast or faster
ROW_BATCH = 8
# highest moment order: n^k stays a float for |n| <= 2^24, half of a
# MAX_LATTICE ring, while 24 k < 1024
_MAX_MOMENT = 42


class GuardError(RuntimeError):
    """Ring above MAX_LATTICE sites, or wraparound detected."""


class FieldKind(Enum):
    PROBABILITY = "probability"
    CURRENT = "current"
    CUMULATIVE_PROBABILITY = "cumulative_probability"
    CUMULATIVE_CURRENT = "cumulative_current"
    CUMULATIVE_MOMENT = "cumulative_moment"


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitudes on sites n in [-origin, L - origin) at time t; origin indexes site 0.

    Site 0 may lie off the ring (origin < 0 or origin >= L): a windowed ring
    holds only the sites that the momenta of its window of sites reach.
    """

    params: WalkParams
    t: float
    L: int
    amps: np.ndarray
    origin: int

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.L) - self.origin


@dataclass(frozen=True, eq=False)
class ObservableField:
    """A real per-site field derived from a wave function.

    values is made read-only at construction (an array that does not own
    its data is copied first, so no other handle can write it), which keeps
    the position moments memoised in _moments valid.
    """

    kind: FieldKind
    values: np.ndarray
    t: float
    params: WalkParams
    L: int
    moment_order: int | None = None
    origin: int = dataclasses.field(kw_only=True)  # index of site 0
    _moments: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if not values.flags.owndata:
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.L) - self.origin


def _blocks(size: int, block: int | None = None) -> list:
    """(start, stop) of the consecutive block-site slices (BLOCK by default) that tile range(size)."""
    block = BLOCK if block is None else block
    return [(start, min(start + block, size)) for start in range(0, size, block)]


def map_runs(kernel, spans, runs: int) -> list:
    """[kernel(run) for each run], over contiguous runs of the sequence spans, one run per thread.

    spans is cut into min(runs, WORKERS, len(spans)) contiguous slices of
    near-equal length.  With one run or fewer, kernel(spans) is called in
    the caller's thread, as the one run.  Otherwise the caller takes the
    first run and one new thread each of the others.  kernel must write
    only what its run names, so the output does not depend on the split;
    its return values come back in run order.  An exception from any run
    is raised in the caller once every thread has finished, the earliest
    run's first.  The threads are started and joined inside the call, so
    none outlives it.
    """
    workers = min(runs, WORKERS, len(spans))
    if workers <= 1:
        return [kernel(spans)]
    parts = [spans[len(spans) * i // workers:len(spans) * (i + 1) // workers] for i in range(workers)]
    results, errors = [None] * workers, [None] * workers

    def work(i):
        try:
            results[i] = kernel(parts[i])
        except Exception as exc:  # raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        results[0] = kernel(parts[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _ring_runs(sites: int) -> int:
    """The most runs map_runs may cut a ring kernel's spans into: 1 below THREAD_SITES sites, else no cap."""
    return sys.maxsize if sites >= THREAD_SITES else 1


def _fast_even_lengths(lo: int, hi: int) -> list[int]:
    """The even 5-smooth integers in [lo, hi), ascending.

    For each 3^b 5^c below hi, the powers of two (at least 2) that put it in
    the interval; O(log^2 hi) candidates, no search over the integers.
    """
    out = []
    odd5 = 1
    while odd5 < hi:
        odd = odd5
        while odd < hi:
            length = odd << max(1, (-(-lo // odd) - 1).bit_length())
            while length < hi:
                out.append(length)
                length <<= 1
            odd *= 3
        odd5 *= 5
    return sorted(out)


def _check_cap(L: float) -> None:
    if L > MAX_LATTICE:
        # a given lattice int may exceed every float, and is printed whole
        size = f"{L:.3g}" if L <= sys.float_info.max else str(L)
        raise GuardError(f"lattice L={size} exceeds the cap of {MAX_LATTICE} sites")


def _tail_margin(front, t: float) -> float:
    """Sites a ring holds past a front at time t: its Airy tail, plus a fixed 40.

    Past an order-k front A_k decays like exp(-(k+1)/(k+2) sin(pi/(k+1))
    xi^((k+2)/(k+1))), xi in edge scales; the tail ends where that equals
    Ai(TAIL_XI)'s exp(-(2/3) TAIL_XI^(3/2)).
    """
    k = front.order
    rate = (k + 1) / (k + 2) * math.sin(math.pi / (k + 1))
    return (_DECAY / rate) ** ((k + 1) / (k + 2)) * edge_scale(front, t) + 40.0


def _sides(p: WalkParams, t: float, sites: tuple | None) -> tuple[float, float]:
    """(left, right): the sites the whole ring holds left of site 0 and from it on, at least.

    Each side holds |v| t + _tail_margin for its outermost front, and n1..n2
    with GUARD_SITES to spare.
    """
    d = cone_topology(p)

    def side(v: float) -> float:
        return max(abs(v) * t + _tail_margin(fr, t) for fr in d.fronts if fr.velocity == v)

    n1, n2 = sites or (0, 0)  # each side holds GUARD_SITES of sites anyway
    return max(side(d.v_lm), GUARD_SITES - n1), max(side(d.v_rm), n2 + 1 + GUARD_SITES)


def _whole_ring(p: WalkParams, t: float, sites: tuple | None) -> tuple[int, int]:
    """(L, origin) of the whole ring: the causal cone, and the sites n1..n2 when given.

    The smallest even 5-smooth L that holds _sides, with an index for site
    0 the transform can rotate to (a multiple of M = L/R, any when R = 1)
    mid-way in the spare sites.  GuardError above MAX_LATTICE.
    """
    left, right = _sides(p, t, sites)
    _check_cap(left + right)
    left, right = math.ceil(left), math.ceil(right)
    n = left + right
    # a ring of L >= 2n sites has L - n >= L/2 >= step spare sites, so it
    # holds a multiple of step between the sides: the power of two in
    # [2n, 4n) ends the search if no shorter length does
    for L in _fast_even_lengths(n, 4 * n):
        _check_cap(L)
        R = _rows(L)
        step = L // R if R > 1 else 1
        if (L - right) // step * step >= left:
            # the multiple of step nearest the middle of [left, L - right],
            # which lies inside that interval as some multiple does
            return L, (left + L - right + step) // (2 * step) * step


def _window_ring(p: WalkParams, t: float, n1: int, n2: int):
    """(lo, hi, (nu1, nu2, runs)): the sites of the windowed ring for sites n1..n2 at t > 0, or None.

    On each branch between fronts, where v = w' is monotone, W = step((dist -
    w1) / (w2 - w1)), dist the distance of v(q) from [nu1, nu2] = [n1, n2] / t,
    over a run (qa, qb, w1, w2) of momenta [qa, qb).  A front of order 1 or 3
    in the window gives its branch the q-step w1, w2 = dist at d1/s, d2/s
    from q*, run over q* .. q* +- d2/s, if d2/s lies on it, w1 > 0 and W
    vanishes around the far end; else w1 = delta1 = a ((2 + 8g)/t)^(1/2), w2 =
    3 delta1, run over the branch.  A ramp of width dq leaks ~exp(-sqrt(2
    delta1 t dq)) <= exp(-2a) into the window, so a = _DECAY / 2.  lo..hi
    holds the window and the reached sites, plus GUARD_SITES and _tail_margin
    past a front or, past a ramp, the D sites where its e^(-1/y) flank falls
    to exp(-sqrt(2 D dq)) = exp(-_DECAY).
    """
    fronts = sorted(cone_topology(p).fronts, key=lambda fr: fr.q_star)
    count, qs = len(fronts), [fr.q_star for fr in fronts] + [fronts[0].q_star + TWO_PI]
    nu1, nu2 = n1 / t, n2 / t
    delta1 = 0.5 * _DECAY * math.sqrt((2.0 + 8.0 * p.g) / t)

    def dist(v: float) -> float:
        return max(nu1 - v, v - nu2, 0.0)

    inside = [n1 <= fr.velocity * t <= n2 for fr in fronts]
    zones = {}  # branch: its q-step's run, flank margin, far end and the branch beyond that end
    for i in range(count):
        a, b = i, (i + 1) % count
        for f, far, beyond, sign in ((a, b, b, 1.0), (b, a, (i - 1) % count, -1.0)):
            d, s, q = _Q_STEP.get(fronts[f].order), edge_scale(fronts[f], t), fronts[f].q_star
            if inside[f] and not inside[far] and d and d[1] <= s * (qs[i + 1] - qs[i]):
                w1, w2 = (dist(omega_deriv(q + sign * x / s, 1, p)) for x in d)
                if w1 > 0.0:  # W = 0 on the branch past d2/s
                    run = (*sorted((q, q + sign * d[1] / s)), w1, w2)
                    zones[i] = (run, _DECAY**2 * s / (2.0 * (d[1] - d[0])), far, beyond)
    lo, hi, runs = n1, n2, []
    for i, (fr, nxt) in enumerate(zip(fronts, fronts[1:] + fronts[:1])):
        run, flank, far, beyond = zones.get(i, (None,) * 4)
        if run is None or (beyond not in zones and dist(fronts[far].velocity) < 3.0 * delta1):
            run, flank = (fr.q_star, nxt.q_star, delta1, 3.0 * delta1), delta1 * t
        f_lo, f_hi = sorted((fr, nxt), key=lambda x: x.velocity)
        lo_v, hi_v = max(f_lo.velocity, nu1 - run[3]), min(f_hi.velocity, nu2 + run[3])
        if lo_v < hi_v:
            lo = min(lo, lo_v * t - (flank if lo_v > f_lo.velocity else _tail_margin(f_lo, t)))
            hi = max(hi, hi_v * t + (flank if hi_v < f_hi.velocity else _tail_margin(f_hi, t)))
            runs.append(run)
    return (lo - GUARD_SITES, hi + GUARD_SITES, (nu1, nu2, runs)) if runs else None


def _layout(p: WalkParams, t: float, sites: tuple | None):
    """(L, origin, band) of evolve's ring: the windowed one (band from _window_ring) or the whole one (None).

    The windowed ring is the shortest even 5-smooth length holding its sites
    from index 0, taken when it is the shorter or alone within MAX_LATTICE.
    A windowed ring below left + right of _sides is shorter than every whole
    ring, which is then not searched for.
    """
    window = _window_ring(p, t, *sites) if sites is not None and t > 0 else None
    windowed = None
    if window is not None and window[1] - window[0] + 2 <= MAX_LATTICE:
        first, span = math.floor(window[0]), math.ceil(window[1]) - math.floor(window[0])
        L = _fast_even_lengths(span, 2 * span)[0]
        windowed = L, (L - span) // 2 - first, window[2]
        if L < sum(_sides(p, t, sites)):
            return windowed
    try:
        whole = _whole_ring(p, t, sites)
    except GuardError:
        if window is None:
            raise
        _check_cap(window[1] - window[0] + 2)  # the refusal names the windowed ring's size
        return windowed
    return windowed if windowed is not None and windowed[0] < whole[0] else (*whole, None)


def ring_layout(p: WalkParams, t: float, sites: tuple | None = None) -> tuple[int, int]:
    """(L, origin) of the ring that evolve(p, t, sites=sites) evolves: its size, and the index of site 0.

    GuardError above MAX_LATTICE.  t: finite, >= 0; sites: None, or a tuple or list of ints n1 <= n2.
    """
    t = real("t", t, 0)
    return _layout(p, t, pair("sites", sites, -sys.float_info.max, sys.float_info.max))[:2]


def _rows(L: int) -> int:
    """Rows R of the four-step transform of an L-site ring, 1 for a single transform.

    The largest even divisor R >= ROW_BATCH of L that leaves rows of at
    least BLOCK sites, so that every temporary of the transform is about one
    block and the row pass is whole batches; 1 when there is none.
    """
    return max((r for r in range(ROW_BATCH, L // BLOCK + 1, 2) if L % r == 0), default=1)


def _momentum_step(L: int) -> tuple[float, float]:
    """(head, tail): 2 pi / L as a 29-bit head plus the rounded rest, from _TWO_PI_FIXED.

    j head is exact for j < 2^24, so j head + j tail is 2 pi j / L rounded
    once, but for the rounding of j tail, whose error is ~2^-29 of an ulp.
    """
    step = _TWO_PI_FIXED // L
    shift = step.bit_length() - 29
    top = step >> shift
    return math.ldexp(top, shift - _PHASE_BITS), math.ldexp(float(step - (top << shift)), -_PHASE_BITS)


def _phase_factors(p: WalkParams, t: float, L: int, R: int = 1) -> np.ndarray:
    """exp(-i w(q_k) t) at q_k = 2 pi k / L, as R rows: row k1 holds k = k1 + R k2.

    With w(q) t = 2 t cos q + 2 g t cos(2q + phi), A = e^{-2it cos q} and
    B+- = e^{-2igt cos(2q +- phi)}, one master momentum q = 2 pi j / L gives
    four frequencies: A B+ at k = j, A B- at L - j (-q), conj(A) B+ at L/2 + j
    (q + pi) and conj(A) B- at L/2 - j (pi - q); 3 cos and 3 complex exp
    per four sites.  k = j and L/2 + j are written for every master j in
    [0, L/4], L - j and L/2 - j for 0 < j < L/4, so every frequency is
    written once for L = 0 and 2 (mod 4).  Master momenta are correctly
    rounded (_momentum_step): each image carries its master's rounding,
    and a rounded 2 pi (j (1/L)) would shift the images at +-pi by a
    constant offset.  The masters run BLOCK at a time (BLOCK // 4 measured
    10% slower at t = 1e6); each image of a span is computed in master
    order and written into the rows as a run of consecutive frequencies,
    reversed for -q and pi - q.
    """
    M = L // R
    phase = np.empty((R, M), dtype=complex)
    head, tail = _momentum_step(L)
    scale_a, scale_b = -2.0 * t, -2.0 * p.g * t
    half = L // 2

    def put(first: int, values: np.ndarray) -> None:
        """Write values at the frequencies first, first + 1, ... (below L)."""
        col, row = divmod(first, R)
        lead = min(-row % R, values.size)  # the rest of first's column
        if lead:
            phase[row:row + lead, col] = values[:lead]
            col += 1
        cols = (values.size - lead) // R
        phase[:, col:col + cols] = values[lead:lead + cols * R].reshape(cols, R).T
        rest = values[lead + cols * R:]
        if rest.size:
            phase[:rest.size, col + cols] = rest

    def fill(spans):
        q, two_q, c = np.empty(BLOCK), np.empty(BLOCK), np.empty(BLOCK)
        a, b_plus, b_minus, a_bar, out = (np.empty(BLOCK, dtype=complex) for _ in range(5))
        for start, stop in spans:
            n = stop - start
            j = np.arange(start, stop, dtype=float)
            np.multiply(j, head, out=q[:n])
            q[:n] += np.multiply(j, tail, out=c[:n])
            np.multiply(q[:n], 2.0, out=two_q[:n])
            for buf, shift, scale in ((a, None, scale_a), (b_plus, p.phi, scale_b), (b_minus, -p.phi, scale_b)):
                arg = q[:n] if shift is None else np.add(two_q[:n], shift, out=c[:n])
                blk = buf[:n]
                blk.real = 0.0
                np.multiply(np.cos(arg, out=c[:n]), scale, out=blk.imag)
                np.exp(blk, out=blk)
            np.conjugate(a[:n], out=a_bar[:n])
            put(start, np.multiply(a[:n], b_plus[:n], out=out[:n]))
            put(half + start, np.multiply(a_bar[:n], b_plus[:n], out=out[:n]))
            lo, hi = max(start, 1), min(stop, (L - 1) // 4 + 1)  # the masters 0 < j < L/4
            if lo < hi:
                for base, factor in ((L, a), (half, a_bar)):
                    blk = np.multiply(factor[lo - start:hi - start], b_minus[lo - start:hi - start], out=out[:hi - lo])
                    put(base - hi + 1, blk[::-1])

    map_runs(fill, _blocks(L // 4 + 1), _ring_runs(L))
    return phase


def _ring_transform(phase: np.ndarray, origin: int) -> np.ndarray:
    """np.roll(ifft(x), origin) of the ring whose R-row layout is phase, overwriting phase.

    With R > 1 origin must be a multiple of M.  Each row is transformed in
    place (length M).  Then the columns, BLOCK // R of them (BLOCK sites) at
    a time, are multiplied by the twiddles e^{2 pi i j1 (n2 - origin)/L},
    transformed along axis 0 (length R) and written back.  The twiddles are
    one exp table for the first chunk, of exact angles (j1 d < L), times one
    exp per row for each chunk's offset (angle j1 (start - origin) mod L),
    so their error does not grow with R.
    """
    R, M = phase.shape
    L = R * M
    if R == 1:
        return np.roll(np.fft.ifft(phase[0]), origin)
    if origin % M:
        raise ValueError(f"origin {origin} is not a multiple of the row length {M}")

    def rows(spans):
        for start, stop in spans:
            phase[start:stop] = np.fft.ifft(phase[start:stop], axis=1)

    map_runs(rows, _blocks(R, ROW_BATCH), _ring_runs(L))
    width = max(BLOCK // R, 1)
    j1 = np.arange(R)[:, None]
    base = np.exp((2j * np.pi / L) * (j1 * np.arange(width)))  # width <= BLOCK <= M

    def columns(spans):
        for start, stop in spans:
            chunk = base[:, :stop - start] * np.exp((2j * np.pi / L) * (j1 * (start - origin) % L))
            chunk *= phase[:, start:stop]
            phase[:, start:stop] = np.fft.ifft(chunk, axis=0)

    map_runs(columns, _blocks(M, width), _ring_runs(L))
    return phase.reshape(L)


def _carrier(p: WalkParams, q: float, n: int, t: float) -> complex:
    """e^(i (q n - w(q) t)), its phase summed in units of 2^-_PHASE_BITS and reduced mod 2 pi.

    cos is a Taylor sum at the floats' exact values: a float w(q) t is off
    by ~1e-11 rad at t = 1e5, and two runs would interfere with that error.
    """
    one = 1 << _PHASE_BITS

    def fixed(x: float) -> int:
        a, d = x.as_integer_ratio()
        return (a << _PHASE_BITS) // d

    def cos(x: int) -> int:
        x = (x + _TWO_PI_FIXED // 2) % _TWO_PI_FIXED - _TWO_PI_FIXED // 2  # |x| <= pi
        term = total = one
        k, x = 0, x * x // one
        while term:
            k += 2
            term = -term * x // (one * (k - 1) * k)
            total += term
        return total

    (a, d), (b, e) = p.g.as_integer_ratio(), t.as_integer_ratio()
    w = 2 * cos(fixed(q)) + 2 * a * cos(2 * fixed(q) + fixed(p.phi)) // d
    phase = (fixed(q) * n - w * b // e) % _TWO_PI_FIXED / one
    return complex(math.cos(phase), math.sin(phase))


def _window_fill(p: WalkParams, t: float, L: int, first: int, band: tuple) -> np.ndarray:
    """W(q_k) e^{i (q_k first - w(q_k) t)} at q_k = 2 pi k / L, in _ring_transform's layout (origin 0).

    W is the step e^(-1/(1-x)) / (e^(-1/x) + e^(-1/(1-x))).  With q_c a run's
    momentum nearest the window's middle velocity and u = q_k - q_c, the
    phase is _carrier's (q_c first - w_c t) - theta(u), theta(u) = (w(q_c + u)
    - w_c - w'(q_c) u) t + u (w'(q_c) t - first) by sum-to-product identities
    of w(q) = 2 cos q + 2 g cos(2q + phi), with w'(q_c) t - first and u's
    offset 2 pi k_c / L - q_c exact ratios rounded once.
    """
    nu1, nu2, runs = band
    R = _rows(L)
    phase = np.zeros((R, L // R), dtype=complex)
    step = TWO_PI / L
    for qa, qb, w1, w2 in runs:
        lo_k, hi_k = math.ceil(qa / step), math.ceil(qb / step)
        k = np.arange(lo_k, hi_k if hi_k > lo_k else hi_k + L)  # the last branch wraps past q = pi
        v = omega_deriv(k * step, 1, p)
        x = (np.maximum(np.maximum(nu1 - v, v - nu2), 0.0) - w1) / (w2 - w1)
        if not np.any(x < 1.0):  # a run narrower than the ring's momentum step
            continue
        centre = int(k[np.argmin(np.abs(v - 0.5 * (nu1 + nu2)))])
        k, x = k[x < 1.0], x[x < 1.0]
        weight = (x <= 0.0).astype(float)
        a, b = np.exp(-1.0 / x[x > 0.0]), np.exp(-1.0 / (1.0 - x[x > 0.0]))
        weight[x > 0.0] = b / (a + b)
        q_c = centre * step
        (a, d), (c_t, d_t) = q_c.as_integer_ratio(), t.as_integer_ratio()
        u = (k - centre) * step + (centre * _TWO_PI_FIXED * d - (a << _PHASE_BITS) * L) / (L * d << _PHASE_BITS)
        c = 2.0 * q_c + p.phi
        sin_q, cos_q, sin_c, cos_c = math.sin(q_c), math.cos(q_c), math.sin(c), math.cos(c)
        b, db = (-2.0 * sin_q - 4.0 * p.g * sin_c).as_integer_ratio()
        theta = (
            2.0 * sin_q * (u - np.sin(u)) - 4.0 * cos_q * np.sin(0.5 * u) ** 2
            + 2.0 * p.g * (sin_c * (2.0 * u - np.sin(2.0 * u)) - 2.0 * cos_c * np.sin(u) ** 2)
        ) * t + u * ((b * c_t - first * db * d_t) / (db * d_t))
        k %= L
        phase[k % R, k // R] = (_carrier(p, q_c, first, t) * weight) * np.exp(-1j * theta)
    return phase


def evolve(p: WalkParams, t: float, lattice: int | None = None, *, sites: tuple | None = None) -> WaveFunction:
    """Evolve the site-0 delta state to time t on a periodic ring.

    amps[origin + n] = (1/L) sum_j W_j exp(i q_j n) exp(-i w(q_j) t),
    q_j = 2 pi j / L, on ring_layout(p, t, sites): with every W_j = 1, the
    exact propagator of the ring Hamiltonian applied to the localized state.
    On a windowed ring (W of _window_ring) s dPhi and s dJ of the published
    edge rows and a bulk window agree with the whole ring within 1e-11 at
    t = 1e4 and 1e5.  Boundary amplitudes at or above TAIL_GUARD, or NaN,
    raise GuardError; a given lattice is a centred ring study with no guard
    or window.  Rings above MAX_LATTICE sites raise GuardError before any
    allocation.  t: finite, >= 0, and on a given lattice <= float_max /
    (4 + 4g), so |w| t is a float; lattice: an even integer >= 4, or None;
    sites: as in ring_layout, and None on a given lattice (ValueError
    naming both otherwise).
    """
    t = real("t", t, 0, math.inf if lattice is None else sys.float_info.max / (4.0 + 4.0 * p.g))
    sites = pair("sites", sites, -sys.float_info.max, sys.float_info.max)
    if lattice is not None and sites is not None:
        raise ValueError(f"sites must be None on a given lattice, got lattice={lattice!r}, sites={sites!r}")
    if lattice is None:
        L, origin, band = _layout(p, t, sites)
    else:
        L, band = whole("lattice", lattice, 4), None
        if L % 2:
            raise ValueError(f"lattice must be even, got lattice={lattice!r}")
        _check_cap(L)
        origin = L // 2
    phase = _phase_factors(p, t, L, _rows(L)) if band is None else _window_fill(p, t, L, -origin, band)
    amps = _ring_transform(phase, origin if band is None else 0)
    if lattice is None:
        edge = max(np.max(np.abs(amps[:GUARD_SITES])), np.max(np.abs(amps[-GUARD_SITES:])))
        if not edge < TAIL_GUARD:
            raise GuardError(
                f"wraparound guard violated: boundary amplitude {edge:.2e} >= {TAIL_GUARD}"
            )
    return WaveFunction(p, t, L, amps, origin)


def probability_density(wf: WaveFunction) -> ObservableField:
    """p(n, t) = |psi(n, t)|^2, block by block."""
    psi = wf.amps
    prob = np.empty(wf.L)

    def square(spans):
        for start, stop in spans:
            out = prob[start:stop]
            np.abs(psi[start:stop], out=out)
            np.square(out, out=out)

    map_runs(square, _blocks(wf.L), _ring_runs(wf.L))
    return ObservableField(FieldKind.PROBABILITY, prob, wf.t, wf.params, wf.L, origin=wf.origin)


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

    def bonds(spans):
        for start, stop in spans:
            # psi(n - 2) .. psi(n) for n in [start, stop), wrapping at site 0
            ext = psi[start - 2:stop] if start >= 2 else np.concatenate((psi[start - 2:], psi[:stop]))
            b1 = np.conj(ext[1:-1]) * ext[2:]
            b2 = np.conj(ext[:-2]) * ext[2:]
            out = j[start:stop]
            np.subtract(-2.0 * b1.imag, 4.0 * g * (rot * b2).imag, out=out)
            if not np.isfinite(out).all():
                raise GuardError("current density is not finite: the wave function has non-finite amplitudes")

    map_runs(bonds, _blocks(wf.L), _ring_runs(wf.L))
    return ObservableField(FieldKind.CURRENT, j, wf.t, wf.params, wf.L, origin=wf.origin)


def cumulative(field: ObservableField) -> ObservableField:
    """Prefix sum from the left lattice edge (cumulative distribution)."""
    if field.kind is FieldKind.PROBABILITY:
        kind = FieldKind.CUMULATIVE_PROBABILITY
    elif field.kind is FieldKind.CURRENT:
        kind = FieldKind.CUMULATIVE_CURRENT
    else:
        raise ValueError(f"cumulative not defined for {field.kind}")
    return ObservableField(
        kind, np.cumsum(field.values), field.t, field.params, field.L, origin=field.origin
    )


def _int_power(n: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """n^k for integer-valued floats n, correctly rounded for k <= 4.

    n^1 is n itself, not a copy.  n^2 is exact for |n| <= 2^26 (|n| <= 2^24
    under MAX_LATTICE), so n^3 = n^2 n and n^4 = n^2 n^2 are each one
    rounded product, hence correctly rounded; np.power is only within an
    ulp, and slower.  For 2 <= k <= 4 the result is written to out when one
    is given.
    """
    if k == 1:
        return n
    if not 2 <= k <= 4:
        return n**k
    n2 = np.multiply(n, n, out=out)
    return n2 if k == 2 else np.multiply(n2, n if k == 3 else n2, out=n2)


def _moment_blocks(field: ObservableField, k: int, name: str):
    """Callable blocks(spans, out=None) yielding n^k p(n) on each span's sites.

    Each span's sites are one arange plus the span's first site, exact in
    float64; k = 1 multiplies p by the sites themselves.  A block is written
    into out[start:stop] when a ring-sized out is given, else into one
    scratch buffer per call, so each block must be used before the next one
    is drawn, and concurrent calls share nothing.  For k = 0 the blocks are
    the field's own read-only values (1.0 p is p bit for bit), so no block
    may be written, and out is left alone.
    """
    if field.kind is not FieldKind.PROBABILITY:
        raise ValueError(f"{name} expects a probability field")
    k = whole("k", k, 0, _MAX_MOMENT)

    def blocks(spans, out=None):
        if k == 0:
            yield from (field.values[start:stop] for start, stop in spans)
            return
        width = max((stop - start for start, stop in spans), default=0)
        steps, n = np.arange(width, dtype=float), np.empty(width)
        scratch = np.empty(width) if out is None else None
        for start, stop in spans:
            w = stop - start
            np.add(steps[:w], start - field.origin, out=n[:w])
            terms = scratch[:w] if out is None else out[start:stop]
            yield np.multiply(_int_power(n[:w], k, terms), field.values[start:stop], out=terms)

    return blocks


def cumulative_moment(field: ObservableField, k: int) -> ObservableField:
    """Prefix sums of n^k p(n), the k-th cumulative position moment; k: an integer in [0, 42].

    The terms are written into the output ring, SUM_BLOCK sites at a time
    (on WORKERS threads on a large ring), and then summed by one in-place
    np.cumsum, which is the sequential sum over the ring whatever the split.
    """
    blocks = _moment_blocks(field, k, "cumulative_moment")
    values = np.empty(field.L)

    def build(spans):
        for _ in blocks(spans, values):
            pass

    if k:
        map_runs(build, _blocks(field.L, SUM_BLOCK), _ring_runs(field.L))
    np.cumsum(values if k else field.values, out=values)
    return ObservableField(
        FieldKind.CUMULATIVE_MOMENT, values, field.t, field.params, field.L,
        moment_order=k, origin=field.origin,
    )


def _fsum_blocks(blocks, spans, sites: int) -> float:
    """math.fsum of the float64 terms that blocks(spans) yields, one block per span.

    Each block of w terms is split without error (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput. 31,
    2008: ExtractVector).  With 2^M >= w + 2, every |x| < 2^e and
    sigma = 2^(e+M), the parts q = (sigma + x) - sigma and the residuals
    r = x - q are exact, q is a multiple of 2^(e+M-53), so sum(q) is exact in
    any order, and |r| <= 2^(e+M-53).  Every term, and so every residual, is
    a multiple of 2^(f-53), f the frexp exponent of the smallest nonzero |x|
    (at least -1021, the subnormals' step).  The split is repeated on the
    residuals with e <- e+M-53 while e+M > f; after that the residuals are
    below 2^(53-M) such steps each, and one plain sum of them is exact.
    math.fsum of these few exact parts is the correctly rounded total,
    which is fsum's result on the terms bit for bit.

    The spans go to map_runs as for a ring of the given number of sites:
    each run of spans builds its own list of exact parts and its own
    overflow bound (w 2^e summed over its blocks), with its own scratch
    arrays, and the caller joins the lists in span order, so fsum adds the
    parts of the serial sweep whatever the worker count.  A non-finite term,
    or a total bound that reaches 2^1022 (below it neither the parts nor
    any of fsum's partial sums can overflow), hands every term to math.fsum
    in the caller's thread, which raises ValueError or OverflowError where
    it does; an exact zero takes fsum's sign.  Both call blocks() again, so
    no ring-sized array of terms is ever built.
    """

    def extract(run):
        parts, bound = [], 0.0  # bound in units of 2^1022
        width = max((stop - start for start, stop in run), default=0)
        q_buf, r_buf = np.empty(width), np.empty(width)
        for x in blocks(run):
            w = x.size
            hi, lo = float(x.max()), float(x.min())
            top = max(hi, -lo)  # NaN when any term is NaN
            if top == 0.0:
                continue
            e, M = math.frexp(top)[1], (w + 1).bit_length()
            bound += math.ldexp(w, e - 1022)
            if not (math.isfinite(top) and bound < 1.0):
                return None, bound
            if lo > 0.0 or hi < 0.0:  # one sign and no zero: the smallest |x| is an end
                low = lo if lo > 0.0 else -hi
            else:
                r = np.abs(x, out=r_buf[:w])
                low = r.min(where=r > 0.0, initial=math.inf)
            f = max(math.frexp(low)[1], -1021)
            r, q = x, q_buf[:w]
            while e + M > f:
                sigma = math.ldexp(1.0, e + M)
                np.subtract(np.add(r, sigma, out=q), sigma, out=q)
                parts.append(float(q.sum()))
                r = np.subtract(r, q, out=r_buf[:w])
                e += M - 53
            parts.append(float(r.sum()))
        return parts, bound

    runs = map_runs(extract, spans, _ring_runs(sites))
    if any(parts is None for parts, _ in runs) or not sum(bound for _, bound in runs) < 1.0:
        return math.fsum(itertools.chain.from_iterable(b.tolist() for b in blocks(spans)))
    total = math.fsum(itertools.chain.from_iterable(parts for parts, _ in runs))
    if total == 0:
        # fsum's zero keeps the sign of all-(-0.0) input on Python >= 3.12
        signs = [np.signbit(x).all() for x in blocks(spans)]
        return math.fsum([-0.0]) if signs and all(signs) else 0.0
    return total


def position_moment(field: ObservableField, k: int) -> float:
    """mu_k = sum_n n^k p(n), exactly rounded; k: an integer in [0, 42].

    n^4 p(n) spans many orders of magnitude at large t, so the terms are
    reduced to the exactly rounded sum, equal to math.fsum of the same
    terms, by _fsum_blocks: an error-free split of each SUM_BLOCK-site block
    into a few exact parts (no per-site Python loop, no ring-sized array of
    terms), on WORKERS threads on a large ring.  The sum is memoised on the
    field, whose values are read-only.
    """
    blocks = _moment_blocks(field, k, "position_moment")  # checks field and k on every call
    if k not in field._moments:
        field._moments[k] = _fsum_blocks(blocks, _blocks(field.L, SUM_BLOCK), field.L)
    return field._moments[k]


def skewness(field: ObservableField) -> float:
    """gamma = mu_3 / mu_2^(3/2); rejects the degenerate t=0 distribution.

    Raises ValueError whenever mu_2^(3/2) is not a positive float, which
    also covers a t so small that the power underflows to zero.
    """
    scale = max(position_moment(field, 2), 0.0) ** 1.5
    if not scale > 0:
        raise ValueError("skewness undefined: mu_2^(3/2) is not a positive float")
    return position_moment(field, 3) / scale
