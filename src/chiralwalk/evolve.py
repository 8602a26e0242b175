"""Exact time evolution of the initially localized walker and its observables.

Evolution is diagonal in momentum space, so one inverse discrete Fourier
transform of the phase factors exp(-i w(q) t) gives the wave function at any
time with no time-stepping error.  The ring is periodic and holds the
causal cone plus an Airy-tail margin; a tail guard verifies that wraparound
contamination stays below 1e-10.  It is chiral: each side is sized for its
own outermost front, so a cone asymmetric about the origin gets an
asymmetric ring, with site 0 at index origin.  A given lattice is a
centred (origin L/2), unguarded ring study.

Rings of ROW_BATCH or more rows of at least BLOCK sites are transformed in
four steps (Bailey's FFT in hierarchical memory), because numpy's single
transform of a ring far larger than cache is limited by memory traffic.
The ring is viewed as R x M (L = R M, R even, R >= ROW_BATCH, M >= BLOCK):
frequency j = j1 + R j2 sits in row j1, column j2, and index n = n2 + M n1
in row n1, column n2.  The phase factors are filled into that layout BLOCK
sites of columns at a time (a chunk of columns holds consecutive
frequencies), the rows are transformed (length M), ROW_BATCH rows per ifft
call (numpy vectorises a batch across rows, with one row's bits), the
columns are multiplied by the twiddles e^{2 pi i j1 (n2 - origin)/L}, and
each column is transformed (length R) in place, again a chunk of columns at
a time, so the result is the ring in natural order and the amplitudes are a
reshape of the one buffer.  Rotating site 0 to index origin is the factor
e^{-2 pi i j origin/L} on the input; origin is a multiple of M, so that
factor depends on j1 alone and is folded into the twiddles as the exact
integer angle j1 (n2 - origin) mod L.  Smaller rings take one
np.roll(ifft(...), origin), which is fftshift(ifft(...)) at origin = L/2.
The amplitudes differ from that single transform at roundoff level.

The ring kernels (the phase factors, the probability and the current) walk
the ring in blocks of BLOCK sites, so their temporaries stay in cache and
only the output is ring-sized; the exact position moments and the terms of
the cumulative moments take blocks of SUM_BLOCK sites.  Each block applies
the same elementwise operations, in the same order, as the whole-ring
expression, and the cumulative moments are one in-place prefix sum over
the ring of their terms, so every output is bit-identical to the
whole-ring computation, applied to the same amplitudes, for any block
size.  Observable fields are read-only, and each exact position moment is
summed once per field and then reused.

On rings of at least THREAD_SITES sites the kernels are split across
WORKERS threads, one per CPU in the process's affinity mask: the phase
fill, the row and column passes of the transform, the probability, the
current, the terms of the cumulative moments and the exact sums.  Each
thread takes a contiguous run of the same block spans and writes only
their slices, or, for an exact sum, returns its own list of exact parts,
which the caller joins in span order; so every output is bit-identical for
any worker count.  Smaller rings, and a process confined to one CPU, run
every kernel in the caller's thread.  The prefix sums of the cumulative
moments and the fallbacks of the exact sums always run in the caller's
thread.
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

from .dispersion import WalkParams, omega
from .fronts import cone_topology, edge_scale

TAIL_GUARD = 1e-10
GUARD_SITES = 10
# edge scales between an order-1 front and the ring edge: Ai(12) ~ 1e-13
TAIL_XI = 12.0
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
# rings of at least this many sites run their kernels on WORKERS threads.
# Two workers against one, medians of 21 alternating runs on a 2-core Xeon:
#   sites     fill  transform  probability+current  exact sums  cumulative moments
#   552 960   -46%     -35%           -21%              -5%            +4%
#   262 144   -42%     -27%            -8%              -3%           +11%
#   163 840   -43%      -6%            -8%             +12%           +24%
#    46 080    -8%     +10%           +52%             +49%           +51%
THREAD_SITES = 1 << 18
# threads for the ring kernels: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# rows per ifft call in the four-step's row pass, and its fewest rows: one
# ifft of a ring with fewer rows of BLOCK sites measured as fast or faster
ROW_BATCH = 8


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
    """Complex amplitudes on sites n in [-origin, L - origin) at time t; origin indexes site 0."""

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


def _blocks(size: int, block: int | None = None):
    """(start, stop) of the consecutive block-site slices (BLOCK by default) that tile range(size)."""
    block = BLOCK if block is None else block
    return ((start, min(start + block, size)) for start in range(0, size, block))


def _map_spans(kernel, spans, sites: int) -> list:
    """[kernel(run) for each run], over contiguous runs of spans, one run per worker thread.

    A ring of fewer than THREAD_SITES sites, or a single worker, calls
    kernel(spans) in the caller's thread, as the one run.  Otherwise the
    spans are cut into min(WORKERS, len(spans)) contiguous runs: the caller
    takes the first run and one new thread each of the others.  kernel must
    write only the slices its spans name, so the output does not depend on
    the split; its return values come back in run order.  An exception from
    any run is raised in the caller once every thread has finished, the
    earliest run's first.
    """
    spans = list(spans)
    workers = min(WORKERS, len(spans)) if sites >= THREAD_SITES else 1
    if workers <= 1:
        return [kernel(spans)]
    runs = [spans[len(spans) * i // workers:len(spans) * (i + 1) // workers] for i in range(workers)]
    results, errors = [None] * workers, [None] * workers

    def work(i):
        try:
            results[i] = kernel(runs[i])
        except Exception as exc:  # raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        results[0] = kernel(runs[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


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


def ring_layout(p: WalkParams, t: float, reach: int = 0) -> tuple[int, int]:
    """(L, origin) of the automatic ring: its size, and the index of site 0.

    Each side of the causal cone is sized for its outermost front: |v| t
    sites, plus _tail_margin(k) of its edge scales (|kappa_k| t)^(1/(k+2))
    for the Airy tail, plus a fixed 40 sites, and at least reach +
    GUARD_SITES sites past the front (room for measure_edge's window).  L is
    the smallest even 5-smooth length that holds both sides with site 0 at
    an index the transform can rotate to: a multiple of the row length
    M = L/R, or any index when R = 1.  origin is that index nearest the
    middle of the spare sites.  Raises GuardError above MAX_LATTICE, before
    the sides are rounded (they may be infinite); MAX_LATTICE is itself
    5-smooth, so the size search stops there.  A t that is not >= 0 (NaN
    included) raises ValueError.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got t={t}")
    d = cone_topology(p)

    def side(v: float) -> float:
        return max(
            abs(v) * t + max(_tail_margin(fr.order) * edge_scale(fr, t) + 40.0, reach + GUARD_SITES)
            for fr in d.fronts
            if fr.velocity == v
        )

    left, right = side(d.v_lm), side(d.v_rm)
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


def _rows(L: int) -> int:
    """Rows R of the four-step transform of an L-site ring, 1 for a single transform.

    The largest even divisor R >= ROW_BATCH of L that leaves rows of at
    least BLOCK sites, so that every temporary of the transform is about one
    block and the row pass is whole batches; 1 when there is none.
    """
    return max((r for r in range(ROW_BATCH, L // BLOCK + 1, 2) if L % r == 0), default=1)


def _phase_factors(p: WalkParams, t: float, L: int, R: int = 1) -> np.ndarray:
    """exp(-i w(q_j) t) at q = 2 pi fftfreq(L), as R rows: row j1 holds j = j1 + R j2.

    Columns [c0, c1) hold the consecutive frequencies [c0 R, c1 R), so the
    factors are computed in frequency order, BLOCK // R columns at a time,
    and then scattered into the rows: libm's complex exp took ~40% longer
    on a row's stride-R frequencies.  Every element is the same operations
    on the same numbers as np.exp(-1j * omega(q, p) * t).
    """
    M = L // R
    phase = np.empty((R, M), dtype=complex)
    width = max(BLOCK // R, 1)
    negative = (L - 1) // 2 + 1  # first index of fftfreq's negative half

    def fill(spans):
        buf = np.empty(width * R, dtype=complex)
        for start, stop in spans:
            # fftfreq's integers times 1/L, exactly as fftfreq builds them
            k = np.arange(start * R, stop * R)
            k[max(negative - start * R, 0):] -= L
            q = 2.0 * np.pi * (k * (1.0 / L))
            blk = buf[:k.size]
            blk.real = 0.0
            np.multiply(omega(q, p), -t, out=blk.imag)
            np.exp(blk, out=blk)
            phase[:, start:stop] = blk.reshape(stop - start, R).T

    _map_spans(fill, _blocks(M, width), L)
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

    _map_spans(rows, _blocks(R, ROW_BATCH), L)
    width = max(BLOCK // R, 1)
    j1 = np.arange(R)[:, None]
    base = np.exp((2j * np.pi / L) * (j1 * np.arange(width)))  # width <= BLOCK <= M

    def columns(spans):
        for start, stop in spans:
            chunk = base[:, :stop - start] * np.exp((2j * np.pi / L) * (j1 * (start - origin) % L))
            chunk *= phase[:, start:stop]
            phase[:, start:stop] = np.fft.ifft(chunk, axis=0)

    _map_spans(columns, _blocks(M, width), L)
    return phase.reshape(L)


def evolve(p: WalkParams, t: float, lattice: int | None = None, *, reach: int = 0) -> WaveFunction:
    """Evolve the site-0 delta state to time t on a periodic ring.

    amps[origin + n] = (1/L) sum_j exp(i q_j n) exp(-i w(q_j) t),
    q_j = 2 pi j / L, which is the exact propagator of the ring Hamiltonian
    applied to the localized initial state, computed by the transform
    described in the module docstring.  Without a lattice the ring is
    ring_layout(p, t, reach), and its boundary amplitudes must stay below
    TAIL_GUARD (a NaN amplitude fails too) or GuardError is raised.  A given
    lattice, an even integer >= 4, is a centred ring study with no guard:
    wraparound is part of that model, as in cross-checks against dense
    matrix exponentials.  Rings above MAX_LATTICE sites are refused with
    GuardError before anything is allocated, and a t that is not >= 0 (NaN
    included) with ValueError.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got t={t}")
    if lattice is None:
        L, origin = ring_layout(p, t, reach)
    else:
        if isinstance(lattice, bool) or not isinstance(lattice, (int, np.integer)) or lattice < 4 or lattice % 2:
            raise ValueError(f"lattice size must be an even integer >= 4, got lattice={lattice!r}")
        L = int(lattice)
        _check_cap(L)
        origin = L // 2
    amps = _ring_transform(_phase_factors(p, t, L, _rows(L)), origin)
    if lattice is None:
        edge = max(np.max(np.abs(amps[:GUARD_SITES])), np.max(np.abs(amps[-GUARD_SITES:])))
        if not edge < TAIL_GUARD:
            raise GuardError(
                f"wraparound guard violated: boundary amplitude {edge:.2e} >= {TAIL_GUARD}"
            )
    return WaveFunction(p, float(t), L, amps, origin)


def probability_density(wf: WaveFunction) -> ObservableField:
    """p(n, t) = |psi(n, t)|^2, block by block."""
    psi = wf.amps
    prob = np.empty(wf.L)

    def square(spans):
        for start, stop in spans:
            out = prob[start:stop]
            np.abs(psi[start:stop], out=out)
            np.square(out, out=out)

    _map_spans(square, _blocks(wf.L), wf.L)
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

    _map_spans(bonds, _blocks(wf.L), wf.L)
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
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"moment order must be >= 0 and an integer, got k={k}")

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
    """Prefix sums of n^k p(n), the k-th cumulative position moment.

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
        _map_spans(build, _blocks(field.L, SUM_BLOCK), field.L)
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

    The spans go to _map_spans as for a ring of the given number of sites:
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
    spans = list(spans)

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

    runs = _map_spans(extract, spans, sites)
    if any(parts is None for parts, _ in runs) or not sum(bound for _, bound in runs) < 1.0:
        return math.fsum(itertools.chain.from_iterable(b.tolist() for b in blocks(spans)))
    total = math.fsum(itertools.chain.from_iterable(parts for parts, _ in runs))
    if total == 0:
        # fsum's zero keeps the sign of all-(-0.0) input on Python >= 3.12
        signs = [np.signbit(x).all() for x in blocks(spans)]
        return math.fsum([-0.0]) if signs and all(signs) else 0.0
    return total


def position_moment(field: ObservableField, k: int) -> float:
    """mu_k = sum_n n^k p(n), exactly rounded.

    n^4 p(n) spans many orders of magnitude at large t, so the terms are
    reduced to the exactly rounded sum, equal to math.fsum of the same
    terms, by _fsum_blocks: an error-free split of each SUM_BLOCK-site block
    into a few exact parts (no per-site Python loop, no ring-sized array of
    terms), on WORKERS threads on a large ring.  The sum is memoised on the
    field, whose values are read-only.
    """
    if k not in field._moments:
        blocks = _moment_blocks(field, k, "position_moment")
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
