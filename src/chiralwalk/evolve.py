"""Exact time evolution of the initially localized walker and its observables.

Evolution is diagonal in momentum space, so one inverse discrete Fourier
transform of the phase factors exp(-i w(q) t) gives the wave function at any
time with no time-stepping error.  The lattice is a periodic ring sized so
that the causal cone plus an Airy-tail margin fits with room to spare; a
tail guard verifies that wraparound contamination stays below 1e-10.

Rings of at least 2 BLOCK sites are transformed in four steps (Bailey's
FFT in hierarchical memory), because numpy's single transform of a ring far
larger than cache is limited by memory traffic.  The ring is viewed as R x M
(L = R M, R even, M >= BLOCK): frequency j = j1 + R j2 sits in row j1,
column j2, and site index n = n2 + M n1 in row n1, column n2.  The phase
factors are filled into that layout BLOCK sites of columns at a time (a
chunk of columns holds consecutive frequencies), the rows are transformed
(length M), ROW_BATCH rows per ifft call when there are that many (numpy
vectorises a batch across rows, with the bits of one row at a time), the
columns are multiplied by the twiddles e^{2 pi i j1 n2/L}, and each column
is transformed (length R) in place, again a chunk of columns at a time,
so the result is the ring in natural order and the
amplitudes are a reshape of the one buffer.  fftshift's half-ring rotation
is the factor (-1)^j = (-1)^{j1} (R even) on the input, an exact sign that
is folded into the twiddles.  Smaller rings take one fftshift(ifft(...)).
The amplitudes differ from fftshift(ifft(...)) at roundoff level.

The ring kernels (the phase factors, the probability, the current, the
cumulative moments and the exact position moments) walk the ring in blocks of BLOCK sites, so
their temporaries stay in cache and only the output is ring-sized.  Each
block applies the same elementwise operations, in the same order, as the
whole-ring expression, and the cumulative moments carry each block's last
prefix sum into the next block's first term, so every output is
bit-identical to the whole-ring computation, applied to the same amplitudes,
for any block size.  Observable fields are read-only, and each exact
position moment is summed once per field, from the terms of the cumulative
moment when that is built first, and then reused.

On rings of at least THREAD_SITES sites the kernels that numpy runs with
the GIL released (the phase fill, the row and column passes of the
transform, the probability and the current) are split across WORKERS
threads, one per CPU in the process's affinity mask.  Each thread takes a
contiguous run of the same block spans and writes only their slices, so
every output is bit-identical for any worker count.  Smaller rings, and a
process confined to one CPU, run every kernel in the caller's thread.  The
exact sums and the prefix sums always run in the caller's thread.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dispersion import WalkParams, omega
from .fronts import cone_topology

TAIL_GUARD = 1e-10
GUARD_SITES = 10
# edge scales between an order-1 front and the ring edge: Ai(12) ~ 1e-13
TAIL_XI = 12.0
# largest ring evolved, 2^25 sites: 0.5 GB for the amplitudes (16 B per
# site) and 0.27 GB per observable field, reached near t = 5e6 at g = 0.3
MAX_LATTICE = 1 << 25
# sites per block of the ring kernels: 2^14 complex values are 256 KB
BLOCK = 1 << 14
# rings of at least this many sites run their kernels on WORKERS threads:
# two threads measured no faster below ~1e6 sites (11% slower at 64 000),
# and 30-40% faster from 1 244 160 sites on
THREAD_SITES = 1 << 20
# threads for the ring kernels: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# rows per ifft call in the row pass of the four-step transform: numpy's FFT
# transforms a batch of rows a SIMD vector at a time, with the same bits; a
# ring with fewer rows transforms them one at a time, as a smaller batch ran
# slower than single rows and holds every row's output at once
ROW_BATCH = 8
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
    _moments: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if not values.flags.owndata:
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.L) - self.L // 2


def _blocks(size: int, block: int | None = None):
    """(start, stop) of the consecutive block-site slices (BLOCK by default) that tile range(size)."""
    block = BLOCK if block is None else block
    return ((start, min(start + block, size)) for start in range(0, size, block))


def _map_spans(kernel, spans, sites: int) -> None:
    """kernel(run) over contiguous runs of spans, one run per worker thread.

    A ring of fewer than THREAD_SITES sites, or a single worker, calls
    kernel(spans) in the caller's thread.  Otherwise the spans are cut into
    min(WORKERS, len(spans)) contiguous runs: the caller takes the first
    run and one new thread each of the others.  kernel must write only the
    slices its spans name, so the output does not depend on the split.  An
    exception from any run is raised in the caller once every thread has
    finished, the earliest run's first.
    """
    spans = list(spans)
    workers = min(WORKERS, len(spans)) if sites >= THREAD_SITES else 1
    if workers <= 1:
        kernel(spans)
        return
    runs = [spans[len(spans) * i // workers:len(spans) * (i + 1) // workers] for i in range(workers)]
    errors = [None] * workers

    def work(i):
        try:
            kernel(runs[i])
        except Exception as exc:  # raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        kernel(runs[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


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


def _rows(L: int) -> int:
    """Rows R of the four-step transform of an L-site ring, 1 for a single transform.

    The largest even divisor of L that leaves rows of at least BLOCK sites,
    so that every temporary of the transform is about one block; L is even,
    so rings of 2 BLOCK sites or more always split.
    """
    return max((r for r in range(2, L // BLOCK + 1, 2) if L % r == 0), default=1)


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


def _ring_transform(phase: np.ndarray) -> np.ndarray:
    """fftshift(ifft(x)) of the ring whose R-row layout is phase, overwriting phase.

    With R > 1 each row is transformed in place (length M).  Then the
    columns, BLOCK // R of them (BLOCK sites) at a time, are multiplied by
    the twiddles e^{2 pi i j1 n2/L} (-1)^{j1}, transformed along axis 0
    (length R) and written back.  The twiddles are one exp table for the
    first chunk, of exact angles (j1 d < L), times one exp per row for each
    chunk's offset (angle j1 start mod L), so their error does not grow
    with R.
    """
    R, M = phase.shape
    L = R * M
    if R == 1:
        return np.fft.fftshift(np.fft.ifft(phase[0]))

    def rows(spans):
        for start, stop in spans:
            phase[start:stop] = np.fft.ifft(phase[start:stop], axis=1)

    _map_spans(rows, _blocks(R, ROW_BATCH if R >= ROW_BATCH else 1), L)
    width = max(BLOCK // R, 1)
    j1 = np.arange(R)[:, None]
    base = np.exp((2j * np.pi / L) * (j1 * np.arange(width)))  # width <= BLOCK <= M
    base[1::2] *= -1.0

    def columns(spans):
        for start, stop in spans:
            chunk = base[:, :stop - start] * np.exp((2j * np.pi / L) * (j1 * start % L))
            chunk *= phase[:, start:stop]
            phase[:, start:stop] = np.fft.ifft(chunk, axis=0)

    _map_spans(columns, _blocks(M, width), L)
    return phase.reshape(L)


def _ring_size(p: WalkParams, t: float, lattice: int | None, enforce_guard: bool = True) -> int:
    """The ring size evolve uses: auto_lattice_size, or lattice once checked."""
    if lattice is None:
        return auto_lattice_size(p, t)
    L = int(lattice)
    if L < 4 or L % 2:
        raise ValueError("lattice size must be an even integer >= 4")
    _check_cap(L)
    if enforce_guard and L / 2 < max_front_speed(p) * t + 12.0:
        raise GuardError(
            f"lattice L={L} too small for the causal cone at t={t}: "
            f"need L/2 >= {max_front_speed(p) * t + 12.0:.1f}"
        )
    return L


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
    localized initial state, computed by the four-step transform described
    in the module docstring.  Rings above MAX_LATTICE sites are refused
    with GuardError before anything is allocated.  With enforce_guard the
    lattice must be large enough that boundary amplitudes are negligible;
    pass enforce_guard=False only for deliberate small-ring studies (e.g.
    cross-checks against dense matrix exponentials, where wraparound is
    part of the model).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    L = _ring_size(p, t, lattice, enforce_guard)
    amps = _ring_transform(_phase_factors(p, t, L, _rows(L)))
    wf = WaveFunction(p, float(t), L, amps)
    if enforce_guard:
        edge = max(np.max(np.abs(amps[:GUARD_SITES])), np.max(np.abs(amps[-GUARD_SITES:])))
        if edge >= TAIL_GUARD:
            raise GuardError(
                f"wraparound guard violated: boundary amplitude {edge:.2e} >= {TAIL_GUARD}"
            )
    return wf


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
    return ObservableField(FieldKind.PROBABILITY, prob, wf.t, wf.params, wf.L)


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
    The exact sum mu_k reads the same blocks of terms, each before its carry
    is added, and is memoised on field, so position_moment(field, k) need
    not build them again.
    """
    values = np.empty(field.L)
    terms_of = _moment_blocks(field, k, "cumulative_moment")

    def prefix_sums():
        start = 0
        for terms in terms_of():
            yield terms
            if start:
                terms[0] += values[start - 1]
            np.cumsum(terms, out=values[start:start + terms.size])
            start += terms.size

    filled = prefix_sums()
    if k not in field._moments:
        # the sum's first pass is filled; a second pass (after a non-finite
        # term, or for the sign of a zero sum) reads fresh terms
        passes = [filled]
        try:
            field._moments[k] = _fsum_blocks(lambda: passes.pop() if passes else terms_of())
        except (ValueError, OverflowError):
            pass  # fsum's error is raised by position_moment when it is asked for
    for _ in filled:  # the prefix sums the sum did not reach
        pass
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
    (np.frexp gives m 2^-53 and e), split as m 2^-27 = hi + lo: hi an
    integer below 2^26 and lo below 1 in steps of 2^-27, both exact.  Each
    part is summed per exponent with np.bincount, block by block: over
    FSUM_FLUSH blocks a bucket holds fewer than BLOCK FSUM_FLUSH <= 2^26
    such parts, so it stays below 2^52 (hi) or 2^26 in steps of 2^-27 (lo),
    and every float64 bucket sum is exact.  The buckets are then combined as one Python int and rounded once by
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
        m *= 2.0**26
        hi = np.trunc(m)
        m -= hi
        e -= _EXP_MIN
        buckets[0] += np.bincount(e, hi, _EXP_BUCKETS)
        buckets[1] += np.bincount(e, m, _EXP_BUCKETS)
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
    """The exact integer sum of the high and low mantissa buckets, in units of 2^(_EXP_MIN-53).

    Only the exponents in use are combined: a moment's terms fill ~100 of
    the 2098 buckets, and the big-integer shifts of empty ones cost ~1 ms.
    """
    used = np.flatnonzero(buckets.any(axis=0))
    his, los = buckets[:, used].tolist()
    return sum(((int(h) << 27) + int(lo * 2.0**27)) << b for b, h, lo in zip(used.tolist(), his, los))


def position_moment(field: ObservableField, k: int) -> float:
    """mu_k = sum_n n^k p(n), exactly rounded.

    n^4 p(n) spans many orders of magnitude at large t, so the terms are
    reduced to the exactly rounded sum, equal to math.fsum of the same
    terms, by a vectorised exponent-bucket reduction that takes them block
    by block (no per-site Python loop, no ring-sized array of terms).  The
    sum is memoised on the field, whose values are read-only.
    """
    if k not in field._moments:
        field._moments[k] = _fsum_blocks(_moment_blocks(field, k, "position_moment"))
    return field._moments[k]


def skewness(field: ObservableField) -> float:
    """gamma = mu_3 / mu_2^(3/2); rejects the degenerate t=0 distribution."""
    mu2 = position_moment(field, 2)
    if mu2 <= 0:
        raise ValueError("skewness undefined: second moment is not positive")
    return position_moment(field, 3) / mu2**1.5
