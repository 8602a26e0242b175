"""Exact time evolution of the initially localized walker and its observables.

Evolution is diagonal in momentum space, so a single inverse FFT of the
phase factors exp(-i w(q) t) gives the wave function at any time with no
time-stepping error.  The lattice is a periodic ring sized so that the
causal cone plus an Airy-tail margin fits with room to spare; a tail guard
verifies that wraparound contamination stays below 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dispersion import WalkParams, omega
from .fronts import cone_topology

TAIL_GUARD = 1e-10
GUARD_SITES = 10
# largest ring evolved, 2^25 sites: ~2 GB for the arrays of one evolution
# (64 B per site), reached near t = 5e6 at g = 0.3
MAX_LATTICE = 1 << 25


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


def auto_lattice_size(p: WalkParams, t: float) -> int:
    """Ring size: causal cone radius + fixed margin + t^(1/3) Airy-tail margin.

    Raises GuardError above MAX_LATTICE, before the search for an
    FFT-friendly size (MAX_LATTICE is itself 5-smooth, so that search never
    passes the cap).
    """
    radius = max_front_speed(p) * t + 40.0 + 10.0 * t ** (1.0 / 3.0)
    return next_fast_even(_check_cap(2 * math.ceil(radius)))


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
    q = 2.0 * np.pi * np.fft.fftfreq(L)
    amps = np.fft.fftshift(np.fft.ifft(np.exp(-1j * omega(q, p) * t)))
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

    evaluated with periodic neighbour indexing.  The expression is real up
    to roundoff; a residual imaginary part above 1e-8 would mean a bug.
    """
    psi = wf.amps
    g, phi = wf.params.g, wf.params.phi
    b1 = np.conj(np.roll(psi, 1)) * psi       # psi*(n-1) psi(n)
    b2 = np.conj(np.roll(psi, 2)) * psi       # psi*(n-2) psi(n)
    j = 1j * (b1 - np.conj(b1)) + 2j * g * (np.exp(1j * phi) * b2 - np.conj(np.exp(1j * phi) * b2))
    resid = float(np.max(np.abs(j.imag)))
    if resid > 1e-8:
        raise AssertionError(f"current has imaginary residue {resid:.2e} > 1e-8")
    return ObservableField(FieldKind.CURRENT, j.real.copy(), wf.t, wf.params, wf.L)


def cumulative(field: ObservableField) -> ObservableField:
    """Prefix sum from the left lattice edge (cumulative distribution)."""
    if field.kind is FieldKind.PROBABILITY:
        kind = FieldKind.CUMULATIVE_PROBABILITY
    elif field.kind is FieldKind.CURRENT:
        kind = FieldKind.CUMULATIVE_CURRENT
    else:
        raise ValueError(f"cumulative not defined for {field.kind}")
    return ObservableField(kind, np.cumsum(field.values), field.t, field.params, field.L)


def cumulative_moment(field: ObservableField, k: int) -> ObservableField:
    """Prefix sums of n^k p(n), the k-th cumulative position moment."""
    if field.kind is not FieldKind.PROBABILITY:
        raise ValueError("cumulative_moment expects a probability field")
    if k < 0:
        raise ValueError("moment order must be >= 0")
    n = field.sites.astype(float)
    return ObservableField(
        FieldKind.CUMULATIVE_MOMENT,
        np.cumsum(n**k * field.values),
        field.t,
        field.params,
        field.L,
        moment_order=k,
    )


def position_moment(field: ObservableField, k: int) -> float:
    """mu_k = sum_n n^k p(n), accumulated with compensated summation.

    n^4 p(n) spans many orders of magnitude at large t, so the terms are
    reduced with math.fsum rather than a naive running sum.
    """
    if field.kind is not FieldKind.PROBABILITY:
        raise ValueError("position_moment expects a probability field")
    if k < 0:
        raise ValueError("moment order must be >= 0")
    n = field.sites.astype(float)
    return math.fsum(n**k * field.values)


def skewness(field: ObservableField) -> float:
    """gamma = mu_3 / mu_2^(3/2); rejects the degenerate t=0 distribution."""
    mu2 = position_moment(field, 2)
    if mu2 <= 0:
        raise ValueError("skewness undefined: second moment is not positive")
    return position_moment(field, 3) / mu2**1.5
