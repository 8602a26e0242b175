"""Single-band dispersion of the chiral walk and its analytic derivatives.

The model is a one-dimensional tight-binding chain with unit nearest-neighbour
hopping and a complex next-nearest-neighbour hopping of magnitude ``g`` and
phase ``phi`` (energies in units of the NN coupling, lattice spacing 1).  The
band reads

    w(q) = 2 cos q + 2 g cos(2q + phi)

and every derivative is available in closed form, so front velocities and
edge-scaling coefficients downstream never rely on finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
PHI_MAX = math.pi / 2.0


@dataclass(frozen=True)
class WalkParams:
    """Canonical couplings: g >= 0 and phi restricted to [0, pi/2].

    Arbitrary real phases are reduced into this window by `canonicalize`;
    constructing WalkParams directly with out-of-range values is an error.
    """

    g: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and math.isfinite(self.phi)):
            raise ValueError("couplings must be finite")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if not 0.0 <= self.phi <= PHI_MAX:
            raise ValueError(f"phi must lie in [0, pi/2], got {self.phi}")


@dataclass(frozen=True)
class PhaseReduction:
    """Canonical parameters plus the map back to the raw model.

    The raw band is recovered as

        w_raw(q) = omega_sign * w(q_sign * q + q_shift; params)

    so every observable of the raw model follows from the canonical one by
    the recorded wave-vector transformation and overall energy sign.
    """

    params: WalkParams
    q_sign: int
    q_shift: float
    omega_sign: int

    def map_q(self, q):
        """Wave vector in the canonical model probed by raw wave vector q."""
        return self.q_sign * q + self.q_shift


def canonicalize(g: float, phi_raw: float) -> PhaseReduction:
    """Reduce an arbitrary (g, phi) pair to the canonical window.

    Uses the exact band identities
        w(q; g, phi)        = w(q; -g, phi + pi)
        w(q; g, 2pi - phi)  = w(-q; g, phi)
        w(q; g, pi - phi)   = -w(pi - q; g, phi)
    applied in sequence, and records their composition.
    """
    if not (math.isfinite(g) and math.isfinite(phi_raw)):
        raise ValueError("canonicalize requires finite g and phi")
    q_sign, q_shift, omega_sign = 1, 0.0, 1

    def compose(s_m: int, h_m: float, e_m: int):
        nonlocal q_sign, q_shift, omega_sign
        q_sign *= s_m
        q_shift = s_m * q_shift + h_m
        omega_sign *= e_m

    if g < 0:
        g = -g
        phi_raw = phi_raw + math.pi
    phi = math.fmod(phi_raw, TWO_PI)
    if phi < 0:
        phi += TWO_PI
    if phi > math.pi:
        phi = TWO_PI - phi
        compose(-1, 0.0, 1)
    if phi > PHI_MAX:
        phi = math.pi - phi
        compose(-1, math.pi, -1)
    # guard against roundoff leaking just past the window edge
    phi = min(max(phi, 0.0), PHI_MAX)
    return PhaseReduction(WalkParams(g, phi), q_sign, q_shift % TWO_PI, omega_sign)


def omega(q, p: WalkParams):
    """Band energy w(q) = 2 cos q + 2 g cos(2q + phi); 2pi-periodic in q."""
    q = np.asarray(q, dtype=float)
    out = 2.0 * np.cos(q) + 2.0 * p.g * np.cos(2.0 * q + p.phi)
    return out if out.ndim else float(out)


def omega_deriv(q, m: int, p: WalkParams):
    """m-th analytic derivative of the band, m >= 1.

    d^m/dq^m [2 cos q] = 2 cos(q + m pi/2) and the NNN term picks up a
    factor 2^m per derivative, giving

        w^(m)(q) = 2 cos(q + m pi/2) + 2^(m+1) g cos(2q + phi + m pi/2)

    p.g and p.phi may also be arrays that broadcast against q, one coupling
    per wave vector, as in the front scan of a whole sweep.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"derivative order must be an integer >= 1, got {m}")
    q = np.asarray(q, dtype=float)
    shift = m * (math.pi / 2.0)
    out = 2.0 * np.cos(q + shift) + (2.0 ** (m + 1)) * p.g * np.cos(2.0 * q + p.phi + shift)
    return out if out.ndim else float(out)


def group_velocity(q, p: WalkParams):
    """v(q) = w'(q), the ballistic front velocity of wave vector q."""
    return omega_deriv(q, 1, p)
