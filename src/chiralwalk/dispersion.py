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
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import as_numbers, real, whole

TWO_PI = 2.0 * math.pi
PHI_MAX = math.pi / 2.0
_Q_MAX = sys.float_info.max / 2.0  # |q| at most, so that 2q is a float


@dataclass(frozen=True)
class WalkParams:
    """Canonical couplings: g >= 0 and phi restricted to [0, pi/2].

    The window holds every band of the model.  A negative g is the same
    band as -g at phi + pi; phi -> 2pi - phi mirrors the band in q; and
    phi -> pi - phi mirrors it about q = pi/2 and flips its sign:

        w(q; g, phi)       = w(q; -g, phi + pi)
        w(q; g, 2pi - phi) = w(-q; g, phi)
        w(q; g, pi - phi)  = -w(pi - q; g, phi)

    The package takes couplings in the window only.  g: finite, >= 0;
    phi: in [0, pi/2].  Both are stored as floats.
    """

    g: float
    phi: float

    def __post_init__(self):
        g, phi = real("g", self.g, 0), real("phi", self.phi, 0, PHI_MAX)
        if g is not self.g or phi is not self.phi:  # not both floats already
            object.__setattr__(self, "g", g)
            object.__setattr__(self, "phi", phi)


def omega(q, p: WalkParams):
    """Band energy w(q) = 2 cos q + 2 g cos(2q + phi); 2pi-periodic in q.

    q: a scalar or an array, |q| <= float_max / 2.
    """
    q = as_numbers("q", q, _Q_MAX)
    out = 2.0 * np.cos(q) + 2.0 * p.g * np.cos(2.0 * q + p.phi)
    return out if out.ndim else float(out)


def omega_deriv(q, m: int, p: WalkParams):
    """m-th analytic derivative of the band, m >= 1.

    d^m/dq^m [2 cos q] = 2 cos(q + m pi/2) and the NNN term picks up a
    factor 2^m per derivative, giving

        w^(m)(q) = 2 cos(q + m pi/2) + 2^(m+1) g cos(2q + phi + m pi/2)

    p.g and p.phi may also be arrays that broadcast against q, one coupling
    per wave vector, as in the front scan of a whole sweep.  q: a scalar or
    an array, |q| <= float_max / 2, so that 2q is a float; m: an integer in
    [1, 1022], so that 2^(m+1) is a float.
    """
    m = whole("m", m, 1, 1022)
    q = as_numbers("q", q, _Q_MAX)
    shift = m * (math.pi / 2.0)
    out = 2.0 * np.cos(q + shift) + (2.0 ** (m + 1)) * p.g * np.cos(2.0 * q + p.phi + shift)
    return out if out.ndim else float(out)
