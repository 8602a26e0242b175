"""Edge scaling at extremal fronts: generalized Airy profiles and staircases.

Near a k-th order front moving at v_e, the cumulative distributions deviate
from bulk scaling on a window of ~ (|kappa_k| t)^(1/(k+2)) sites, with a
universal profile built from the oscillatory integral

    A_k(xi) = (1/2pi) \\int dn exp(-i (xi n + n^(k+2)/(k+2)))

A_1 is the classical Airy function Ai.  For odd k the profile is real and
its zeros quantize the cumulative deviation into a staircase whose step
areas (plateau height times inter-inflection width) are nearly constant.
A front's order is the multiplicity of a root cluster of the quartic
z^2 w'', at most 4, so k = 1 and 3 are the only odd orders, and the only
ones this module accepts.

A_k is evaluated on a fixed contour: the real segment [0, r0(xi)] through
the stationary points, then the ray at angle -pi/(2(k+2)) from r0, on which
the integrand decays like exp(-s^(k+2)/(k+2)).  Both pieces use fixed
Gauss-Legendre nodes, and the ray is cut per xi where the integrand is below
exp(-40).  The segment's nodes and phase are real, so it is built in float64
and only its exp(-i theta) is complex; the ray is complex throughout.  A
table is one array expression per piece over (xi x nodes), taken in blocks
of XI_BLOCK values of xi, small enough that a block's node arrays stay in a
core's L2 cache.  Against an arbitrary-precision series the values agree to
~3e-14 over the validated range |xi| <= XI_LIMIT = 50 for k = 1 and 3.
The j-th derivative multiplies the integrand by (-i z)^j, so the same nodes
and exponentials give A_k', A_k'', ... as further rows of a table.

The running integral of A_k^2 has a closed form: A_k solves
A^(k+1) = c xi A with c = +-1, so

    F(xi) = xi A^2 - (1/c) sum_{j=1..k} (-1)^(j+1) A^(j) A^(k+1-j)

has F' = A^2 (for k = 1 the classical xi Ai^2 - Ai'^2).  The predicted
edge profile F(0) - F(-xi) is evaluated at its samples alone, from one table
of k + 1 rows; no grid in xi is integrated numerically.

Orientation convention used throughout this module: the edge coordinate is

    xi = sign(kappa_k) * (n - v_e t) / (|kappa_k| t)^(1/(k+2))

so xi > 0 always points from the front into the allowed (oscillatory)
region, for left, right and internal fronts alike.  In this coordinate the
envelope is A_k(-xi): it oscillates for xi > 0 and decays for xi < 0, so
the predicted scaled deviation int_0^xi A_k(-u)^2 du is non-decreasing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dispersion import WalkParams
from .evolve import _ring_layout, cumulative, current_density, evolve, probability_density
from .fronts import TOL_DEGEN, ExtremalFront, cone_topology, edge_scale

XI_LIMIT = 50.0
SEGMENT_NODES = 200  # converged from 160 at |xi| = 50
RAY_NODES = 100  # converged from 80 at |xi| = 50
RAY_DECAY = 40.0  # the ray ends where |integrand| <= exp(-40) ~ 4e-18
# xi values per array evaluation: a block's complex node arrays (64 x 200
# segment, 64 x 100 ray, 16 bytes each) and their temporaries stay in a 2 MB
# L2; a sweep of 32, 64 and 128 on the published edge rows picked 64
XI_BLOCK = 64
# extract_staircase keeps riser peaks at least STEP_MIN_SEP apart in xi, and
# separated by a derivative dip below STEP_DIP_FRAC of the smaller peak
STEP_MIN_SEP = 0.8
STEP_DIP_FRAC = 0.5


@functools.cache
def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _contour(k: int, xi: np.ndarray, rows: int) -> np.ndarray:
    """A_k and its first rows - 1 derivatives at a 1-d array of xi.

    Real segment plus rotated ray, fixed nodes; returns shape (rows, xi.size).
    On the segment the nodes and the phase are real, so the only complex
    step there is exp(-i theta) times the real weights.  The j-th derivative
    multiplies the integrand by (-i z)^j, so one exp per node serves every
    row.
    """
    kp2 = k + 2
    delta = math.pi / (2.0 * kp2)
    rot = complex(math.cos(delta), -math.sin(delta))
    u, wu = _unit_rule(SEGMENT_NODES)
    v, wv = _unit_rule(RAY_NODES)
    x = xi[:, None]
    # beyond the outermost stationary point the phase derivative is positive,
    # so the rotated tail decays immediately
    r0 = np.where(x < 0.0, np.maximum(2.0, 1.6 * np.abs(x) ** (1.0 / (k + 1))), 1.0)
    # on z = r0 + s*rot every term of Im(xi z + z^kp2/kp2) is <= 0, so the
    # integrand is below both exp(-a s) and exp(-s^kp2/kp2)
    a = (x + r0 ** (k + 1)) * math.sin(delta)
    s_max = np.minimum(RAY_DECAY / a, (kp2 * RAY_DECAY) ** (1.0 / kp2))
    # the real segment [0, r0], then the ray, each with its nodes and weights
    y = r0 * u
    seg = np.exp(-1j * (y * (x + y ** (k + 1) / kp2))) * (r0 * wu)
    z = r0 + (s_max * v) * rot
    ray = np.exp(-1j * (x * z + z * z ** (k + 1) / kp2)) * ((s_max * wv) * rot)
    out = np.empty((rows, xi.size))
    for j in range(rows):
        if j:
            seg *= -1j * y
            ray *= -1j * z
        # A_k is real, so the left half-line mirrors the right: 1/pi, not 1/(2 pi)
        out[j] = (seg.sum(axis=1).real + ray.sum(axis=1).real) / math.pi
    return out


def airy_table(k: int, xi, derivs: int = 0) -> np.ndarray:
    """A_k for k = 1 or 3 at every xi (any shape), by fixed-node contour quadrature.

    With derivs = m > 0 the result gains a leading axis of m + 1 rows, row j
    holding the j-th derivative A_k^(j) from the same quadrature nodes.  The
    whole array is validated first: every xi must be finite with
    |xi| <= XI_LIMIT.
    """
    if not isinstance(k, (int, np.integer)) or k not in (1, 3):
        raise ValueError(f"edge profiles are validated for front orders 1 and 3 only; got k={k}")
    if not isinstance(derivs, (int, np.integer)) or derivs < 0:
        raise ValueError(f"derivs must be an integer >= 0, got derivs={derivs}")
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    if np.any(np.abs(xi) > XI_LIMIT):
        raise ValueError(f"|xi| > {XI_LIMIT} is outside the validated range")
    flat = xi.ravel()
    out = np.empty((derivs + 1, flat.size))
    for lo in range(0, flat.size, XI_BLOCK):
        out[:, lo : lo + XI_BLOCK] = _contour(k, flat[lo : lo + XI_BLOCK], derivs + 1)
    return out.reshape((derivs + 1, *xi.shape) if derivs else xi.shape)


def generalized_airy(k: int, xi: float) -> float:
    """Real value of A_k(xi) for k = 1 or 3: a one-point airy_table.

    The path runs along the real axis through the stationary-phase region to
    r0(xi) and then along the ray at angle pi/(2(k+2)) below the real axis,
    where the phase decays; both pieces use fixed Gauss-Legendre nodes.
    Absolute accuracy is ~3e-14 on the validated range |xi| <= 50; any
    other order, and a larger or non-finite xi, is rejected.
    """
    return float(airy_table(k, float(xi)))


def _ode_sign(k: int) -> int:
    """c = (-1)^k i^(k+1) of the defining ODE A_k^(k+1) = c xi A_k, for odd k."""
    return (-1) ** ((k - 1) // 2)


def airy_ode_residual(k: int, xi: float) -> float:
    """Residual A_k^(k+1)(xi) - c xi A_k(xi) of the defining ODE, for k = 1 or 3.

    c = (-1)^k i^(k+1) is real for odd k: +xi A_1 for k=1, -xi A_3 for k=3.
    Both terms are rows of one airy_table with derivs = k + 1, so the
    residual measures the quadrature alone (~1e-12 over the validated
    range), with no finite-difference step.
    """
    a = airy_table(k, xi, derivs=k + 1)
    return float(a[k + 1] - _ode_sign(k) * xi * a[0])


@dataclass(frozen=True, eq=False)
class EdgeProfile:
    """Scaled cumulative deviations near one front, numeric or predicted.

    dphi_scaled(xi) = sign(kappa) * (Phi(n(xi)) - Phi(n_e)) * (|kappa| t)^(1/(k+2))
    rises monotonically for xi > 0; djs_scaled = v_e * dphi_scaled.
    """

    front: ExtremalFront
    t: float
    xi: np.ndarray
    dphi_scaled: np.ndarray
    djs_scaled: np.ndarray
    source: str  # "numeric" or "predicted"


@dataclass(frozen=True)
class StaircaseStep:
    """One plateau of the staircase: area = height * width (units of a)."""

    index: int
    height: float
    width: float
    area: float


def max_edge_window(front: ExtremalFront, t: float) -> int:
    """Largest measure_edge window whose predicted profile stays in |xi| <= XI_LIMIT.

    The samples of a window of w sites reach (w + 1/2) / edge_scale from the
    front (the window is centred on the rounded front position), and
    predict_edge evaluates its closed form at the samples alone.
    """
    return math.floor(XI_LIMIT * edge_scale(front, t) - 0.5)


def predict_edge(front: ExtremalFront, t: float, xi_grid: np.ndarray) -> EdgeProfile:
    """Predicted scaled deviation: the running integral of A_k(-u)^2.

    For odd k, A = A_k solves A^(k+1) = c xi A with c = (-1)^k i^(k+1) = +-1,
    so the antiderivative

        F(xi) = xi A^2 - (1/c) sum_{j=1..k} (-1)^(j+1) A^(j) A^(k+1-j)

    has F' = A^2 (for k = 1 the classical xi Ai^2 - Ai'^2), and the running
    integral is F(0) - F(-xi) in closed form.  A_k and its first k
    derivatives come from one airy_table call at the requested xi and 0, so
    the cost grows with the number of samples, 2 window + 1, not with the xi
    range.  On a 2-core AVX-512 VM with 2 MB of L2 per core that is 3-10 ms
    for the published windows at t = 1e4, and ~46 ms for the 2 647 samples
    of the g = 1/8 right-front window at t = 1e6, whose evolution takes
    ~0.3 s there.

    Rejects even-order fronts, whose amplitude equation has an imaginary
    dispersion term and therefore no real staircase.
    """
    k = front.order
    if k % 2 == 0:
        raise ValueError(f"front of even order {k} has no real staircase profile")
    xi_grid = np.asarray(xi_grid, dtype=float)
    x = np.append(-xi_grid, 0.0)
    a = airy_table(k, x, derivs=k)
    c = _ode_sign(k)
    pairs = sum((-1) ** (j + 1) * a[j] * a[k + 1 - j] for j in range(1, k + 1))
    f = x * a[0] ** 2 - pairs / c
    dphi = (f[-1] - f[:-1]).reshape(xi_grid.shape)
    return EdgeProfile(front, float(t), xi_grid, dphi, front.velocity * dphi, "predicted")


def measure_edge(
    p: WalkParams,
    front: ExtremalFront,
    t: float,
    window: int,
    lattice: int | None = None,
) -> EdgeProfile:
    """Numeric edge profile from the evolved state, +-window sites around n_e.

    The window must not reach any other front travelling at a different
    velocity (co-moving degenerate partners are fine and simply double the
    profile), and must lie on a given lattice; both, and the ring's size
    cap, are checked before anything is evolved.
    """
    if not t > 0:
        raise ValueError(f"measure_edge needs t > 0, got t={t}")
    # first: the ring's layout refuses a ring above MAX_LATTICE, so every
    # |v t| rounded below is finite
    L, origin = _ring_layout(p, t, lattice, reach=window)
    n_e = round(front.velocity * t)
    diagram = cone_topology(p)
    for other in diagram.fronts:
        if abs(other.velocity - front.velocity) <= TOL_DEGEN:
            continue
        if abs(round(other.velocity * t) - n_e) <= window + 10:
            raise ValueError(
                f"window of {window} sites around n={n_e} overlaps the front at "
                f"v={other.velocity:.4f}; shrink the window or increase t"
            )
    ns = n_e + np.arange(-window, window + 1)
    idx = ns + origin
    if idx.min() < 0 or idx.max() >= L:  # a given lattice may not hold the window
        raise ValueError("window extends past the lattice; enlarge the lattice")
    wf = evolve(p, t, lattice, reach=window)
    phi_num = cumulative(probability_density(wf)).values
    j_num = cumulative(current_density(wf)).values
    scale = edge_scale(front, t)
    s = 1 if front.kappa > 0 else -1
    ref = n_e + origin
    xi = s * (ns - front.velocity * t) / scale
    dphi = s * (phi_num[idx] - phi_num[ref]) * scale
    djs = s * (j_num[idx] - j_num[ref]) * scale
    order = np.argsort(xi)
    return EdgeProfile(front, float(t), xi[order], dphi[order], djs[order], "numeric")


def _savgol5(y: np.ndarray, deriv: int, h: float) -> np.ndarray:
    """Least-squares quadratic over a sliding 5-sample window."""
    if deriv == 0:
        w = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    else:
        w = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) / (10.0 * h)
    return np.convolve(y, w[::-1], mode="same")


def _find_peaks(y: np.ndarray, distance: int) -> np.ndarray:
    """Indices of local maxima at least `distance` samples apart.

    Same result as scipy.signal.find_peaks(y, distance=distance): a peak is
    a run of equal samples higher than the samples on either side (never at
    an end), reported at the run's middle (left-biased) index; then, from
    the highest peak down, every kept peak drops the peaks closer than
    `distance`.
    """
    y = np.asarray(y, dtype=float)
    start = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    end = np.append(start[1:], y.size) - 1
    top = y[start]
    inner = (top[1:-1] > top[:-2]) & (top[1:-1] > top[2:])
    peaks = (start[1:-1][inner] + end[1:-1][inner]) // 2
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(y[peaks])[::-1]:
        if keep[j]:
            keep[np.abs(peaks - peaks[j]) < distance] = False
            keep[j] = True
    return peaks[keep]


def _refine(xs: np.ndarray, ys: np.ndarray, i: int) -> float:
    denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
    off = 0.5 * (ys[i - 1] - ys[i + 1]) / denom if denom != 0.0 else 0.0
    return float(xs[i] + np.clip(off, -1.0, 1.0) * (xs[1] - xs[0]))


def extract_staircase(profile: EdgeProfile, observable: str = "cpd") -> list[StaircaseStep]:
    """Locate staircase steps in a monotone edge profile.

    Plateau positions are the zeros of the profile's first derivative and
    the step width is the gap between the two consecutive non-stationary
    inflection points (the steepest points of the bounding risers); both are
    estimated from 5-point quadratic least-squares (Savitzky-Golay)
    derivatives.  Riser peaks are required to be separated by at least
    STEP_MIN_SEP in xi and by a derivative dip below STEP_DIP_FRAC of the
    smaller peak, which rejects the short-wavelength interference ripple
    that rides on the risers near degenerate or internal fronts.
    area = height*width.

    Returns an empty list (diagnostic, not an error) when fewer than two
    steps are detectable.  For "ccd" the current profile divided by the
    front velocity is analysed, so heights and areas match the "cpd" ones.
    """
    if observable == "cpd":
        y = profile.dphi_scaled
    elif observable == "ccd":
        y = profile.djs_scaled / profile.front.velocity
    else:
        raise ValueError("observable must be 'cpd' or 'ccd'")
    keep = profile.xi >= 0.0
    xi = profile.xi[keep]
    y = np.asarray(y, dtype=float)[keep]
    if len(xi) < 7:
        return []
    h = float(xi[1] - xi[0])
    if not np.allclose(np.diff(xi), h, rtol=1e-6, atol=1e-12):
        raise ValueError("extract_staircase expects uniformly sampled xi")
    d = _savgol5(y, 1, h)
    ys = _savgol5(y, 0, h)
    valid = slice(2, len(xi) - 2)
    peaks = list(_find_peaks(d[valid], max(1, int(round(STEP_MIN_SEP / h)))) + 2)
    while len(peaks) > 1:
        worst, worst_ratio = None, STEP_DIP_FRAC
        for m in range(len(peaks) - 1):
            ref = min(d[peaks[m]], d[peaks[m + 1]])
            if ref <= 0.0:
                continue
            ratio = float(np.min(d[peaks[m] : peaks[m + 1] + 1])) / ref
            if ratio > worst_ratio:
                worst, worst_ratio = m, ratio
        if worst is None:
            break
        peaks.pop(worst if d[peaks[worst]] < d[peaks[worst + 1]] else worst + 1)
    steps = []
    for m in range(len(peaks) - 1):
        i0, i1 = peaks[m], peaks[m + 1]
        seg = int(np.argmin(d[i0 : i1 + 1])) + i0
        pos = _refine(xi, d, seg) if i0 < seg < i1 else float(xi[seg])
        height = float(np.interp(pos, xi[valid], ys[valid]))
        width = _refine(xi, d, i1) - _refine(xi, d, i0)
        steps.append(StaircaseStep(m + 1, height, width, height * width))
    return steps if len(steps) >= 2 else []
