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
Gauss-Legendre rules, of SEGMENT_NODES and RAY_NODES points, and the ray is
cut per xi where the integrand is below exp(-40).  The rules ship as data:
the exact float64 nodes and weights that numpy's leggauss returns, so no
call solves the eigenproblem that leggauss does.  The segment's nodes and
phase are real, so it is built in float64 and only its exp(-i theta) is
complex; the ray is complex throughout.  A table is one array expression
per piece over (xi x nodes), taken in blocks of XI_BLOCK values of xi,
small enough that a block's node arrays stay in a core's L2 cache.  Against
an arbitrary-precision series the values agree to ~3e-14 over the
validated range |xi| <= XI_LIMIT = 50 for k = 1 and 3.
The j-th derivative multiplies the integrand by (-i z)^j, so the same nodes
and exponentials give A_k', A_k'', ... as further rows of a table.

The running integral of A_k^2 has a closed form: A_k solves
A^(k+1) = c xi A with c = +-1, so

    F(xi) = xi A^2 - (1/c) sum_{j=1..k} (-1)^(j+1) A^(j) A^(k+1-j)

has F' = A^2 (for k = 1 the classical xi Ai^2 - Ai'^2).  The predicted
edge profile F(0) - F(-xi) is evaluated at its samples alone from k + 1
rows; no grid in xi is integrated numerically.  The rows are entire, so
samples that outnumber ~1.25 X^((k+2)/(k+1)) + 40 Chebyshev points of
their range |xi| <= X take the rows tabulated at those points alone,
interpolated: the quadrature count follows the xi range, not the number
of samples.

measure_edge evolves every front, outer, internal or degenerate, by one
evolve call with the window of sites it measures, on the windowed ring
when that is the shorter (12 500 to 18 432 sites at t = 1e4 on the
published rows, where the whole ring has 40 960 to 46 080).

Orientation convention used throughout this module: the edge coordinate is

    xi = sign(kappa_k) * (n - v_e t) / (|kappa_k| t)^(1/(k+2))

so xi > 0 always points from the front into the allowed (oscillatory)
region, for left, right and internal fronts alike.  In this coordinate the
envelope is A_k(-xi): it oscillates for xi > 0 and decays for xi < 0, so
the predicted scaled deviation int_0^xi A_k(-u)^2 du is non-decreasing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import as_numbers, real, whole
from .dispersion import WalkParams
from .evolve import cumulative, current_density, evolve, probability_density, ring_layout
from .fronts import ExtremalFront, cone_topology, edge_scale, same_velocity

XI_LIMIT = 50.0
SEGMENT_NODES = 200  # converged from 160 at |xi| = 50
RAY_NODES = 100  # converged from 80 at |xi| = 50
RAY_DECAY = 40.0  # the ray ends where |integrand| <= exp(-40) ~ 4e-18
# xi values per array evaluation: a block's complex node arrays (64 x 200
# segment, 64 x 100 ray, 16 bytes each) and their temporaries stay in a 2 MB
# L2; a sweep of 32, 64 and 128 on the published edge rows picked 64.  The
# edge interpolant takes its samples in blocks of the same size
XI_BLOCK = 64
# extract_staircase keeps riser peaks at least STEP_MIN_SEP apart in xi, and
# separated by a derivative dip below STEP_DIP_FRAC of the smaller peak
STEP_MIN_SEP = 0.8
STEP_DIP_FRAC = 0.5


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
    u, wu = _SEGMENT_RULE
    v, wv = _RAY_RULE
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
    holding the j-th derivative A_k^(j) from the same quadrature nodes, up
    to the k + 1 rows of the defining ODE.  k: 1 or 3; xi: finite, with
    |xi| <= XI_LIMIT, the validated range, checked over the whole array
    first; derivs: an integer in [0, k + 1].
    """
    whole("k", k, 1, 3)
    whole("derivs", derivs, 0)
    if k == 2:
        raise ValueError(f"edge profiles are validated for front orders 1 and 3 only, got k={k!r}")
    if derivs > k + 1:
        raise ValueError(f"derivs must be <= k + 1 = {k + 1}, got derivs={derivs!r}")
    xi = as_numbers("xi", xi, XI_LIMIT)
    flat = xi.ravel()
    out = np.empty((derivs + 1, flat.size))
    for lo in range(0, flat.size, XI_BLOCK):
        out[:, lo : lo + XI_BLOCK] = _contour(k, flat[lo : lo + XI_BLOCK], derivs + 1)
    return out.reshape((derivs + 1, *xi.shape) if derivs else xi.shape)


def _ode_sign(k: int) -> int:
    """c = (-1)^k i^(k+1) of the defining ODE A_k^(k+1) = c xi A_k, for odd k."""
    return (-1) ** ((k - 1) // 2)


@dataclass(frozen=True, eq=False)
class EdgeProfile:
    """Scaled cumulative deviations near one front, numeric or predicted.

    dphi_scaled(xi) = sign(kappa) * (Phi(n(xi)) - Phi(n_e)) * (|kappa| t)^(1/(k+2))
    rises monotonically for xi > 0; djs_scaled = v_e * dphi_scaled.  lattice
    is the number of sites of the ring that measured a numeric profile, and
    None for a predicted one.
    """

    front: ExtremalFront
    t: float
    xi: np.ndarray
    dphi_scaled: np.ndarray
    djs_scaled: np.ndarray
    source: str  # "numeric" or "predicted"
    lattice: int | None = None


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


def _edge_rows(k: int, x: np.ndarray) -> np.ndarray:
    """airy_table(k, x, derivs=k) at a 1-d x, interpolated when x outnumbers its Chebyshev points.

    The rows are entire in x, so a polynomial through n + 1 Chebyshev points
    of the second kind on [min x, max x] converges to them once n passes the
    number of oscillations that the points see: through x = X cos(theta) the
    phase of A_k(x) at x < 0, whose wavenumber is |x|^(1/(k+1)), moves at most
    0.62 X^(3/2) (k = 1) or 0.73 X^(5/4) (k = 3) per radian of theta, with
    X = max |x|.  The smallest n at which predict_edge on [-X, X] stays within
    1e-12 of the direct table was 0.74 X^(3/2) + 40 and 0.93 X^(5/4) + 30 for
    X up to 50; n = 1.25 X^((k+2)/(k+1)) + 40 keeps a factor >= 1.35 above it.
    The rows are evaluated there by airy_table and carried to x by the
    barycentric formula (weights +-1, halved at the ends; Berrut and
    Trefethen, SIAM Rev. 46, 2004) in blocks of XI_BLOCK samples.  Fewer
    samples than points, and samples of one value (whose points would
    coincide), go to the direct table.  x must lie in airy_table's range.
    """
    span = float(np.max(np.abs(x)))
    n = math.ceil(1.25 * span ** ((k + 2) / (k + 1)) + 40)
    lo, hi = float(x.min()), float(x.max())
    if x.size <= n + 1 or lo == hi:
        return airy_table(k, x, derivs=k)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.arange(n + 1) * (math.pi / n))
    nodes[[0, -1]] = hi, lo
    rows = airy_table(k, nodes, derivs=k)
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    out = np.empty((k + 1, x.size))
    for b in range(0, x.size, XI_BLOCK):
        d = x[b : b + XI_BLOCK, None] - nodes
        hit = d == 0.0  # a sample on a node takes the node's rows
        d[hit] = 1.0
        c = w / d
        out[:, b : b + XI_BLOCK] = (rows @ c.T) / c.sum(axis=1)
        i, j = np.nonzero(hit)
        out[:, b + i] = rows[:, j]
    return out


def predict_edge(front: ExtremalFront, t: float, xi_grid: np.ndarray) -> EdgeProfile:
    """Predicted scaled deviation: the running integral of A_k(-u)^2.

    For odd k, A = A_k solves A^(k+1) = c xi A with c = (-1)^k i^(k+1) = +-1,
    so the antiderivative

        F(xi) = xi A^2 - (1/c) sum_{j=1..k} (-1)^(j+1) A^(j) A^(k+1-j)

    has F' = A^2 (for k = 1 the classical xi Ai^2 - Ai'^2), and the running
    integral is F(0) - F(-xi) in closed form.  A_k and its first k
    derivatives at the requested xi and 0 come from _edge_rows: one
    airy_table call at the samples themselves when they are few, otherwise
    at n + 1 Chebyshev points of their range (n = 83 for k = 1 at
    |xi| <= 10.5, 73 for k = 3 at 13.6, 482 and 207 at 50), interpolated to
    the samples within ~1e-14 of the direct table.  On a 2-core AVX-512 VM
    with 2 MB of L2 per core that is ~6 ms for the five published windows
    at t = 1e4 (21 ms with a table at every sample), and ~2.1 ms for the
    2 647 samples of the g = 1/8 right-front window at t = 1e6 (29 ms).
    The first call of a process costs the same, since the quadrature
    rules are module constants.

    t: finite, > 0; xi_grid: finite, with |xi| <= XI_LIMIT.  Rejects
    even-order fronts, whose amplitude equation has an imaginary dispersion
    term and therefore no real staircase.
    """
    t, xi_grid = real("t", t, 0, above=True), as_numbers("xi_grid", xi_grid, XI_LIMIT)
    k = front.order
    if k % 2 == 0:
        raise ValueError(f"front of even order {k} has no real staircase profile")
    x = np.append(-xi_grid, 0.0)
    a = _edge_rows(k, x)
    c = _ode_sign(k)
    pairs = sum((-1) ** (j + 1) * a[j] * a[k + 1 - j] for j in range(1, k + 1))
    f = x * a[0] ** 2 - pairs / c
    dphi = (f[-1] - f[:-1]).reshape(xi_grid.shape)
    return EdgeProfile(front, t, xi_grid, dphi, front.velocity * dphi, "predicted")


def measure_edge(p: WalkParams, front: ExtremalFront, t: float, window: int) -> EdgeProfile:
    """Numeric edge profile from the evolved state, +-window sites around n_e.

    Every front is evolved by evolve(p, t, sites=(n_e - window, n_e + window)).
    The window must not reach any other front travelling at a different
    velocity (co-moving degenerate partners are fine and simply double the
    profile); that and the ring's size cap are checked before anything is
    evolved.  The profile's lattice is the measuring ring's size.  t:
    finite, > 0; window: an integer >= 1 that fits in a float.
    """
    t, window = real("t", t, 0, above=True), whole("window", window, 1, sys.float_info.max)
    diagram = cone_topology(p)
    if not math.isfinite((diagram.v_rm - diagram.v_lm) * t):
        ring_layout(p, t)  # the cone overflows a float, so every ring is above the cap: GuardError
    n_e = round(front.velocity * t)
    sites = (n_e - window, n_e + window)
    ring_layout(p, t, sites)  # refuses a ring above the cap
    for v in (fr.velocity for fr in diagram.fronts if not same_velocity(fr.velocity, front.velocity)):
        if abs(round(v * t) - n_e) <= window + 10:
            raise ValueError(
                f"window of {window} sites around n={n_e} overlaps the front at "
                f"v={v:.4f}; shrink the window or increase t"
            )
    wf = evolve(p, t, sites=sites)
    ns = n_e + np.arange(-window, window + 1)
    idx, ref = ns + wf.origin, n_e + wf.origin
    scale, s = edge_scale(front, t), (1 if front.kappa > 0 else -1)
    xi = s * (ns - front.velocity * t) / scale
    dphi, djs = (s * (c.values[idx] - c.values[ref]) * scale
                 for c in (cumulative(probability_density(wf)), cumulative(current_density(wf))))
    order = np.argsort(xi)
    return EdgeProfile(front, t, xi[order], dphi[order], djs[order], "numeric", wf.L)


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
    if not (h > 0.0 and np.allclose(np.diff(xi), h, rtol=1e-6, atol=1e-12)):
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


def _gauss_legendre(half: str) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] from the positive half of the rule.

    `half` holds one node x and its weight w per line, x ascending, each as
    the 16 hex digits of its IEEE 754 bits (struct.pack('>d', x).hex(): the
    digits after the first three are float.hex's); the nodes are
    antisymmetric and the weights symmetric.
    """
    x, w = np.frombuffer(bytes.fromhex(half), ">f8").astype(float).reshape(-1, 2).T
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _unit_rule(half: str) -> tuple[np.ndarray, np.ndarray]:
    """The rule of _gauss_legendre(half) on [0, 1]: nodes (x + 1)/2, weights w/2."""
    x, w = _gauss_legendre(half)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# The contour's two rules are constants of the method, like their node
# counts: the positive halves of np.polynomial.legendre.leggauss(SEGMENT_NODES)
# and leggauss(RAY_NODES) on [-1, 1] as numpy 2.4.6 returns them, bit for
# bit.  leggauss symmetrizes its result, so its nodes are exactly
# antisymmetric and its weights exactly symmetric, and the halves restore
# the whole rules.  Decoding them adds ~80 us to the import; leggauss takes
# ~3.6 ms (an eigensolve of the 200 x 200 Jacobi matrix and Clenshaw sums).
_SEGMENT_HALF = """
3f800b6cc1f2c978 3f900b573e9e617b
3f9810a20fc16c50 3f900a5519a2ffc4
3fa40d054692f6cf 3f900850dfe5a573
3fac1076e9a1efff 3f90054ab1d81f80
3fb2091281315acf 3f900142c0229539
3fb608c75f45b3fd 3f8ff8729740f173
3fba0719b825efa9 3f8fec5d4ab8e7c9
3fbe03c94b320640 3f8fde465d16a0c5
3fc0ff4af90de32e 3f8fce2eb10bb71a
3fc2fb9fd2777b8c 3f8fbc1749838d60
3fc4f6c33f0bc912 3f8fa80149930871
3fc6f0955f32ea58 3f8f91edf4664402
3fc8e8f66887f355 3f8f79dead2c42c3
3fcadfc6a7d86bee 3f8f5fd4f7009c00
3fccd4e68322593f 3f8f43d274d32730
3fcec8367b90b1a7 3f8f25d8e94da6cf
3fd05ccb97bb0dc7 3f8f05ea36b77698
3fd15474ae22eb8e 3f8ee4085ed73b1e
3fd24b06f0455989 3f8ec03582d29778
3fd34072deedf6a0 3f8e9a73e30bea3e
3fd434a90d67ef85 3f8e72c5defe145a
3fd5279a22762b57 3f8e492df51649a9
3fd61936d94a3f0e 3f8e1daec28bf225
3fd70970027a181f 3f8df04b03369aa4
3fd7f83684f44efe 3f8dc1059161f7c8
3fd8e57b5ef31209 3f8d8fe165a000b9
3fd9d12fa6ed99ae 3f8d5ce1969921c7
3fdabb448c88168b 3f8d280958da8b2b
3fdba3ab59820a8a 3f8cf15bfea29e5e
3fdc8a5572a2fde3 3f8cb8dcf7ab7ee4
3fdd6f3458a58144 3f8c7e8fd0f3c71a
3fde5239a9206e36 3f8c4278348567ba
3fdf33571f6e5738 3f8c0499e93ab2bb
3fe0093f4ac98c74 3f8bc4f8d28197c7
3fe077d1028fbef4 3f8b8398f01d1323
3fe0e559c4097386 3f8b407e5de4d736
3fe151d2acdd74e6 3f8afbad538330cb
3fe1bd34ebc86b69 3f8ab52a24312a3e
3fe22779c10a8d5a 3f8a6cf93e70f6f8
3fe2909a7ed43595 3f8a231f2bc6a459
3fe2f89089b1597a 3f89d7a0906f1af9
3fe35f5558f3d791 3f898a822b156e78
3fe3c4e2771c9814 3f893bc8d48686bf
3fe42931824378d3 3f88eb797f63273d
3fe48c3c2c7dfdf2 3f88999937d04e4e
3fe4edfc3c44c0f6 3f88462d23260348
3fe54e6b8cd797d6 3f87f13a7f9c895a
3fe5ad840ea06db8 3f879ac6a3f80479
3fe60b3fc794c72a 3f8742d6ff329406
3fe66798d395ebb4 3f86e9711824e35d
3fe6c28964cfaeb9 3f868e9a8d2d419c
3fe71c0bc415d1ac 3f86325913d53864
3fe7741a513ff9c4 3f85d4b27875b222
3fe7caaf83843363 3f8575ac9dd9ae2f
3fe81fc5e9cffd7b 3f85154d7cdf8e85
3fe873582b1fd75f 3f84b39b24190379
3fe8c56106d54b85 3f84509bb769905b
3fe915db550b71b7 3f83ec556fa3caf5
3fe964c206e9e38b 3f8386ce9a253604
3fe9b21026f61dc2 3f83200d9870e427
3fe9fdc0d9634993 3f82b818dfc8c6fd
3fea47cf5c6068c8 3f824ef6f8c5cb81
3fea90370864dfcf 3f81e4ae7eeeb768
3fead6f3507b58ea 3f817946204ddcb9
3feb1bffc28afbcc 3f810cc49d05a01d
3feb5f58079ef509 3f809f30c6e3dcae
3feba0f7e42c48dd 3f80309180f429b3
3febe0db3855ecdf 3f7f81db7e222181
3fec1efe002f2467 3f7ea0990ae85927
3fec5b5c53fc1b6b 3f7dbd69d08a978f
3fec95f26870bbd6 3f7cd85c165113a6
3feccebc8eedb95a 3f7bf17e4196ec70
3fed05b735bbcff6 3f7b08ded4e28c10
3fed3adee8453168 3f7a1e8c6efc400d
3fed6e304f4d1e0e 3f793295ca02fe46
3fed9fa83125a5a0 3f784509ba7f8c4d
3fedcf4371e38c7f 3f7755f72e75ecc5
3fedfcff1390525e 3f76656d2c7546de
3fee28d8365a5727 3f75737ad2a644da
3fee52cc18c31b38 3f74802f55d811a7
3fee7ad817cb982f 3f738b9a008bf353
3feea0f9af1eafb4 3f7295ca31ff9c60
3feec52e7939add6 3f719ecf5d368c94
3feee7742f92dd02 3f70a6b908025219
3fef07c8aabe29da 3f6f5b2d94143bda
3fef2629e28fd5df 3f6d66f097a44a95
3fef4295ee3d38d3 3f6b70da8b8645e4
3fef5d0b047b9262 3f69790afe668f3d
3fef75877b9cf081 3f677fa19ae51427
3fef8c09c9ab34bd 3f6584be25bc0b2f
3fefa09084814e2c 3f6388807c06c345
3fefb31a61e2d722 3f618b0891cb312c
3fefc3a637928099 3f5f18ece24500cf
3fefd232fb684bf9 3f5b19d475d70127
3fefdebfc36a3d2e 3f571908579692b6
3fefe94bc5ef8b8d 3f5316c95dd9d9d1
3feff1d659eae6e9 3f4e26b2971dfb26
3feff85ef7dcdacc 3f461dfaecf3125d
3feffce53eb7da70 3f3c28463a04247a
3fefff692790b208 3f2831d0dd1342df
"""

_RAY_HALF = """
3f90010b63d7442e 3fa000b5fb1d2bc2
3fa7ff90ae37ed8a 3f9ff96a82c8aa9c
3fb3fc4d7a075dff 3f9fe9699c885590
3fbbf3d2da73e0c7 3f9fd16d443f27c3
3fc1f22d289ce40b 3f9fb17b79d56664
3fc5e5f3bb748641 3f9f899c3ad59e81
3fc9d440117a4cdd 3f9f59d9806cfc00
3fcdbc167526e2d1 3f9f223f3ceca73d
3fd0ce3e675413f8 3f9ee2db58ccc877
3fd2ba3d7137daa3 3f9e9bbdaf31f02b
3fd4a18d47a52020 3f9e4cf809f5c376
3fd683b405f82a5a 3f9df69e1d33e9cb
3fd8603912007fb5 3f9d98c5825c5ae0
3fda36a53a2b944b 3f9d3385b2cc4550
3fdc0682d3554355 3f9cc6f801eeeb18
3fddcf5dd6369fb9 3f9c533796e7e978
3fdf90c3fc6bbef4 3f9bd86165c8846a
3fe0a5226e849e06 3f9b56942851a565
3fe17db9045d2611 3f9acdf0564460a5
3fe251ef92b02e1a 3f9a3e981d42eb72
3fe321910496a7a8 3f99a8af58440b59
3fe3ec696a98cad7 3f990c5b869b2366
3fe4b24607abbc3f 3f9869c3c2971c45
3fe572f55de28d4c 3f97c110b7ba8271
3fe62e473acf6a87 3f97126c988f4b8c
3fe6e40cc391df12 3f965e031418d042
3fe79418808f299e 3f95a4014ae69ea8
3fe83e3e68d1b46c 3f94e495c3cae7a7
3fe8e253ed0cd87b 3f941ff0603752c8
3fe9803002422ad4 3f9356425043331b
3fea17ab2c05aae5 3f9287be065e19fb
3feaa89f865e4152 3f91b4972ab1e594
3feb32e8cf4017f6 3f90dd028e378de9
3febb6646f9e6e2e 3f9001361d81fa34
3fec32f18412a7a3 3f8e42d1a684c735
3feca870e5167085 3f8c7ba55513de1f
3fed16c52ecef0a5 3f8aad592199036f
3fed7dd2c86728bd 3f88d860af528b18
3feddd7feaf7bca2 3f86fd314cfcd636
3fee35b4a7faa018 3f851c41d79f1a46
3fee865aef4966aa 3f83360a9d153e86
3feecf5e94a578a9 3f814b053e82c636
3fef10ad54ca77ac 3f7eb759261ed359
3fef4a36da0d91da 3f7ad0f917c276ab
3fef7becc0933edd 3f76e3e43833d2ec
3fefa5c29a3a55ea 3f72f1165c8cd4b6
3fefc7adf2ad5f43 3f6df31b3971d665
3fefe1a6559af749 3f65fc99764363ef
3feff3a5642a1f37 3f5c01b662be8b07
3feffda7a43b55b0 3f48128f8e3d2eec
"""
_SEGMENT_RULE = _unit_rule(_SEGMENT_HALF)
_RAY_RULE = _unit_rule(_RAY_HALF)
