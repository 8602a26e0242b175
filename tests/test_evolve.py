import importlib
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiralwalk import (
    FieldKind,
    GuardError,
    ObservableField,
    WalkParams,
    WaveFunction,
    cone_topology,
    cumulative,
    cumulative_moment,
    current_density,
    edge_scale,
    evolve,
    omega,
    position_moment,
    probability_density,
    ring_layout,
    skewness,
)
from chiralwalk.cli import _select_front
from chiralwalk.evolve import (
    BLOCK, GUARD_SITES, MAX_LATTICE, ROW_BATCH, SUM_BLOCK, _fast_even_lengths, _int_power
)
from oracles import (
    dense_ring_evolution,
    direct_ring_amplitudes,
    exact_cut_current,
    ring_sides,
    stepped_ring_layout,
    whole_ring_amplitudes,
    whole_ring_current,
    whole_ring_moment_terms,
    whole_ring_phase_factors,
)

# the package exports a function named evolve, so fetch the module by name
EVOLVE_MODULE = importlib.import_module("chiralwalk.evolve")

PI = math.pi


def test_initial_state_is_delta():
    wf = evolve(WalkParams(0.25, PI / 2), 0.0)
    p = probability_density(wf).values
    origin = wf.origin
    assert p[origin] == pytest.approx(1.0, abs=1e-15)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.delete(p, origin)) < 1e-28


def test_normalization_and_tail_guard():
    for g, phi, t in [(0.0, PI / 2, 80.0), (1 / 16, PI / 2, 150.0), (0.25, 0.3, 60.0)]:
        wf = evolve(WalkParams(g, phi), t)
        p = probability_density(wf).values
        assert abs(math.fsum(p) - 1.0) < 1e-12
        assert np.max(np.abs(wf.amps[:10])) < 1e-10
        assert np.max(np.abs(wf.amps[-10:])) < 1e-10


def test_unitary_roundtrip():
    p = WalkParams(0.2, 0.9)
    t = 37.0
    wf = evolve(p, t)
    q = 2 * np.pi * np.fft.fftfreq(wf.L)
    undone = np.fft.ifft(np.fft.fft(np.roll(wf.amps, -wf.origin)) * np.exp(1j * omega(q, p) * t))
    delta = np.zeros(wf.L, dtype=complex)
    delta[0] = 1.0
    assert np.max(np.abs(undone - delta)) < 1e-10


def test_matches_dense_matrix_exponential():
    p = WalkParams(0.18, 0.7)
    wf = evolve(p, 4.0, lattice=64)
    ref = dense_ring_evolution(64, p.g, p.phi, 4.0)
    assert np.max(np.abs(wf.amps - ref)) < 1e-12


def test_nn_only_spread_is_ballistic():
    # mu_2 = 2 t^2 exactly when the NNN hopping is switched off
    t = 50.0
    prob = probability_density(evolve(WalkParams(0.0, 0.7), t))
    assert position_moment(prob, 2) == pytest.approx(2 * t * t, rel=1e-8)


def test_moment_closed_forms_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.uniform(0.0, 0.45)
        phi = rng.uniform(0.0, PI / 2)
        t = rng.uniform(5.0, 100.0)
        prob = probability_density(evolve(WalkParams(g, phi), t))
        mu2 = 2 * (1 + 4 * g * g) * t * t
        mu3 = 12 * g * t**3 * math.sin(phi)
        mu4 = 6 * (1 + 16 * g * g + 16 * g**4) * t**4 + 2 * (1 + 16 * g * g) * t * t
        assert abs(position_moment(prob, 1)) < 1e-8
        assert position_moment(prob, 2) == pytest.approx(mu2, rel=1e-6)
        assert position_moment(prob, 3) == pytest.approx(mu3, rel=1e-6, abs=1e-6)
        assert position_moment(prob, 4) == pytest.approx(mu4, rel=1e-6)


def test_reflection_symmetry_and_chirality():
    wf = evolve(WalkParams(0.0, PI / 2), 50.0)
    p = probability_density(wf).values
    n0 = wf.origin
    for n in (1, 5, 20, 60, 99):
        assert p[n0 + n] == pytest.approx(p[n0 - n], abs=1e-10)
    chiral = evolve(WalkParams(1 / 16, PI / 2), 50.0)
    pc = probability_density(chiral).values
    n0 = chiral.origin
    asym = max(abs(pc[n0 + n] - pc[n0 - n]) for n in range(1, 100))
    assert asym > 1e-3


def test_support_inside_causal_cone():
    g, t = 0.25, 50.0
    wf = evolve(WalkParams(g, PI / 2), t)
    p = probability_density(wf).values
    sites = wf.sites
    # exponential Airy tails: ~8 edge widths (kappa t)^(1/3) past the cone
    margin = 35
    outside = (sites < -1.5 * t - margin) | (sites > 3.0 * t + margin)
    assert np.max(p[outside]) < 1e-12


def test_current_zero_at_t0_and_total_zero():
    wf0 = evolve(WalkParams(0.2, 0.4), 0.0)
    assert np.max(np.abs(current_density(wf0).values)) < 1e-14
    for g, phi in [(0.0, 0.0), (1 / 16, PI / 2), (0.3, 1.1)]:
        wf = evolve(WalkParams(g, phi), 60.0)
        j = current_density(wf).values
        assert abs(math.fsum(j)) < 1e-8


def test_discrete_continuity():
    # NN-only: the bond current is exact, so the centred time difference of
    # p matches j(n) - j(n+1) to O(dt^2)
    dt = 1e-4
    p0 = WalkParams(0.0, PI / 2)
    L, _ = ring_layout(p0, 50.0 + 1)
    plus = probability_density(evolve(p0, 50.0 + dt, L)).values
    minus = probability_density(evolve(p0, 50.0 - dt, L)).values
    j = current_density(evolve(p0, 50.0, L)).values
    resid = (plus - minus) / (2 * dt) - (j - np.roll(j, -1))
    assert np.max(np.abs(resid)) < 1e-8
    # with NNN hopping the same identity holds for the exact two-bond cut
    # current (the published single-bond form only matches it to O(g) on
    # lattice-scale oscillations)
    p1 = WalkParams(0.25, PI / 2)
    L, _ = ring_layout(p1, 51.0)
    plus = probability_density(evolve(p1, 50.0 + dt, L)).values
    minus = probability_density(evolve(p1, 50.0 - dt, L)).values
    wf = evolve(p1, 50.0, L)
    je = exact_cut_current(wf.amps, p1.g, p1.phi)
    resid = (plus - minus) / (2 * dt) - (je - np.roll(je, -1))
    assert np.max(np.abs(resid)) < 1e-8


def test_cumulative_distributions():
    wf0 = evolve(WalkParams(0.1, 0.2), 0.0)
    cpd = cumulative(probability_density(wf0)).values
    n0 = wf0.origin
    assert cpd[n0 - 1] == pytest.approx(0.0, abs=1e-14)
    assert cpd[n0] == pytest.approx(1.0, abs=1e-14)

    wf = evolve(WalkParams(0.0, PI / 2), 40.0)
    cpd = cumulative(probability_density(wf)).values
    n0 = wf.origin
    assert cpd[n0 - 1] + cpd[n0] == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(cpd) > -1e-14)
    assert cpd[-1] == pytest.approx(1.0, abs=1e-10)

    ccd = cumulative(current_density(wf)).values
    assert abs(ccd[0]) < 1e-8 and abs(ccd[-1]) < 1e-8


def test_cumulative_moments():
    p = WalkParams(1 / 16, PI / 2)
    wf = evolve(p, 80.0)
    prob = probability_density(wf)
    m0 = cumulative_moment(prob, 0)
    assert m0.kind is FieldKind.CUMULATIVE_MOMENT and m0.moment_order == 0
    np.testing.assert_allclose(m0.values, cumulative(prob).values, atol=1e-14)
    m3 = cumulative_moment(prob, 3)
    assert m3.values[-1] == pytest.approx(position_moment(prob, 3), rel=1e-10)


@pytest.mark.parametrize("t, lattice", [(2e4, None), (2000.0, 21870)])
def test_zeroth_cumulative_moment_past_the_first_block(t, lattice):
    # rings of 8 and 2 blocks: each block after the first starts from a
    # copy of the field's read-only values, so the field itself is untouched
    prob = probability_density(evolve(WalkParams(0.3, 0.8), t, lattice))
    assert prob.L > BLOCK
    before = prob.values.copy()
    assert _same_bits(cumulative_moment(prob, 0).values, cumulative(prob).values)
    assert _same_bits(prob.values, before) and not prob.values.flags.writeable


def test_negative_moment_order_rejected():
    prob = probability_density(evolve(WalkParams(0.3, 0.8), 10.0))
    for moment in (cumulative_moment, position_moment):
        with pytest.raises(ValueError, match=re.escape("k must be an integer in [0, 42], got k=-1")):
            moment(prob, -1)


def test_non_integer_moment_order_rejected():
    # 1.5 is no moment order, and an integral float is refused as well
    prob = probability_density(evolve(WalkParams(0.3, 0.8), 10.0))
    for k in (1.5, 2.0):
        for moment in (cumulative_moment, position_moment):
            with pytest.raises(ValueError, match=re.escape(f"k must be an integer in [0, 42], got k={k}")):
                moment(prob, k)
    assert prob._moments == {}  # nothing memoised for a refused order
    assert position_moment(prob, np.int64(2)) == position_moment(prob, 2)


@pytest.mark.parametrize("t", [True, False, np.True_])
def test_bool_time_rejected_on_a_given_lattice(t):
    # a given lattice skips the ring layout, whose edge_scale refuses a bool
    # t: evolve(p, True, lattice=64) evolved to t = 1.0
    with pytest.raises(ValueError, match=r"t must be a finite real number in \[0, [^]]+\], got t=" + re.escape(repr(t))):
        evolve(WalkParams(0.3, 0.8), t, lattice=64)


@pytest.mark.parametrize("call", [
    lambda p: evolve(p, "5"), lambda p: evolve(p, "5", lattice=64), lambda p: ring_layout(p, "5"),
], ids=["evolve", "evolve_on_a_lattice", "ring_layout"])
def test_string_time_rejected(call):
    # each raised TypeError from a comparison
    with pytest.raises(ValueError, match=r"t must be a finite real number in \[0, [^]]+[])], got t='5'"):
        call(WalkParams(0.3, 0.8))


def test_bool_moment_order_rejected():
    # bool passes the int check: True read as k = 1 gave mu_1 and the k = 1 prefix sums
    prob = probability_density(evolve(WalkParams(0.3, 0.8), 50.0))
    for k in (True, False):
        for moment in (cumulative_moment, position_moment):
            with pytest.raises(ValueError, match=re.escape(f"k must be an integer in [0, 42], got k={k}")):
                moment(prob, k)
    assert prob._moments == {}


def test_moment_order_checked_on_a_warm_field():
    # the order is checked on every call, not only on a memo miss, so a
    # field holding mu_1 .. mu_3 does not read True as 1 or 2.0 as 2
    prob = probability_density(evolve(WalkParams(0.3, 0.8), 50.0))
    for k in range(5):
        position_moment(prob, k)
    for k in (True, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer in [0, 42], got k={k!r}")):
            position_moment(prob, k)


def test_first_cumulative_moment_tracks_current():
    p = WalkParams(1 / 16, PI / 2)
    t = 5000.0
    wf = evolve(p, t)
    prob = probability_density(wf)
    m1 = cumulative_moment(prob, 1).values / t
    j = cumulative(current_density(wf)).values
    nus = wf.sites / t
    away = np.ones(wf.L, dtype=bool)
    for v_e in (-1.75, 2.25):
        away &= np.abs(nus - v_e) > 8 * (2 * t) ** (1 / 3) / t
    assert np.max(np.abs(m1[away] - j[away])) < 1e-2


def test_skewness():
    prob0 = probability_density(evolve(WalkParams(0.0, PI / 2), 50.0))
    assert abs(skewness(prob0)) < 1e-8
    g = 0.3
    prob = probability_density(evolve(WalkParams(g, PI / 2), 50.0))
    assert skewness(prob) == pytest.approx(3 * math.sqrt(2) * g / (1 + 4 * g * g) ** 1.5, abs=1e-9)
    with pytest.raises(ValueError):
        skewness(probability_density(evolve(WalkParams(0.1, 0.0), 0.0)))


def test_field_values_read_only():
    wf = evolve(WalkParams(0.3, 0.8), 40.0)
    prob = probability_density(wf)
    for field in (prob, current_density(wf), cumulative(prob), cumulative_moment(prob, 2)):
        with pytest.raises(ValueError, match="read-only"):
            field.values[0] = 1.0
    # a view is copied, so the array it views cannot change the field
    base = np.array(prob.values)
    viewed = ObservableField(FieldKind.PROBABILITY, base[:], wf.t, wf.params, wf.L, origin=wf.origin)
    base[wf.origin] = 5.0
    assert _same_bits(viewed.values, prob.values)
    assert base.flags.writeable


def test_position_moments_summed_once_per_field(monkeypatch):
    wf = evolve(WalkParams(0.3, 0.8), 40.0)
    exact = EVOLVE_MODULE._fsum_blocks
    calls = []

    def counted(blocks, spans, sites):
        calls.append(blocks)
        return exact(blocks, spans, sites)

    monkeypatch.setattr(EVOLVE_MODULE, "_fsum_blocks", counted)
    prob = probability_density(wf)
    # the prefix sums leave every exact sum to position_moment
    for k in (1, 2, 3):
        cumulative_moment(prob, k)
    assert calls == []
    mu = [position_moment(prob, k) for k in range(5)]
    gamma = skewness(prob)
    assert len(calls) == 5
    assert _same_float(gamma, mu[3] / mu[2] ** 1.5)
    # the memoised values are the fresh sums, bit for bit
    fresh = probability_density(wf)
    for k in range(5):
        assert _same_float(position_moment(prob, k), position_moment(fresh, k))
        blocks = EVOLVE_MODULE._moment_blocks(fresh, k, "position_moment")
        assert _same_float(mu[k], exact(blocks, EVOLVE_MODULE._blocks(fresh.L, SUM_BLOCK), fresh.L))
    assert len(calls) == 10


def test_guards_and_validation():
    p = WalkParams(0.25, PI / 2)
    wf = evolve(p, 100.0, lattice=128)  # a given lattice wraps, unguarded
    assert wf.L == 128
    with pytest.raises(ValueError):
        evolve(p, -1.0)
    with pytest.raises(ValueError):
        evolve(p, 10.0, lattice=63)
    assert evolve(p, 5.0, lattice=np.int64(128)).L == 128
    with pytest.raises(ValueError):
        cumulative(cumulative(probability_density(evolve(p, 1.0))))
    with pytest.raises(ValueError):
        position_moment(current_density(evolve(p, 1.0)), 2)


@pytest.mark.parametrize("lattice", [128.9, 128.0, np.float64(128.0), "128", True],
                         ids=["float", "whole-float", "numpy-float", "str", "bool"])
def test_lattice_must_be_an_integer(lattice):
    # a non-integer lattice is refused, not truncated
    with pytest.raises(ValueError, match=re.escape(f"lattice must be an integer >= 4, got lattice={lattice!r}")):
        evolve(WalkParams(0.3, 0.8), 5.0, lattice=lattice)


@pytest.mark.parametrize("reach", [math.nan, -200, -3, "200", True, 200.0, np.float64(5.0)],
                         ids=["nan", "-200", "-3", "str", "bool", "float", "numpy-float"])
def test_reach_must_be_a_whole_number_of_sites(monkeypatch, reach):
    # a window of sites (0, reach) reaches a whole number of sites at or past
    # its first: a NaN or negative reach is not read as 0, nor a string as a
    # TypeError; evolve refuses a bad window on a given lattice too, before any fill
    monkeypatch.setattr(EVOLVE_MODULE, "_phase_factors", lambda *a, **kw: pytest.fail("filled"))
    p = WalkParams(0.3, 0.8)
    if isinstance(reach, int) and not isinstance(reach, bool):
        match = re.escape(f"sites must be a pair of integers (first, last) with first <= last, got sites=(0, {reach})")
    else:
        match = re.escape(f"sites[1] must be an integer in [-1.7976931348623157e+308, 1.7976931348623157e+308], got sites[1]={reach!r}")
    with pytest.raises(ValueError, match=match):
        ring_layout(p, 10.0, (0, reach))
    for lattice in (None, 64):
        with pytest.raises(ValueError, match=match):
            evolve(p, 10.0, lattice, sites=(0, reach))
    assert ring_layout(p, 10.0, (0, np.int64(200))) == ring_layout(p, 10.0, (0, 200)) == (320, 104)


@pytest.mark.parametrize("lattice", [10**12, 10**400], ids=["1e12", "1e400"])
def test_lattice_above_the_cap_refused_before_the_phase_fill(monkeypatch, lattice):
    # a lattice int beyond every float is printed whole, not as inf
    monkeypatch.setattr(EVOLVE_MODULE, "_phase_factors", lambda *a, **kw: pytest.fail("filled"))
    size = "1e+12" if lattice == 10**12 else str(lattice)
    with pytest.raises(GuardError) as exc:
        evolve(WalkParams(0.1, 1.0), 10.0, lattice=lattice)
    assert f"lattice L={size} exceeds the cap" in str(exc.value)


def test_amplitude_guard_refuses_a_ring_too_small(monkeypatch):
    # the automatic ring always holds the cone; one too small for it is
    # caught by the boundary amplitudes
    monkeypatch.setattr(EVOLVE_MODULE, "_whole_ring", lambda p, t, sites: (128, 64))
    with pytest.raises(GuardError, match="wraparound guard violated"):
        evolve(WalkParams(0.25, PI / 2), 100.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lattice", [None, 64])
def test_nan_time_refused_before_the_phase_fill(monkeypatch, lattice):
    # every comparison with NaN is False, so a NaN t would pass a guard
    # written as "refuse when L/2 < v t" and fill the ring with NaN
    monkeypatch.setattr(EVOLVE_MODULE, "_phase_factors", lambda *a, **kw: pytest.fail("filled"))
    p = WalkParams(0.3, 0.8)
    with pytest.raises(ValueError, match=r"t must be a finite real number in \[0, [^]]+[])], got t=nan"):
        evolve(p, math.nan, lattice)
    with pytest.raises(ValueError, match=re.escape("t must be a finite real number in [0, inf), got t=nan")):
        ring_layout(p, math.nan)


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _exact_sum(x):
    """evolve._fsum_blocks over a float64 array, taken BLOCK terms at a time."""
    x = np.asarray(x, dtype=float).ravel()
    spans = EVOLVE_MODULE._blocks(x.size)
    return EVOLVE_MODULE._fsum_blocks(lambda run: (x[start:stop] for start, stop in run), spans, x.size)


def test_exact_sum_matches_fsum(monkeypatch):
    rng = np.random.default_rng(23)
    mixed = rng.standard_normal(4000) * 10.0 ** rng.uniform(-300, 300, 4000)
    pairs = rng.standard_normal(2000) * 10.0 ** rng.uniform(-30, 30, 2000)
    cancel = np.concatenate([pairs, -pairs])
    rng.shuffle(cancel)
    cases = [
        np.array([]),
        np.array([3.5]),
        np.array([-0.0]),
        np.array([0.0, -0.0]),
        np.array([-0.0, -0.0]),
        np.array([5e-324, 5e-324, -2.5e-320, 1e-310]),
        rng.integers(-(2**40), 2**40, 3000) * 5e-324,
        np.array([1e300, 1e-300, -1e300, -1e-300, 1e-300]),
        mixed,
        cancel,
        np.concatenate([cancel, [1e-200]]),
        np.array([1.0, 2.0**-53, 2.0**-106] * 100),  # halfway ties
        rng.uniform(-1.0, 1.0, 1000) * 2.0 ** rng.integers(-1074, 1000, 1000),
        # more than one block, and not a multiple of it
        rng.standard_normal(2 * BLOCK + 12345) * 10.0 ** rng.uniform(-8, 8, 2 * BLOCK + 12345),
    ]
    for x in cases:
        assert _same_float(_exact_sum(x), math.fsum(x)), x[:4]
    # blocks of 64 terms: the last case is split into the exact parts of 705
    # blocks, which fsum adds
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", 64)
    assert _same_float(_exact_sum(cases[-1]), math.fsum(cases[-1]))


def _signed(rng, size):
    return rng.choice([-1.0, 1.0], size)


@pytest.mark.parametrize("block", [3, 64, BLOCK])
def test_exact_sum_extraction_cases(monkeypatch, block):
    # inputs that steer each block through every branch of the extraction
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", block)
    rng = np.random.default_rng(29)
    size = 3 * block + 2
    odd = 2 * rng.integers(1, 2**40, size) + 1  # odd mantissas: every bit counts
    # magnitudes from 2^-140 up to 1 in each block, and a window takes at
    # most 53 - M bits: most blocks need three windows or more before the
    # residuals' plain sum is exact
    wide = _signed(rng, size) * odd * 2.0 ** rng.integers(-140, -40, size)
    wide[::block] = 1.0
    with_zeros = _signed(rng, size) * odd * 2.0 ** rng.integers(-60, 0, size)
    with_zeros[::2] = 0.0
    with_zeros[1::4] = -0.0
    zero_block = np.concatenate([np.zeros(block), -np.zeros(block), with_zeros[:block]])
    # 100 positive odd multiples of 2^-1074 in [2^-1028, 2^-1027): their sum
    # passes 2^-1021, where the float step doubles, so one split is needed
    # (a floor of -1020 on f skips it)
    steps = 2 * rng.integers(2**45, 2**46 - 1, 100) + 1
    subnormal = steps * 5e-324
    cases = [
        wide,
        -np.abs(wide),
        with_zeros,
        zero_block,
        np.zeros(size),
        -np.zeros(size),
        subnormal,
        -subnormal,
        _signed(rng, size) * odd * 5e-324,  # every block all-subnormal
        np.concatenate([subnormal, [2.0**-1022, -(2.0**-1022)]]),
    ]
    for x in cases:
        assert _same_float(_exact_sum(x), math.fsum(x)), (block, x[:4])


@pytest.mark.parametrize("block", [3, 64, BLOCK])
def test_exact_sum_huge_terms_go_to_fsum(monkeypatch, block):
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", block)
    M = (block + 1).bit_length()  # 2^M >= w + 2 for a full block of w terms
    huge = 2.0 ** (1022 - M)
    finite = [huge, -huge, 1.0, 2.0**1000, -(2.0**1000), 3.0]
    assert _same_float(_exact_sum(np.array(finite)), math.fsum(finite))
    assert _fsum_outcome(lambda: _exact_sum(np.array([1e308, 1e308]))) is OverflowError
    assert _fsum_outcome(lambda: _exact_sum(np.array([2.0**1023, 2.0**1023, -(2.0**1023)]))) is OverflowError
    # in blocks of three every term is below 2^(1022-M), yet fsum's partial
    # sums overflow inside blocks whose own sums are zero, while the sums of
    # the blocks before them stay below 2^1024
    big, half = 1.9 * 2.0**1018, 0.99 * 2.0**1018
    x = np.array([big] * 33 + [half, half, -2.0 * half] * 10 + [-big] * 33)
    assert _fsum_outcome(lambda: math.fsum(x)) is OverflowError
    assert _fsum_outcome(lambda: _exact_sum(x)) is OverflowError
    # a finite sum near the top of the range is still fsum's
    top = np.array([2.0**1020] * 3 + [-(2.0**1020)] * 2 + [2.0**-1074])
    assert _same_float(_exact_sum(top), math.fsum(top))


def _term_array(terms_and_shape):
    terms, shape = terms_and_shape
    x = np.array(terms, dtype=float)
    if shape == "positive":
        return np.abs(x)
    if shape == "negative":
        return -np.abs(x)
    if shape == "cancelling":
        return np.concatenate([x, -x[::-1]])
    return x


TERMS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0**-53, 2.0**-106, 2.0**1018, -(2.0**1018)]),
)
TERM_ARRAYS = st.tuples(
    st.lists(TERMS, max_size=200), st.sampled_from(["mixed", "positive", "negative", "cancelling"])
).map(_term_array)


@pytest.mark.parametrize("block", [3, 64, BLOCK])
def test_exact_sum_is_fsum_property(monkeypatch, block):
    # _exact_sum returns fsum's float, or raises fsum's exception
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", block)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(TERM_ARRAYS)
    def check(x):
        want = _fsum_outcome(lambda: math.fsum(x))
        assert _same_outcome(_fsum_outcome(lambda: _exact_sum(x)), want), x

    check()


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the bound on the four-step amplitudes against the direct sum, in units of
# max|psi|, fixed before any measurement
AMPLITUDE_BOUND = 1e-14


@pytest.mark.parametrize(
    "block, sizes",
    [
        (7, (4, 30, 56, 70)),
        (64, (40, 64, 200, 512, 528)),
        (8, (250, 256, 486)),
        (20, (168, 250, 486)),
    ],
)
def test_blocked_kernels_match_whole_ring(monkeypatch, block, sizes):
    # rings of whole blocks and with a ragged last block; four-step rings
    # from R = ROW_BATCH (L = 56 at block 7, 512 and 528 at block 64, 168 at
    # block 20) to R = 54 (L = 486 at block 8), with a ragged last row batch
    # at R = 10, 18 and 54; columns in whole chunks, and a ragged last chunk
    # of columns at L = 528 (block 64) and L = 168, 250 (block 20);
    # fftfreq's negative half starts on a chunk edge at L = 256 (block 8)
    # and 512 (block 64) and inside a chunk elsewhere; L = 4 below one
    # block, and L = 30 (block 7), 40, 64 and 200 (block 64), take the
    # single transform.  The exact sums and the cumulative moments' terms
    # take blocks of the same size
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", block)
    monkeypatch.setattr(EVOLVE_MODULE, "SUM_BLOCK", block)
    p, t = WalkParams(0.3, 0.8), 3.0
    for L in sizes:
        R = EVOLVE_MODULE._rows(L)
        phase = EVOLVE_MODULE._phase_factors(p, t, L, R)
        whole = whole_ring_phase_factors(p, t, L)
        assert _same_bits(phase, whole.reshape(L // R, R).T.copy())
        wf = evolve(p, t, lattice=L)
        assert wf.origin == L // 2
        if R == 1:
            assert _same_bits(wf.amps, whole_ring_amplitudes(p, t, L))
        # the centred ring, and site 0 at the first index and at row R // 3
        # (R > 1) or a third of the ring
        for origin in dict.fromkeys([L // 2, 0, R // 3 * (L // R) if R > 1 else L // 3]):
            if origin != L // 2:
                amps = EVOLVE_MODULE._ring_transform(phase.copy(), origin)
                wf = WaveFunction(p, t, L, amps, origin)
                if R == 1:
                    assert _same_bits(amps, np.roll(np.fft.ifft(whole), origin))
            err = np.max(np.abs(wf.amps - direct_ring_amplitudes(whole, origin)))
            assert err <= AMPLITUDE_BOUND * np.max(np.abs(wf.amps)), (L, R, origin, err)
            assert _same_bits(current_density(wf).values, whole_ring_current(wf.amps, p.g, p.phi))
            prob = probability_density(wf)
            for k in range(6):  # k = 5 takes _int_power's n**k path
                terms = whole_ring_moment_terms(prob.values, k, origin)
                assert _same_bits(cumulative_moment(prob, k).values, np.cumsum(terms))
                assert _same_float(position_moment(prob, k), math.fsum(terms))


@pytest.mark.parametrize("block", [3, 8, 64])
def test_phase_factors_match_the_quartet_oracle(monkeypatch, block):
    # every even ring of 4..400 sites, L = 0 and 2 (mod 4), bit for bit in
    # its own row layout and in one row; the blocks give rings of R > 1 rows
    # with even M (the images at +-pi start on a row) and odd M (they
    # straddle rows), spans of one master (block 3) and ragged last spans;
    # block 64 keeps every ring in one row, in one or two spans of masters
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", block)
    p, t = WalkParams(0.3, 0.8), 3.0
    parities = set()  # of M on the rings of R > 1 rows
    for L in range(4, 401, 2):
        whole = whole_ring_phase_factors(p, t, L)
        R = EVOLVE_MODULE._rows(L)
        for r in {1, R}:
            assert _same_bits(EVOLVE_MODULE._phase_factors(p, t, L, r), whole.reshape(L // r, r).T.copy()), (L, r)
        if R > 1:
            parities.add(L // R % 2)
    assert parities == (set() if block == 64 else {0, 1}), parities  # block 64: one row up to L = 510


@pytest.mark.parametrize(
    "g, phi, t, L", [(0.3, 0.8, 1e6, 4096), (0.25, 0.0, 1e6, 4098), (1 / 8, PI / 2, 1e5, 405_000)]
)
def test_phase_factors_against_mpmath(g, phi, t, L):
    # the bound, fixed before measuring: 2 ulp(1) of (2 + 2g) t, the largest
    # phase; every frequency of the two small rings, 2 000 drawn ones of the
    # large one, against exp(-i w(2 pi k / L) t) at 40 digits
    p = WalkParams(g, phi)
    phase = EVOLVE_MODULE._phase_factors(p, t, L)[0]
    ks = range(L) if L < 10_000 else np.random.default_rng(49).choice(L, 2000, replace=False).tolist()
    with mp.workdps(40):
        error = 0.0
        for k in ks:
            q = 2 * mp.pi * k / L
            want = mp.expj(-(2 * mp.cos(q) + 2 * mp.mpf(g) * mp.cos(2 * q + mp.mpf(phi))) * mp.mpf(t))
            error = max(error, float(abs(mp.mpc(complex(phase[k])) - want)))
    assert error <= 2 * 2.0**-52 * (2 + 2 * g) * t, (g, phi, t, L, error)


def test_ring_rows():
    # the largest even divisor R >= ROW_BATCH of L with rows of at least
    # BLOCK sites, else 1: a single transform
    rows = EVOLVE_MODULE._rows
    sizes = (4, 2 * BLOCK - 2, 2 * BLOCK, 3 * BLOCK, 622080, 1866240, 6220800, MAX_LATTICE)
    assert [rows(L) for L in sizes] == [1, 1, 1, 1, 36, 108, 360, 2048]
    assert rows(ROW_BATCH * BLOCK) == ROW_BATCH and rows(ROW_BATCH * BLOCK - 2) == 1
    for L in (2 * BLOCK, ROW_BATCH * BLOCK, 622080, 1866240, 6220800, MAX_LATTICE, 2 * 3**12):
        R = rows(L)
        assert R == 1 or (R % 2 == 0 and R >= ROW_BATCH and L % R == 0 and L // R >= BLOCK), (L, R)


def _fsum_outcome(fn):
    try:
        return fn()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _same_outcome(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return (math.isnan(a) and math.isnan(b)) or _same_float(a, b)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_position_moment_edge_cases_match_fsum(monkeypatch):
    # blocks of 3 sites, so a non-finite term can sit blocks after the first
    monkeypatch.setattr(EVOLVE_MODULE, "SUM_BLOCK", 3)
    L = 12  # sites -6 .. 5

    def field(fill, spikes=()):
        values = np.full(L, fill)
        for index, value in spikes:
            values[index] = value
        return ObservableField(FieldKind.PROBABILITY, values, 1.0, WalkParams(0.3, 0.8), L, origin=L // 2)

    nan_last, inf_pair, big, zeros = (
        field(0.0625, [(11, np.nan)]),
        field(0.0625, [(0, np.inf), (11, -np.inf)]),
        field(1e308),  # sums beyond the float range
        field(0.0),
    )
    cases = [
        nan_last,
        field(0.0625, [(10, np.inf)]),
        field(0.0625, [(1, -np.inf)]),
        inf_pair,
        field(0.0625, [(2, np.inf), (9, -np.inf), (5, np.nan)]),
        big,
        zeros,
        field(-0.0),
    ]
    for f in cases:
        for k in range(6):
            want = _fsum_outcome(lambda: math.fsum(whole_ring_moment_terms(f.values, k)))
            got = _fsum_outcome(lambda: position_moment(f, k))
            assert _same_outcome(got, want), (f.values, k, got, want)
    # the outcomes the cases are there for
    assert _fsum_outcome(lambda: position_moment(inf_pair, 0)) is ValueError
    assert _fsum_outcome(lambda: position_moment(big, 0)) is OverflowError
    assert math.isnan(position_moment(nan_last, 2))
    # odd k: -0.0 terms at n < 0 and +0.0 at n >= 0 sum to +0.0
    assert _same_float(position_moment(zeros, 3), 0.0)
    # cumulative_moment's prefix sums are the whole ring's on a fresh field
    # and on one whose moments are summed, and position_moment then sums the
    # fresh field's terms as fsum does
    for f in cases:
        fresh = ObservableField(FieldKind.PROBABILITY, f.values.copy(), f.t, f.params, f.L, origin=f.origin)
        for k in (1, 2, 3):
            terms = whole_ring_moment_terms(f.values, k)
            for summed in (fresh, f):
                assert _same_bits(cumulative_moment(summed, k).values, np.cumsum(terms)), (f.values, k)
            want = _fsum_outcome(lambda: math.fsum(terms))
            assert _same_outcome(_fsum_outcome(lambda: position_moment(fresh, k)), want), (f.values, k)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("block", ["first", "middle", "last"])
def test_position_moment_nonfinite_cases_in_every_block(monkeypatch, block):
    # the extraction hands every term to fsum at the first block that holds
    # a non-finite term; each case is rotated by whole blocks of 3 sites so
    # that its first spike sits in the first, the middle or the last block
    monkeypatch.setattr(EVOLVE_MODULE, "SUM_BLOCK", 3)
    L = 15  # sites -7 .. 7, five blocks
    target = {"first": 0, "middle": 2, "last": 4}[block]

    def field(spikes):
        shift = 3 * (target - spikes[0][0] // 3)
        values = np.full(L, 0.0625)
        for index, value in spikes:
            values[(index + shift) % L] = value
        return ObservableField(FieldKind.PROBABILITY, values, 1.0, WalkParams(0.3, 0.8), L, origin=L // 2)

    spikes = [
        [(14, np.nan)],
        [(13, np.inf)],
        [(10, np.inf)],
        [(1, -np.inf)],
        [(0, np.inf), (14, -np.inf)],
        [(2, np.inf), (9, -np.inf), (5, np.nan)],
        [(4, np.nan), (7, np.inf)],
    ]
    for spike in spikes:
        f = field(spike)
        for k in range(6):
            want = _fsum_outcome(lambda: math.fsum(whole_ring_moment_terms(f.values, k)))
            got = _fsum_outcome(lambda: position_moment(f, k))
            assert _same_outcome(got, want), (spike, k, got, want)


def test_position_moments_from_two_threads_match_serial(monkeypatch):
    # two fields summed at once, one per thread, give the serial bits: the
    # exact sums' scratch arrays belong to one call
    monkeypatch.setattr(EVOLVE_MODULE, "SUM_BLOCK", 64)
    fields = [probability_density(evolve(WalkParams(0.3, 0.8), t)) for t in (300.0, 500.0)]

    def fresh(f):
        return ObservableField(FieldKind.PROBABILITY, f.values.copy(), f.t, f.params, f.L, origin=f.origin)

    want = [[position_moment(fresh(f), k) for k in range(6)] for f in fields]
    for _ in range(5):
        copies = [fresh(f) for f in fields]
        got = [None, None]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            got[i] = [position_moment(copies[i], k) for k in range(6)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for mu, ref in zip(got, want):
            assert all(_same_float(a, b) for a, b in zip(mu, ref))


def test_position_moment_is_fsum_of_terms():
    prob = probability_density(evolve(WalkParams(0.3, 0.8), 60.0))
    for k in range(6):
        terms = np.array([float(n**k) for n in prob.sites.tolist()]) * prob.values
        assert _same_float(position_moment(prob, k), math.fsum(terms))


def test_int_power_correctly_rounded():
    rng = np.random.default_rng(8)
    top = 2**24
    n = np.concatenate([[0, 1, -1, top, -top, top - 1, 1 - top], rng.integers(-top, top + 1, 5000)])
    for k in range(5):
        want = np.array([float(int(v) ** k) for v in n])
        assert np.array_equal(_int_power(n.astype(float), k), want)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_current_nonfinite_raises_guard():
    wf = evolve(WalkParams(0.2, 0.4), 10.0)
    for bad in (np.nan, np.inf):
        amps = wf.amps.copy()
        amps[wf.origin + 3] = bad
        with pytest.raises(GuardError):
            current_density(WaveFunction(wf.params, wf.t, wf.L, amps, wf.origin))


@pytest.mark.parametrize("block, L", [(7, 72), (8, 256), (20, 168), (20, 486), (64, 100)])
def test_same_bits_for_any_worker_count(monkeypatch, block, L):
    # ragged last spans in the site kernels (all but L = 256), R = ROW_BATCH
    # in one row span, so more workers than spans (L = 72 and 168), whole
    # row batches (R = 32 at L = 256) and a ragged one (R = 18 at L = 486),
    # a ragged last chunk of columns (L = 168), fftfreq's negative half on
    # a chunk edge (L = 256) and inside one (elsewhere), and the single
    # transform (L = 100, block 64), on a centred ring and with site 0 off
    # the centre.  The exact sums and the cumulative moments' terms take
    # 15 spans with a ragged last one (L = 72), 16 whole ones (L = 256), 10
    # with a ragged last one (L = 486), and fewer spans than three workers:
    # two (L = 168) and one (L = 100)
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", block)
    monkeypatch.setattr(EVOLVE_MODULE, "SUM_BLOCK", {72: 5, 256: 16, 168: 100, 486: 50, 100: 128}[L])
    monkeypatch.setattr(EVOLVE_MODULE, "THREAD_SITES", 0)
    p, t = WalkParams(0.3, 0.8), 3.0
    R = EVOLVE_MODULE._rows(L)
    # site 0 off the centre: row R // 3 (R > 1), or a third of the ring
    origin = R // 3 * (L // R) if R > 1 else L // 3
    assert origin != L // 2

    def outputs():
        phase = EVOLVE_MODULE._phase_factors(p, t, L, R)
        centred = evolve(p, t, lattice=L)
        wf = WaveFunction(p, t, L, EVOLVE_MODULE._ring_transform(phase.copy(), origin), origin)
        prob = probability_density(wf)
        fields = [phase, centred.amps, wf.amps, prob.values, current_density(wf).values]
        fields += [cumulative_moment(prob, k).values for k in range(6)]
        return fields, [position_moment(prob, k) for k in range(6)]

    monkeypatch.setattr(EVOLVE_MODULE, "WORKERS", 1)
    want_fields, want_mu = outputs()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over often, so the runs interleave
    try:
        for workers in (2, 3):
            monkeypatch.setattr(EVOLVE_MODULE, "WORKERS", workers)
            fields, mu = outputs()
            assert all(_same_bits(a, b) for a, b in zip(fields, want_fields)), workers
            assert all(_same_float(a, b) for a, b in zip(mu, want_mu)), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_current_guard_from_a_worker_thread(monkeypatch):
    monkeypatch.setattr(EVOLVE_MODULE, "BLOCK", 16)
    monkeypatch.setattr(EVOLVE_MODULE, "THREAD_SITES", 0)
    monkeypatch.setattr(EVOLVE_MODULE, "WORKERS", 3)
    wf = evolve(WalkParams(0.2, 0.4), 10.0)
    good = current_density(wf).values
    spans = list(EVOLVE_MODULE._blocks(wf.L))
    last = spans[len(spans) * 2 // 3][0]  # first site of the last worker's run
    assert 0 < last < wf.L - 2
    threads = threading.active_count()
    for bad in (np.nan, np.inf):
        amps = wf.amps.copy()
        amps[last] = bad
        with pytest.raises(GuardError):
            current_density(WaveFunction(wf.params, wf.t, wf.L, amps, wf.origin))
        assert threading.active_count() == threads
        assert _same_bits(current_density(wf).values, good)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("workers", [2, 3])
def test_exact_sum_fallbacks_from_a_worker_run(monkeypatch, workers):
    # a term that sends every term to math.fsum, or leaves a zero sum, sits
    # in the last worker's run; the threaded sum gives the serial outcome
    monkeypatch.setattr(EVOLVE_MODULE, "SUM_BLOCK", 4)
    monkeypatch.setattr(EVOLVE_MODULE, "THREAD_SITES", 0)
    L = 40  # sites -20 .. 19, ten spans of 4
    spans = list(EVOLVE_MODULE._blocks(L, 4))
    last = spans[len(spans) * (workers - 1) // workers][0]  # first site of the last worker's run
    assert 0 < last < L - 4

    def field(fill, spikes):
        values = np.full(L, fill)
        for index, value in spikes:
            values[index] = value
        return ObservableField(FieldKind.PROBABILITY, values, 1.0, WalkParams(0.3, 0.8), L, origin=L // 2)

    # 1.5 2^1018 gives a block the overflow bound 4 2^1019 = 2^1022 / 2: one
    # such block in the first run and one in the last run pass each run's
    # bound and reach 2^1022 only together
    half = 1.5 * 2.0**1018
    cases = [
        field(0.0625, [(last + 1, np.nan)]),
        field(0.0625, [(last + 1, np.inf)]),
        field(0.0625, [(last + 1, 2.0**1021)]),  # near 2^1022, a finite sum
        field(0.0625, [(1, half), (last + 1, half)]),
        field(0.0625, [(last + 1, 1e308), (last + 2, 1e308)]),  # sums beyond the float range
        field(-0.0, []),
        field(0.0, [(index, -0.0) for index in range(last, L)]),
    ]
    threads = threading.active_count()
    for f in cases:
        for k in range(6):
            fresh = [
                ObservableField(FieldKind.PROBABILITY, f.values.copy(), f.t, f.params, f.L, origin=f.origin)
                for _ in range(2)
            ]
            monkeypatch.setattr(EVOLVE_MODULE, "WORKERS", 1)
            want = _fsum_outcome(lambda: position_moment(fresh[0], k))
            monkeypatch.setattr(EVOLVE_MODULE, "WORKERS", workers)
            got = _fsum_outcome(lambda: position_moment(fresh[1], k))
            assert _same_outcome(got, want), (f.values, k, got, want)
            assert _same_outcome(want, _fsum_outcome(lambda: math.fsum(whole_ring_moment_terms(f.values, k))))
            assert threading.active_count() == threads
    # the outcomes the cases are there for
    assert math.isnan(position_moment(cases[0], 0))
    assert position_moment(cases[1], 0) == math.inf
    assert position_moment(cases[2], 0) == math.fsum(cases[2].values)
    assert position_moment(cases[3], 0) == math.fsum(cases[3].values)
    assert _fsum_outcome(lambda: position_moment(cases[4], 0)) is OverflowError
    assert _same_float(position_moment(cases[5], 0), math.fsum([-0.0]))
    assert _same_float(position_moment(cases[6], 0), 0.0)


def test_threads_only_on_large_rings(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert EVOLVE_MODULE.WORKERS == len(os.sched_getaffinity(0))
    threshold = EVOLVE_MODULE.THREAD_SITES
    assert threshold == 2**18
    # two workers whatever the affinity, so only the ring-size gate can
    # keep a kernel in the caller's thread
    monkeypatch.setattr(EVOLVE_MODULE, "WORKERS", 2)
    seen = {}
    spread = EVOLVE_MODULE.map_runs

    def observed(kernel, spans, runs):
        def run(part):
            seen.setdefault(kernel.__name__, set()).add(threading.active_count())
            return kernel(part)

        return spread(run, spans, runs)

    monkeypatch.setattr(EVOLVE_MODULE, "map_runs", observed)
    p, before = WalkParams(0.3, 0.8), threading.active_count()

    def kernels(L):
        seen.clear()
        wf = evolve(p, 3.0, lattice=L)
        prob = probability_density(wf)
        current_density(wf)
        cumulative_moment(prob, 2)
        position_moment(prob, 4)
        return seen

    names = {"fill", "rows", "columns", "square", "bonds", "build", "extract"}
    # above the largest edge ring at t = 1e4, 46 080 sites; one transform
    assert kernels(64000) == {name: {before} for name in names - {"rows", "columns"}}
    assert kernels(threshold - 2 * BLOCK) == {name: {before} for name in names}
    assert {name: max(counts) > before for name, counts in kernels(threshold).items()} == dict.fromkeys(names, True)
    assert threading.active_count() == before


def test_import_loads_no_concurrent_futures():
    code = "import sys, chiralwalk; print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
    src = str(Path(EVOLVE_MODULE.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "g, phi, t",
    [(0.3, 0.8, 1e3), (0.3, 0.8, 1e4), (0.3019950050955578, 0.816788729639178, 3e5), (0.25, 0.0, 1e4)],
)
def test_auto_lattice_clears_tail_guard(g, phi, t):
    # points where a t^(1/3) Airy margin left under ~9.7 edge scales
    wf = evolve(WalkParams(g, phi), t)
    edge = max(np.max(np.abs(wf.amps[:10])), np.max(np.abs(wf.amps[-10:])))
    assert edge < 1e-12


def test_auto_lattice_sizes():
    # (L, origin): each side sized for its own outermost front, v_lm = -2.26
    # and v_rm = 3.10 at (0.3, 0.8); origin a multiple of the row length
    p = WalkParams(0.3, 0.8)
    assert [ring_layout(p, t) for t in (1e5, 3e5, 1e6)] == [
        (552960, 241920), (1638400, 688128), (5400000, 2278125)
    ]
    assert ring_layout(WalkParams(0.25, PI / 2), 2000.0) == (9600, 3278)
    # a ring of fewer than ROW_BATCH rows is one transform, so site 0 may
    # sit at any index; a given lattice is centred
    assert ring_layout(p, 1e4) == (55296, 23453)
    assert evolve(p, 10.0, lattice=400).origin == 200


def test_next_fast_even_is_the_smallest_even_5_smooth():
    def smooth(n):
        for prime in (2, 3, 5):
            while n % prime == 0:
                n //= prime
        return n == 1

    def search(n):
        n = max(2, n)
        while n % 2 or not smooth(n):
            n += 1
        return n

    # the power of two in [n, 2n) is one, so the lengths up to 2n hold the answer
    for n in [*range(-3, 3000), 536000, 5359216, MAX_LATTICE - 5, MAX_LATTICE]:
        assert _fast_even_lengths(max(2, n), 2 * max(2, n))[0] == search(n), n


def _layout_outcome(layout, *args):
    try:
        return layout(*args)
    except (GuardError, ValueError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1 / 16, 1 / 8, 1 / 4])),
    st.one_of(st.floats(0.0, PI / 2), st.sampled_from([0.0, PI / 2])),
    st.one_of(st.floats(0.0, 1e7), st.sampled_from([0.0, 1e4, 1e6, 3e6, 1e300])),
    st.integers(0, 200_000),
)
def test_ring_layout_matches_stepped_search(g, phi, t, reach):
    # every input, the cap's GuardError included, gives the outcome of the
    # search that looks up one next-larger length per rejected length: the
    # whole ring of ring_layout, and the whole ring that holds the sites
    # (-reach, reach)
    p = WalkParams(g, phi)
    assert _layout_outcome(ring_layout, p, t) == _layout_outcome(stepped_ring_layout, p, t), (g, phi, t)
    got = _layout_outcome(EVOLVE_MODULE._whole_ring, p, t, (-reach, reach))
    assert got == _layout_outcome(stepped_ring_layout, p, t, (-reach, reach)), (g, phi, t, reach)


def _both_rings_layout(p, t, sites):
    """(L, origin) from laying out the windowed and the whole ring, and keeping the shorter."""
    window = EVOLVE_MODULE._window_ring(p, t, *sites) if t > 0 else None
    try:
        whole = EVOLVE_MODULE._whole_ring(p, t, sites)
    except GuardError:
        if window is None:
            raise
        whole = None
        EVOLVE_MODULE._check_cap(window[1] - window[0] + 2)
    if window is not None and window[1] - window[0] + 2 <= MAX_LATTICE:
        first, span = math.floor(window[0]), math.ceil(window[1]) - math.floor(window[0])
        L = _fast_even_lengths(span, 2 * span)[0]
        if whole is None or L < whole[0]:
            return L, (L - span) // 2 - first
    return whole


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1 / 16, 1 / 8, 1 / 4])),
    st.one_of(st.floats(0.0, PI / 2), st.sampled_from([0.0, PI / 2])),
    st.one_of(st.floats(0.0, 1e9), st.sampled_from([0.0, 1e2, 1e4, 1e8, 1e12, 1e300])),
    st.floats(0.0, 1.0),
    st.one_of(st.integers(0, 300), st.integers(0, 10**7)),
)
def test_ring_layout_keeps_the_shorter_of_both_rings(g, phi, t, share, half):
    # windows across the cone and past its fronts, up to rings above the
    # cap: the layout that skips the whole ring's search below left + right
    # is the one from laying out both rings, the cap's GuardError included
    p = WalkParams(g, phi)
    d = cone_topology(p)
    n = round(((d.v_lm - 0.05) + share * (d.v_rm - d.v_lm + 0.1)) * t)
    sites = (n - half, n + half)
    got = _layout_outcome(ring_layout, p, t, sites)
    assert got == _layout_outcome(_both_rings_layout, p, t, sites), (g, phi, t, sites)


def test_chiral_ring_holds_the_cone():
    # random couplings, phases and times up to 3e4: the ring ends are clear
    # of the Airy tails and the whole cone [v_lm t, v_rm t] is on the ring
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = WalkParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, PI / 2))
        t = 10.0 ** rng.uniform(0.0, math.log10(3e4))
        wf = evolve(p, t)
        d = cone_topology(p)
        edge = max(np.max(np.abs(wf.amps[:GUARD_SITES])), np.max(np.abs(wf.amps[-GUARD_SITES:])))
        assert edge < 1e-12, (p, t, edge)
        assert -wf.origin <= d.v_lm * t and d.v_rm * t <= wf.L - 1 - wf.origin, (p, t)
        R = EVOLVE_MODULE._rows(wf.L)
        assert R == 1 or wf.origin % (wf.L // R) == 0


def _check_single_transform_ring(p, t, sites):
    """A whole ring under ROW_BATCH BLOCK sites: the first length that holds both sides, site 0 between them."""
    L, origin = EVOLVE_MODULE._whole_ring(p, t, sites)
    left, right = (math.ceil(side) for side in ring_sides(p, t, sites))
    assert L < ROW_BATCH * BLOCK and EVOLVE_MODULE._rows(L) == 1
    assert L == _fast_even_lengths(left + right, 2 * (left + right))[0], (p, t, sites, L)
    assert left <= origin <= L - right, (p, t, sites, L, origin)
    return L


# the published staircase rows at t = 1e4: (g, front, xi_max), phi = pi/2
EDGE_ROWS = [(1 / 16, "left", 10.5), (1 / 8, "left", 13.5), (1 / 8, "right", 10.5),
             (1 / 4, "left", 10.5), (1 / 4, "internal", 10.5)]


def test_edge_rings_are_the_shortest_lengths():
    # below ROW_BATCH BLOCK sites every candidate length is a single
    # transform, so site 0 may sit anywhere and the first length fits
    sizes = []
    for g, which, xi_max in EDGE_ROWS:
        p = WalkParams(g, PI / 2)
        front = _select_front(cone_topology(p), which)
        window, n_e = int(math.ceil(xi_max * edge_scale(front, 1e4))), round(front.velocity * 1e4)
        sizes.append(_check_single_transform_ring(p, 1e4, (n_e - window, n_e + window)))
    assert sizes == [40960, 40960, 40960, 46080, 46080]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, PI / 2),
    st.integers(2 * BLOCK, ROW_BATCH * BLOCK - 1),
    st.integers(0, 2000),
)
def test_rings_below_a_row_batch_are_the_shortest_lengths(g, phi, sites, reach):
    # times that put the cone's width at 2 to ROW_BATCH blocks of sites
    p = WalkParams(g, phi)
    d = cone_topology(p)
    t = sites / (d.v_rm - d.v_lm)
    assume(EVOLVE_MODULE._whole_ring(p, t, (-reach, reach))[0] < ROW_BATCH * BLOCK)
    assert _check_single_transform_ring(p, t, (-reach, reach)) >= 2 * BLOCK


# bound on |mu_k(chiral ring) - mu_k(centred ring)| in units of
# sum_n |n|^k p(n), fixed before any measurement
RING_MOMENT_BOUND = 1e-12


@pytest.mark.parametrize(
    "g, phi, t", [(0.3, 0.8, 3e4), (0.2, 1.2, 2e4), (1 / 16, PI / 2, 2000.0), (0.25, 0.3, 5e3)]
)
def test_moments_on_chiral_ring_match_centred_ring(g, phi, t):
    # a four-step ring (R = 10 at t = 3e4) and single transforms (R = 1)
    p = WalkParams(g, phi)
    chiral = probability_density(evolve(p, t))
    assert chiral.origin != chiral.L // 2
    half = max(chiral.origin, chiral.L - chiral.origin)
    centred = probability_density(evolve(p, t, lattice=_fast_even_lengths(2 * half, 4 * half)[0]))
    for k in range(5):
        scale = math.fsum(np.abs(whole_ring_moment_terms(chiral.values, k, chiral.origin)))
        diff = abs(position_moment(chiral, k) - position_moment(centred, k))
        assert diff <= RING_MOMENT_BOUND * scale, (k, diff / scale)
