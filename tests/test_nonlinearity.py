"""Nonlinearity families: potential against a line-integral quadrature
oracle, admissible structure-constant ranges, and the structure inequality.

The families implement f only; the program takes int F as
Re int f(u) conj(u) / (p+1) (`functionals.potential_integrals`). The
closed forms of F are the oracle `ref_F` (`oracles.py`)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgflrw import (GaugeInvariantPower, Grid, RealAbsPower,
                    admissible_eps_range, sobolev_admissible)
from kgflrw.errors import ComplexInputToRealNonlinearity
from kgflrw.functionals import potential_integrals
from oracles import potential_oracle, ref_F, same_bits


# a grid of volume 1 (8 cells of width 1/8): its uniform measure is the
# cell's value
UNIT_BOX = Grid(n=1, points_per_axis=8, half_width=0.5)


def program_F(nl, u) -> float:
    """int F of the uniform state u on UNIT_BOX: the potential of u as the
    program computes it, Re(conj(u) f_scalar(u)) / (p+1)."""
    return potential_integrals(u, nl.f_scalar(u), UNIT_BOX, nl)[0]


def test_potential_gauge_against_quadrature():
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    for u in (0.5, -2.0, 3.0, 1.0 + 1.0j, -0.3 + 2.1j):
        for F in (float(ref_F(nl, np.complex128(u))), program_F(nl, u)):
            assert F == pytest.approx(potential_oracle(nl, u), rel=1e-10)
    # frozen spot value: p = 2, lam = 1 gives F(3) = 27/3 = 9
    for F in (float(ref_F(nl, np.complex128(3.0))), program_F(nl, 3.0)):
        assert F == pytest.approx(9.0, rel=1e-14)


def test_potential_real_against_quadrature():
    nl = RealAbsPower(p=2.0, sign=1)
    for u in (0.5, 1.0, -2.0, 3.0):
        for F in (float(ref_F(nl, u)), program_F(nl, u)):
            assert F == pytest.approx(potential_oracle(nl, u), rel=1e-10)
    # frozen spot value: the odd potential at u = -2 is -8/3
    for F in (float(ref_F(nl, -2.0)), program_F(nl, -2.0)):
        assert F == pytest.approx(-8.0 / 3.0, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.2, 3.0), lam=st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-3),
       mag=st.floats(0.1, 5.0), phase=st.floats(0.0, 2 * math.pi))
def test_potential_quadrature_property(p, lam, mag, phase):
    nl = GaugeInvariantPower(p=p, lam=lam, eps=p - 1.0)
    u = mag * complex(math.cos(phase), math.sin(phase))
    for F in (float(ref_F(nl, np.complex128(u))), program_F(nl, u)):
        assert F == pytest.approx(potential_oracle(nl, u), rel=1e-8,
                                  abs=1e-12)


def test_eps_ranges():
    focusing = GaugeInvariantPower(p=3.0, lam=2.0)
    r = admissible_eps_range(focusing)
    assert (r.lo, r.hi, r.lo_closed, r.hi_closed) == (0.0, 2.0, False, True)
    defocusing = GaugeInvariantPower(p=3.0, lam=-1.0, eps=5.0)
    r = admissible_eps_range(defocusing)
    assert (r.lo, r.hi, r.lo_closed, r.hi_closed) == (2.0, math.inf, True, False)
    real = RealAbsPower(p=2.0)
    r = admissible_eps_range(real)
    assert (r.lo, r.hi) == (1.0, 1.0)
    assert r.contains(1.0) and not r.contains(1.1)


def test_eps_defaults_to_p_minus_one():
    assert GaugeInvariantPower(p=2.5).eps == 1.5
    assert RealAbsPower(p=3.0).eps == 2.0


def test_eps_out_of_range_rejected():
    with pytest.raises(ValueError):
        GaugeInvariantPower(p=2.0, lam=1.0, eps=2.0)   # above p-1, focusing
    with pytest.raises(ValueError):
        GaugeInvariantPower(p=2.0, lam=-1.0, eps=0.5)  # below p-1, defocusing
    with pytest.raises(ValueError):
        RealAbsPower(p=2.0, eps=1.5)                   # pinned at p-1
    with pytest.raises(ValueError):
        GaugeInvariantPower(p=0.9)
    with pytest.raises(ValueError):
        GaugeInvariantPower(p=2.0, lam=0.0)
    with pytest.raises(ValueError):
        RealAbsPower(p=2.0, sign=2)


def assert_structure(nl, seed, n_samples=10_000):
    """Re(f(u) conj u) >= (2+eps) F(u) within 1e-12 relative on a seeded
    cloud with |u| in [1e-3, 1e3], and the chain rule d/dt F(u(t)) =
    Re(f(u) conj u'(t)) by central differences along 8 random paths."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-3, 3, size=n_samples)
    if nl.real_only:
        u = mag * rng.choice([-1.0, 1.0], size=n_samples)
    else:
        u = mag * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n_samples))
    lhs, rhs = np.real(nl.f(u) * np.conj(u)), (2.0 + nl.eps) * ref_F(nl, u)
    assert np.all(rhs - lhs <= 1e-12 * (np.abs(lhs) + np.abs(rhs) + 1e-300))
    for _ in range(8):
        z = rng.normal(size=3)
        if not nl.real_only:
            z = z + 1j * rng.normal(size=3)
        z0, z1, z2 = z * rng.choice([0.1, 1.0, 10.0])
        w = rng.uniform(0.5, 2.0)
        for t in rng.uniform(0.0, 3.0, size=16):
            u_at = [z0 + z1 * np.sin(w * s) + z2 * np.cos(w * s)
                    for s in (t - 1e-6, t, t + 1e-6)]
            fd = (ref_F(nl, u_at[2]) - ref_F(nl, u_at[0])) / 2e-6
            exact = np.real(nl.f(u_at[1]) * np.conj(
                w * (z1 * np.cos(w * t) - z2 * np.sin(w * t))))
            assert abs(fd - exact) <= 1e-6 * (
                abs(exact) + abs(ref_F(nl, u_at[1])) + 1.0)


def test_structure_inequality_sampled():
    for nl in (GaugeInvariantPower(p=2.0, lam=1.0),
               GaugeInvariantPower(p=3.0, lam=1.0, eps=1.0),
               GaugeInvariantPower(p=2.0, lam=-1.5, eps=3.0),
               RealAbsPower(p=2.0, sign=1),
               RealAbsPower(p=2.0, sign=-1)):
        assert_structure(nl, seed=7)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.1, 3.5), frac=st.floats(0.05, 1.0))
def test_structure_inequality_property(p, frac):
    # focusing family: any eps in (0, p-1] keeps the inequality
    assert_structure(GaugeInvariantPower(p=p, lam=1.0, eps=frac * (p - 1.0)),
                     seed=3, n_samples=2000)


def test_gauge_equivariance():
    nl = GaugeInvariantPower(p=2.3, lam=1.7)
    u = np.array([0.4 + 0.9j, -1.2 + 0.1j])
    phase = np.exp(0.77j)
    assert np.allclose(nl.f(phase * u), phase * nl.f(u), rtol=1e-14)


_PARTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-12, max_value=1e-12),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 2e-13, 1.0, 1e3, 1e300]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True)
                | st.builds(complex, _PARTS, _PARTS), max_size=6))
def test_real_family_rejects_complex(values):
    """The real family takes real data only: f of any complex array (empty,
    or all of zero imaginary part, included, in place or not) and f_scalar
    of any complex scalar raise, whatever the imaginary part."""
    nl = RealAbsPower(p=2.0)
    arr = np.array(values, dtype=np.complex128)
    with np.errstate(all="ignore"):  # complex64 overflows to inf
        narrow = arr.astype(np.complex64)
    cases = [(nl.f, (arr,)), (nl.f, (arr, np.empty(arr.shape))),
             (nl.f, (narrow,))]
    cases += [(nl.f_scalar, (x,)) for x in [*values, *narrow]]
    for call, args in cases:
        with pytest.raises(ComplexInputToRealNonlinearity):
            call(*args)


# the family whose scalar f takes f(u, out=...)'s operations, gauge p = 2,
# at lam +-1; a coupling other than +-1 rounds, so the order of its products
# shows
SCALAR_FAMILIES = [GaugeInvariantPower(p=2.0, lam=lam)
                   for lam in (1.0, -1.0, 0.3, -2.5)]
_SMALLEST_NORMAL = 2.2250738585072014e-308
_SCALAR_INPUTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _SMALLEST_NORMAL, 1e300,
                     -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL),  # subnormals
    st.floats(-1e3, 1e3),
    st.floats(1e150, 1.8e308) | st.floats(-1.8e308, -1e150),  # f overflows
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SCALAR_FAMILIES), _SCALAR_INPUTS)
def test_scalar_f_matches_one_cell_f_bitwise(nl, u):
    """At gauge p = 2, f_scalar of a float gives the bits of f on a
    one-cell float64 array, the signs of zeros included (a NaN matches a
    NaN); it never raises, also where numpy's f overflows to inf."""
    cell, out = np.array([u]), np.empty(1)
    with np.errstate(all="ignore"):
        want = nl.f(cell, out=out).item(0)
    assert nl.f_scalar(u).hex() == want.hex()


_HUGE = 1.7976931348623157e308
# where every power |u|^(p-1) and |u|^(p+1) of p >= 2 overflows (or is
# exact: inf, nan, +-0), so libm's pow and numpy's power agree; Python's
# abs of 1e308 + 1e308j and its ** past 1e308 raise OverflowError
_PAST_OVERFLOW_REAL = [1e300, -1e300, _HUGE, -_HUGE, math.inf, -math.inf,
                       math.nan, 0.0, -0.0]
_PAST_OVERFLOW_COMPLEX = [complex(1e300, 1e300), complex(-1e300, 0.0),
                          complex(0.0, -1e300), complex(1e308, 1e308),
                          complex(-_HUGE, -_HUGE), complex(math.inf, 0.0),
                          complex(math.nan, 0.0), complex(0.0, math.nan),
                          complex(0.0, 0.0), complex(-0.0, -0.0),
                          complex(-0.0, 0.0)]


@pytest.mark.parametrize("nl, complex_data", [
    (GaugeInvariantPower(p=2.0), False), (GaugeInvariantPower(p=3.0), False),
    (GaugeInvariantPower(p=2.5, lam=-1.0, eps=1.5), False),
    (RealAbsPower(p=2.0), False), (RealAbsPower(p=3.0, sign=-1), False),
    (GaugeInvariantPower(p=2.0, lam=-1.0, eps=1.5), True),
    (GaugeInvariantPower(p=3.0), True), (GaugeInvariantPower(p=2.5), True),
], ids=["gauge-p2", "gauge-p3", "gauge-p2.5", "real-p2", "real-p3",
        "complex-p2", "complex-p3", "complex-p2.5"])
def test_scalar_f_and_F_match_one_cell_past_overflow(nl, complex_data):
    """f_scalar past the overflow point, at NaN and at signed zeros never
    raises and gives the array f's value on one cell, as the stencil kernel
    calls it (in place on float64). The uniform measure, which takes f from
    f_scalar, never raises either: its Re int f(u) conj(u) is Re(conj(u)
    f(u)) of that value in Python's complex arithmetic, started from +0.0
    as a BLAS dot is, times the box volume, and its int F is that over
    p + 1, signs of zeros and infinities included."""
    values = _PAST_OVERFLOW_COMPLEX if complex_data else _PAST_OVERFLOW_REAL
    for u in values:
        cell = np.array([u])
        out = {} if complex_data else {"out": np.empty(1)}
        with np.errstate(all="ignore"):
            f_want = nl.f(cell, **out).item(0)
        assert same_bits(nl.f_scalar(u), f_want), u
        re_fu = 0.0 + (complex(u).conjugate() * f_want).real
        re_fu *= UNIT_BOX.volume
        F, got_re_fu = potential_integrals(u, nl.f_scalar(u), UNIT_BOX, nl)
        assert same_bits(got_re_fu, re_fu), u
        assert same_bits(F, re_fu / (nl.p + 1.0)), u


def power_path_f(nl, u):
    """f(u, out=...)'s operations with the power |u| ** (p - 1) taken."""
    out = np.empty_like(u)
    mag = np.abs(u, out=None if u.dtype.kind == "c" else out)
    mag **= nl.p - 1.0
    np.multiply(nl.lam, mag, out=mag)
    return np.multiply(mag, u, out=out)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SCALAR_FAMILIES), st.booleans(),
       st.lists(st.tuples(_SCALAR_INPUTS, _SCALAR_INPUTS), min_size=1,
                max_size=8))
def test_gauge_p_2_in_place_f_matches_power_path_bitwise(nl, real, pairs):
    """At p = 2, f(u, out=...) skips the power |u| ** 1.0 and still gives
    the bits of its operations with the power taken, and those of f(u), on
    float64 and complex128 arrays: signs of zeros, subnormals, infinities
    and NaNs included."""
    u = np.array([x if real else complex(x, y) for x, y in pairs])
    with np.errstate(all="ignore"):
        got = nl.f(u, out=np.empty_like(u))
        want = [power_path_f(nl, u), nl.f(u)]
    for x in want:
        assert np.array_equal(got.view(np.uint64), x.view(np.uint64))


_ZEROS_AND_SUBNORMALS = [0.0, -0.0, 5e-324, -5e-324, _SMALLEST_NORMAL,
                         -_SMALLEST_NORMAL]


@pytest.mark.parametrize("nl", SCALAR_FAMILIES + [
    GaugeInvariantPower(p=3.0), GaugeInvariantPower(p=2.5, lam=-1.0, eps=1.5)])
def test_complex_in_place_f_matches_f_bitwise(nl):
    """On complex128 arrays of 1 to 40 equal cells, each part a signed zero,
    a subnormal or the smallest normal, f(u, out=...) gives the bits of
    f(u): out is written by the last product only, never read as one of
    its operands (an out that was also an operand gave 0 - 5e-324j a zero
    of the other sign)."""
    for size in range(1, 41):
        for re in _ZEROS_AND_SUBNORMALS:
            for im in _ZEROS_AND_SUBNORMALS:
                u = np.full(size, complex(re, im))
                got = nl.f(u, out=np.empty_like(u))
                assert np.array_equal(got.view(np.uint64),
                                      nl.f(u).view(np.uint64)), (size, re, im)


def test_complex_lambda_is_rejected():
    """A complex coupling has no potential, so the family refuses it."""
    with pytest.raises(ValueError, match="lam must be real"):
        GaugeInvariantPower(p=2.0, lam=1.0 + 0.5j)


def test_sobolev_window():
    assert sobolev_admissible(2.0, 1)
    assert sobolev_admissible(10.0, 2)
    assert sobolev_admissible(2.0, 3)      # below 1 + 2/(n-2) = 3
    assert not sobolev_admissible(3.0, 3)  # the endpoint is excluded
    assert not sobolev_admissible(0.9, 1)
