"""Background geometry: closed forms, derivative consistency, horizons,
expansion-rate thresholds, and the monotone-plus-curvature gate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgflrw import (DeSitter, Grid, PhysicalParams, PowerLaw, Start,
                    Tabulated, c_epsilon, check_monotone_expansion, evaluate,
                    make_profile, min_admissible_t0, t0_condition_threshold)
from kgflrw.errors import (NegativeTime, NoAdmissibleT0, TimeBeyondHorizon)
from oracles import desitter_oracle

# frozen references
GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0  # c_epsilon at m = c = eps = 1


def fd_check(sf, t, dt=1e-4):
    """Central-difference consistency of (a, adot, addot)."""
    a_m, _, _ = sf.eval(t - dt)
    a_0, ad, add = sf.eval(t)
    a_p, _, _ = sf.eval(t + dt)
    ad_fd = (a_p - a_m) / (2 * dt)
    add_fd = (a_p - 2 * a_0 + a_m) / (dt * dt)
    assert ad == pytest.approx(ad_fd, rel=1e-7, abs=1e-7)
    assert add == pytest.approx(add_fd, rel=1e-5, abs=1e-5)


def t0_report(sf, t0, m, c, eps):
    """`evaluate`'s report on unit data at t0 on sf: thm2.rate0 is
    adot(t0)/a(t0) and thm2's t0_condition the start-time condition."""
    grid = Grid(n=sf.n, points_per_axis=8, half_width=1.0)
    one, zero = (make_profile(grid, "homogeneous", x) for x in (1.0, 0.0))
    return evaluate(Start(one, zero, None).rec, t0, sf,
                    PhysicalParams(m=m, c=c, eps=eps, n=sf.n))


def test_powerlaw_closed_form():
    sf = PowerLaw(a0=2.0, H=0.7, sigma=1.0, n=3)
    expo = 2.0 / (3 * 2.0)
    for t in (0.0, 0.3, 1.7):
        base = 1.0 + 3 * 2.0 * 0.7 * t / 2.0
        a, ad, _ = sf.eval(t)
        assert a == pytest.approx(2.0 * base ** expo, rel=1e-14)
    fd_check(sf, 0.9)
    assert t0_report(sf, 0.0, 1.0, 1.0, 1.0).thm2.rate0 == pytest.approx(
        0.7, rel=1e-14)


def test_powerlaw_minkowski_is_static():
    sf = PowerLaw(a0=1.0, H=0.0, sigma=0.0, n=1)
    a, ad, add = sf.eval(1.23)
    assert (a, ad, add) == (1.0, 0.0, 0.0)
    assert sf.horizon() == math.inf


def test_desitter_exact_exponential():
    sf = DeSitter(a0=1.5, H=0.4, n=2)
    for t in (0.0, 0.8, 2.0):
        a, ad, add = sf.eval(t)
        assert a == pytest.approx(1.5 * math.exp(0.4 * t), rel=1e-15)
        assert ad == pytest.approx(0.4 * a, rel=1e-15)
        assert add == pytest.approx(0.16 * a, rel=1e-15)
    fd_check(sf, 1.1)


def test_desitter_is_the_sigma_minus_one_power_law():
    assert DeSitter(0.5) == PowerLaw(-1.0, 0.5)
    assert DeSitter(H=0.3, a0=2.0, n=3) == PowerLaw(-1.0, 0.3, 2.0, 3)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.5, 10.0), st.integers(1, 3),
       st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))
def test_desitter_matches_closed_form_oracle_bitwise(H, a0, n, ts):
    """DeSitter(H, a0, n), the sigma = -1 power law, gives the closed form's
    bits at a scalar t and at an array of t."""
    sf = DeSitter(H, a0, n)
    for t in ts:
        got = sf.eval(t)
        want = tuple(float(x) for x in desitter_oracle(H, a0, t))
        assert all(type(x) is float for x in got)
        assert np.array_equal(np.array(got).view(np.int64),
                              np.array(want).view(np.int64))
    got = sf.eval(np.array(ts))
    for g, w in zip(got, desitter_oracle(H, a0, np.array(ts))):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_desitter_curvature_identity_machine_zero():
    # adot^2 - addot*a vanishes identically for the exponential background;
    # numerically it survives to a few ulps of the products
    eps_m = np.finfo(float).eps
    for H in (0.0, 0.3, 1.0, 2.5):
        sf = DeSitter(a0=1.0, H=H, n=3)
        for t in np.linspace(0.0, 4.0, 41):
            a, ad, add = sf.eval(float(t))
            scale = max(ad * ad, abs(add * a), 1e-300)
            assert abs(ad * ad - add * a) <= 8.0 * eps_m * scale


def test_negative_time_rejected():
    sf = DeSitter(a0=1.0, H=0.5, n=1)
    with pytest.raises(NegativeTime):
        sf.eval(-0.1)


def test_horizon_formula_triples():
    # 20 (n, sigma, H) triples; finite exactly when (1+sigma)H < 0
    triples = [(n, s, H) for n in (1, 2, 3)
               for s in (-3.0, -1.5, 0.0, 1.0)
               for H in (-0.5, 0.8)][:20]
    assert len(triples) == 20
    for n, s, H in triples:
        sf = PowerLaw(a0=1.0, H=H, sigma=s, n=n)
        if (1.0 + s) * H >= 0:
            assert sf.horizon() == math.inf
        else:
            T0 = -2.0 / (n * (1.0 + s) * H)
            assert sf.horizon() == pytest.approx(T0, rel=1e-14)
            a_near, _, _ = sf.eval(0.9999999 * T0)
            if (1.0 + s) < 0:  # expansion blows up (phantom)
                assert a_near > 1e2
            else:              # contraction to zero (crunch)
                assert a_near < 1e-2
            with pytest.raises(TimeBeyondHorizon):
                sf.eval(T0)


def test_desitter_horizon_infinite():
    assert DeSitter(a0=1.0, H=1.0, n=1).horizon() == math.inf


def test_monotone_expansion_closed_forms():
    assert check_monotone_expansion(PowerLaw(a0=1, H=0.0, sigma=-5.0, n=1),
                                    0.0, 10.0)
    assert check_monotone_expansion(PowerLaw(a0=1, H=0.5, sigma=0.0, n=3),
                                    0.0, 10.0)
    assert check_monotone_expansion(DeSitter(a0=1, H=0.5, n=1), 0.0, 10.0)
    assert check_monotone_expansion(PowerLaw(a0=1, H=0.5, sigma=-0.999, n=1),
                                    0.0, 10.0)
    # contracting background fails the rate condition
    assert not check_monotone_expansion(DeSitter(a0=1, H=-0.2, n=1), 0.0, 1.0)


def test_a0_whose_square_underflows_is_rejected():
    """c^2 / a^2 enters every energy: an a0 whose square falls below the
    normal float range is refused at construction, like a0 <= 0, and so is
    such a knot of a table."""
    for a0 in (1e-300, 1e-160, 0.0, -1.0):
        for make in (lambda: PowerLaw(0.0, H=0.0, a0=a0),
                     lambda: DeSitter(H=0.5, a0=a0)):
            with pytest.raises(ValueError, match="a0 must be positive"):
                make()
    assert PowerLaw(0.0, H=0.0, a0=1.5e-154).eval(0.0)[0] == 1.5e-154
    assert DeSitter(H=0.5, a0=1e300).eval(0.0)[0] == 1e300
    # the same rule for a table's smallest knot
    t, zero = np.linspace(0.0, 2.0, 5), np.zeros(5)
    for a in (1e-300, math.nan):
        with pytest.raises(ValueError, match="smallest scale factor knot"):
            Tabulated(t, np.full(5, a), zero, zero)


def test_bigrip_rejected():
    sf = PowerLaw(a0=1.0, H=1.0, sigma=-3.0, n=1)
    assert sf.horizon() == pytest.approx(1.0, rel=1e-14)
    assert not check_monotone_expansion(sf, 0.0, 0.9)


@settings(max_examples=60, deadline=None)
@given(H=st.floats(0.0, 3.0), sigma=st.floats(-0.9999, 4.0),
       n=st.integers(1, 3))
def test_monotone_expansion_property(H, sigma, n):
    sf = PowerLaw(a0=1.0, H=H, sigma=sigma, n=n)
    assert check_monotone_expansion(sf, 0.0, min(5.0, 0.9 * sf.horizon()))


@settings(max_examples=30, deadline=None)
@given(H=st.floats(0.05, 3.0), sigma=st.floats(-4.0, -1.1),
       n=st.integers(1, 3))
def test_phantom_rejected_property(H, sigma, n):
    sf = PowerLaw(a0=1.0, H=H, sigma=sigma, n=n)
    assert not check_monotone_expansion(sf, 0.0, 0.9 * sf.horizon())


def test_tabulated_matches_source():
    src = DeSitter(a0=1.0, H=0.5, n=1)
    ts = np.linspace(0.0, 2.0, 201)
    a_v, ad_v, add_v = src.eval(ts)
    tab = Tabulated(ts, a_v, ad_v, add_v, n=1)
    assert tab.horizon() == pytest.approx(2.0)
    for t in (0.0, 0.37, 1.99):
        a_t, ad_t, _ = tab.eval(t)
        a_s, ad_s, _ = src.eval(t)
        assert a_t == pytest.approx(a_s, rel=1e-6)
        assert ad_t == pytest.approx(ad_s, rel=1e-5)
    # the last knot itself stays evaluable; beyond it is out of domain
    tab.eval(2.0)
    with pytest.raises(TimeBeyondHorizon):
        tab.eval(2.0 + 1e-6)
    assert check_monotone_expansion(tab, 0.0, 1.9)
    assert not tab.static  # no table is static


def test_tabulated_needs_enough_knots():
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0], [1.0, 2.0], [1.0, 1.0], [0.0, 0.0], n=1)


def test_tabulated_rejects_inconsistent_rate():
    ts = np.linspace(0.0, 1.0, 8)
    a_v = np.exp(ts)
    with pytest.raises(ValueError):
        Tabulated(ts, a_v, -np.exp(ts), np.exp(ts), n=1)


def test_t0_threshold_and_condition():
    # threshold = |m| c (sqrt(eps(eps+4)) - eps) / (2n)
    thr = t0_condition_threshold(1.0, 1.0, 1.0, 1)
    assert thr == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)
    assert t0_condition_threshold(0.0, 1.0, 1.0, 1) == math.inf
    rep = t0_report(DeSitter(a0=1, H=0.5, n=1), 0.0, 1.0, 1.0, 1.0)
    assert rep.thm2.conditions["t0_condition"]
    assert rep.margins["thm2.t0_rate_slack"] == pytest.approx(thr - 0.5)
    rep = t0_report(DeSitter(a0=1, H=0.7, n=1), 0.0, 1.0, 1.0, 1.0)
    assert not rep.thm2.conditions["t0_condition"]


def test_c_epsilon_frozen():
    # C_eps = 2 / (|m| c (sqrt(eps(eps+4)) - eps)); the golden ratio at 1,1,1
    assert c_epsilon(1.0, 1.0, 1.0) == pytest.approx(GOLDEN, rel=1e-15)
    # reciprocal relation with the rate threshold
    for m, c, eps, n in [(1.0, 1.0, 1.0, 1), (2.0, 0.5, 3.0, 3)]:
        thr = t0_condition_threshold(m, c, eps, n)
        assert c_epsilon(m, c, eps) == pytest.approx(1.0 / (n * thr), rel=1e-13)
    # a subnormal |m| c underflows: the m -> 0 limit, not a ZeroDivisionError
    for m in (5e-324, 1e-320):
        assert c_epsilon(m, 0.5, 1.0) == math.inf
        with pytest.raises(NoAdmissibleT0):
            min_admissible_t0(PowerLaw(a0=1, H=0.1, sigma=0, n=1), m, 0.5, 1.0)


def test_min_admissible_t0():
    # flat or slow expansion: t0 = 0 already admissible
    assert min_admissible_t0(PowerLaw(a0=1, H=0.0, sigma=0, n=1),
                             1.0, 1.0, 1.0) == 0.0
    assert min_admissible_t0(DeSitter(a0=1, H=0.5, n=1),
                             1.0, 1.0, 1.0) == 0.0
    # powerlaw rate decays like 1/t: admissible start exists and matches
    sf = PowerLaw(a0=1.0, H=2.0, sigma=0.0, n=1)
    t0 = min_admissible_t0(sf, 1.0, 1.0, 1.0)
    assert t0 > 0.0
    assert t0_report(sf, t0 * (1 + 1e-9), 1.0, 1.0, 1.0).thm2.conditions[
        "t0_condition"]
    # ... and the found start sits exactly on the rate threshold
    assert t0_report(sf, t0, 1.0, 1.0, 1.0).thm2.rate0 == pytest.approx(
        t0_condition_threshold(1.0, 1.0, 1.0, 1), rel=1e-12)
    # de Sitter rate never decays: beyond-threshold H has no admissible start
    with pytest.raises(NoAdmissibleT0):
        min_admissible_t0(DeSitter(a0=1.0, H=5.0, n=1), 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the float path of PowerLaw.eval against numpy float64 scalar arithmetic


def numpy_scalar_eval(sf, t):
    """PowerLaw.eval on a scalar t as it was before the float path: the
    checked time as a numpy float64, every operation on numpy scalars."""
    if t < 0:
        raise NegativeTime(f"t = {t} is before the initial slice t = 0")
    horizon = sf.horizon()
    if not math.isinf(horizon) and t >= horizon * (1.0 - 1e-12):
        raise TimeBeyondHorizon(f"t = {t} reaches the horizon T0 = {horizon}")
    tt = np.float64(t)
    a0, H = sf.a0, sf.H
    if sf.sigma == -1.0:
        a = a0 * np.exp(H * tt)
        return float(a), float(H * a), float(H * H * a)
    b = 0.5 * sf.n * (1.0 + sf.sigma) * H
    beta = 2.0 / (sf.n * (1.0 + sf.sigma))
    base = 1.0 + b * tt
    a = a0 * base ** beta
    adot = a0 * H * base ** (beta - 1.0)
    addot = a0 * H * b * (beta - 1.0) * base ** (beta - 2.0)
    return float(a), float(adot), float(addot)


def eval_outcome(ev, t):
    """The bits of (a, adot, addot), or the type of what ev raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = ev(t)
    except Exception as exc:  # noqa: BLE001 - the raised type is compared
        return type(exc)
    assert all(type(x) is float for x in vals)
    return tuple(x.hex() for x in vals)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.just(-1.0), st.sampled_from([-0.9, -0.999, -1.5]),
                 st.floats(-3.0, 3.0)),
       st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0)),
       st.integers(1, 3), st.floats(0.1, 10.0),
       st.one_of(st.floats(-0.1, 1.1),
                 st.sampled_from([1.0 - 1e-12, 1.0 - 2e-12, 1.0 - 1e-9])),
       st.one_of(st.floats(-1.0, 1e25), st.sampled_from([1e20, 5e-324, -0.0,
                                                         math.nan])))
def test_float_eval_matches_numpy_scalar_eval_bitwise(sigma, H, n, a0, frac,
                                                      t_open):
    """A float t, and the same t as np.float64, give numpy's scalar bits,
    or raise the same NegativeTime or TimeBeyondHorizon: on a finite
    horizon t is a fraction of it, up to just below the excluded end, else
    any time up to 1e25, where some powers overflow to inf."""
    sf = PowerLaw(sigma, H, a0, n)
    T0 = sf.horizon()
    t = frac * T0 if math.isfinite(T0) else t_open
    want = eval_outcome(lambda s: numpy_scalar_eval(sf, s), t)
    assert want not in (OverflowError, ZeroDivisionError, ValueError)
    assert eval_outcome(sf.eval, t) == want
    assert eval_outcome(sf.eval, np.float64(t)) == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(-1.0), st.sampled_from([-0.9999999999999999, -1.5]),
                 st.floats(-3.0, 3.0)),
       st.sampled_from([0.0, -0.0]), st.integers(1, 3), st.floats(0.1, 10.0),
       st.one_of(st.floats(0.0, allow_infinity=False),
                 st.sampled_from([-0.0, 5e-324, 1e-300, 1.7976931348623157e308])))
def test_static_eval_is_the_t0_eval_bitwise(sigma, H, n, a0, t):
    """A static PowerLaw (H = 0 or -0.0, de Sitter included) gives at every
    finite t >= 0 the bits that it gives at t = 0, so a run that reuses its
    t0 values steps as one that evaluates it."""
    sf = PowerLaw(sigma, H, a0, n)
    assert sf.static and sf.horizon() == math.inf
    assert eval_outcome(sf.eval, t) == eval_outcome(sf.eval, 0.0)


def test_float_eval_overflow_is_inf():
    """Where numpy's scalar ** overflows the float path gives inf too, not
    OverflowError."""
    with np.errstate(over="ignore"):
        assert PowerLaw(-0.9, 1.0).eval(1e20) == (math.inf,) * 3
