"""Scalar functionals and the convexity diagnostics.

Frozen oracle: homogeneous data u0 = 6, u1 = 1 on the 1-d torus of half
width pi (volume 2 pi) with m = c = eps = 1, p = 2, lam = 1, expanding
background rate 1/2. All integrals reduce to closed forms there:

    ||u0||^2 = 72 pi       Re(u0, u1) = 12 pi
    E(0) = -107 pi         I(u0) = -360 pi
    rho  =  119 pi         delta =  109 pi
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from kgflrw import (DeSitter, GaugeInvariantPower, Grid, PhysicalParams,
                    PowerLaw, State, TraceArrays, delta, energy, eta_series,
                    hdiag, inner_re, kappa_for_mode, make_profile, nehari,
                    rho, theta_accumulate, zeta_series)
from kgflrw.errors import EmptyTrace, MasslessHdiag
from kgflrw.functionals import (RunningIntegrals, kappa_tilde_for_mode,
                                rel_E_I_gap)


@pytest.fixture(scope="module")
def frozen_setup():
    grid = Grid(n=1, points_per_axis=64, half_width=math.pi)
    u0 = make_profile(grid, "homogeneous", 6.0)
    u1 = make_profile(grid, "homogeneous", 1.0)
    sf = DeSitter(H=0.5)
    params = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)
    nl = GaugeInvariantPower(p=2.0, lam=1.0)
    return grid, u0, u1, sf, params, nl


def test_frozen_scalars(frozen_setup):
    _, u0, u1, sf, params, nl = frozen_setup
    state = State(0.0, u0, u1)
    assert inner_re(u0, u1) == pytest.approx(12 * math.pi, rel=1e-13)
    assert energy(state, sf, params, nl) == pytest.approx(-107 * math.pi, rel=1e-13)
    assert nehari(state, sf, params, nl) == pytest.approx(-360 * math.pi, rel=1e-13)
    assert rho(u0, u1, sf, params, nl) == pytest.approx(119 * math.pi, rel=1e-13)
    assert delta(u0, u1, 0.0, sf, params, nl) == pytest.approx(109 * math.pi, rel=1e-13)
    # decimal freezes guard against silent convention drift
    assert energy(state, sf, params, nl) == pytest.approx(-336.15041393410786, rel=1e-12)
    assert delta(u0, u1, 0.0, sf, params, nl) == pytest.approx(342.4335992412874, rel=1e-12)


def test_energy_gradient_term_scales_with_background(frozen_setup):
    grid, _, u1, _, params, nl = frozen_setup
    wave = make_profile(grid, "plane_mod", 0.5, width=2)
    state = State(0.0, wave, u1)
    e1 = energy(state, DeSitter(H=0.5, a0=1.0), params, nl)
    e2 = energy(state, DeSitter(H=0.5, a0=2.0), params, nl)
    # only the gradient term carries a^-2; doubling a0 quarters it
    from kgflrw import grad_norm_sq
    gterm = 0.5 * grad_norm_sq(wave)
    assert e1 - e2 == pytest.approx(gterm * (1.0 - 0.25), rel=1e-12)


def test_gap_zero_at_matched_eps_positive_below(frozen_setup):
    grid, u0, u1, sf, _, nl = frozen_setup
    state = State(0.0, u0, u1)
    matched = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)   # eps = p - 1
    below = PhysicalParams(m=1.0, c=1.0, eps=0.5, n=1)
    scale = abs(energy(state, sf, matched, nl))
    assert abs(rel_E_I_gap(state, sf, matched, nl)) <= 1e-12 * scale
    assert rel_E_I_gap(state, sf, below, nl) > 0.0
    # closed form of the gap: c^2 lam |u|^(p+1) vol (1/(eps+2) - 1/(p+1))
    expect = 216.0 * 2 * math.pi * (1.0 / 2.5 - 1.0 / 3.0)
    assert rel_E_I_gap(state, sf, below, nl) == pytest.approx(expect, rel=1e-12)


def test_linear_case_gap_is_positive_quadratic(frozen_setup):
    grid, u0, u1, sf, params, _ = frozen_setup
    state = State(0.0, u0, u1)
    # without the source term the gap reduces to zero
    assert rel_E_I_gap(state, sf, params, None) == pytest.approx(0.0, abs=1e-10)


def test_hdiag_value_and_massless_guard(frozen_setup):
    _, u0, u1, sf, params, nl = frozen_setup
    state = State(0.0, u0, u1)
    e0 = energy(state, sf, params, nl)
    expect = 2 * 12 * math.pi - 4 * 3.0 * e0 / 1.0
    assert hdiag(state, params, e0) == pytest.approx(expect, rel=1e-13)
    massless = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    with pytest.raises(MasslessHdiag):
        hdiag(state, massless, e0)


def test_kappa_modes():
    assert kappa_tilde_for_mode("thm1", 1.0) == 2.0
    assert kappa_tilde_for_mode("thm2", 1.0) == 1.5
    assert kappa_for_mode("thm1", 1.0) == 0.25
    assert kappa_for_mode("thm2", 1.0) == 0.125
    assert kappa_for_mode("thm1", 3.0) == 0.75
    # eps/4 and eps/8 exactly; (eps + 1 - 1)/4 is one ulp off at eps = 0.3
    assert kappa_for_mode("thm1", 0.3) == 0.3 / 4.0
    assert kappa_for_mode("thm2", 0.3) == 0.3 / 8.0
    with pytest.raises(ValueError):
        kappa_for_mode("thm3", 1.0)
    with pytest.raises(ValueError):
        kappa_tilde_for_mode("thm3", 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, c=0.0, eps=1.0, n=1)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, c=1.0, eps=0.0, n=1)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, c=1.0, eps=1.0, n=4)
    p = PhysicalParams(m=-2.0, c=3.0, eps=1.0, n=2)
    assert p.m_tilde == 1.0 and p.c_tilde == 1.0
    q = PhysicalParams(m=0.25, c=0.5, eps=1.0, n=1)
    assert q.m_tilde == 0.25 and q.c_tilde == 0.5


def _scalar_trajectory(n_pts=2001, t_end=1.0, vol=2 * math.pi):
    """Homogeneous complex trajectory g(t) = exp((0.3 + 0.7 i) t): exact
    L, ||u_t||^2, Re(u, u_t) and a stand-in Nehari channel."""
    t = np.linspace(0.0, t_end, n_pts)
    g = np.exp((0.3 + 0.7j) * t)
    gp = (0.3 + 0.7j) * g
    L = vol * np.abs(g) ** 2
    ut = vol * np.abs(gp) ** 2
    re = vol * (g * np.conj(gp)).real
    I = -0.5 * L
    return TraceArrays(t=t, L=L, ut_sq=ut, re_u_ut=re, I=I)


def test_theta_flat_background_reduces_to_norm():
    samples = _scalar_trajectory(n_pts=101)
    sf = PowerLaw(0.0, H=0.0)
    series = theta_accumulate(samples, sf, T=5.0, t0=0.0)
    assert np.allclose(series.theta, samples.L, rtol=1e-14)
    assert np.allclose(series.theta_prime, 2.0 * samples.re_u_ut, rtol=1e-14)
    assert np.allclose(series.theta_second,
                       2.0 * (samples.ut_sq - samples.I), rtol=1e-14)
    assert np.all(series.G == 0.0)


def test_theta_anchor_term():
    samples = _scalar_trajectory(n_pts=101)
    sf = DeSitter(H=0.5)
    with_T = theta_accumulate(samples, sf, T=4.0, t0=0.0)
    without = theta_accumulate(samples, sf, T=None, t0=0.0)
    anchor = 1 * (4.0 - samples.t) * 0.5 * samples.L[0]
    assert np.allclose(with_T.theta - without.theta, anchor, rtol=1e-12)


def test_eta_nonnegative_on_consistent_trajectory():
    samples = _scalar_trajectory()
    eta = eta_series(samples, DeSitter(H=0.5), t0=0.0)
    scale = samples.L * samples.ut_sq + 1.0
    assert np.all(eta >= -1e-10 * scale)
    # strictly positive away from t = 0 for genuinely complex motion
    assert np.all(eta[1:] > 0.0)


def test_zeta_formula_direct():
    samples = _scalar_trajectory(n_pts=51)
    sf = DeSitter(H=0.5)
    kt = 1.5
    zeta = zeta_series(samples, sf, kt, t0=0.0)
    rate = 0.5
    from scipy.integrate import cumulative_trapezoid
    Q = cumulative_trapezoid(1 * rate * samples.ut_sq, samples.t, initial=0.0)
    expect = -(kt + 1.0) * samples.ut_sq - 2.0 * samples.I - (kt + 3.0) * Q
    assert np.allclose(zeta, expect, rtol=1e-13)


def test_running_integrals_match_series():
    samples = _scalar_trajectory(n_pts=401, t_end=1.0)
    sf = DeSitter(H=0.5)
    acc = RunningIntegrals(n=1, c=1.0)
    for i in range(len(samples)):
        a, adot, addot = sf.eval(samples.t[i])
        acc.push(samples.t[i], samples.L[i], samples.ut_sq[i],
                 samples.re_u_ut[i], 0.0, a, adot, addot)
    a_all, adot_all, addot_all = sf.eval(samples.t)
    rate = adot_all / a_all
    from scipy.integrate import cumulative_trapezoid
    P = cumulative_trapezoid(rate * samples.L, samples.t, initial=0.0)
    Q = cumulative_trapezoid(rate * samples.ut_sq, samples.t, initial=0.0)
    R = cumulative_trapezoid(rate * samples.re_u_ut, samples.t, initial=0.0)
    curv = (adot_all ** 2 - addot_all * a_all) / a_all ** 2
    G = cumulative_trapezoid(curv * samples.L, samples.t, initial=0.0)
    IG = cumulative_trapezoid(G, samples.t, initial=0.0)
    assert acc.P == pytest.approx(P[-1], rel=1e-13)
    assert acc.Q == pytest.approx(Q[-1], rel=1e-13)
    assert acc.R == pytest.approx(R[-1], rel=1e-13)
    # de Sitter curvature is zero to roundoff, so G and IG nearly vanish
    assert abs(acc.G) <= 1e-12 * abs(P[-1])
    assert abs(acc.IG) <= 1e-12 * abs(P[-1])
    # dissipation integral: n rate ||u_t||^2 (gradient channel fed zero)
    assert acc.dissipated == pytest.approx(Q[-1], rel=1e-13)
    # comoving light path on a = exp(H t): (1 - exp(-H t)) / H
    expect_w = (1.0 - math.exp(-0.5 * 1.0)) / 0.5
    assert acc.light_path == pytest.approx(expect_w, rel=1e-6)


def test_trace_arrays_from_rows():
    rows = [SimpleNamespace(t=0.0, L=1.0, ut_sq=2.0, Lp=3.0, I=-1.0),
            SimpleNamespace(t=0.5, L=1.5, ut_sq=2.5, Lp=4.0, I=-2.0)]
    arr = TraceArrays.from_rows(rows)
    assert len(arr) == 2
    assert arr.re_u_ut[1] == 2.0  # Lp / 2
    with pytest.raises(EmptyTrace):
        TraceArrays.from_rows([])
    with pytest.raises(EmptyTrace):
        theta_accumulate(TraceArrays(t=np.array([]), L=np.array([]),
                                     ut_sq=np.array([]), re_u_ut=np.array([]),
                                     I=np.array([])),
                         PowerLaw(0.0, H=0.0), None, 0.0)
