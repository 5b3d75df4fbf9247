"""Scalar functionals and the convexity diagnostics.

Frozen oracle: homogeneous data u0 = 6, u1 = 1 on the 1-d torus of half
width pi (volume 2 pi) with m = c = eps = 1, p = 2, lam = 1, expanding
background rate 1/2. All integrals reduce to closed forms there:

    ||u0||^2 = 72 pi       Re(u0, u1) = 12 pi
    E(0) = -107 pi         I(u0) = -360 pi
    rho  =  119 pi         delta =  109 pi
"""

import dataclasses
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from kgflrw import (DeSitter, GaugeInvariantPower, Grid, PhysicalParams,
                    PowerLaw, RunConfig, Start, evaluate,
                    load_bundled_scenario, make_profile, run)
from kgflrw.functionals import RunningIntegrals
from oracles import (RefRunningIntegrals, State, ref_kappa, ref_kappa_tilde,
                     ref_rel_E_I_gap, same_bits)


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
    rec = Start(u0, u1, nl).rec
    a0 = sf.eval(0.0)[0]
    assert rec.re_u_ut == pytest.approx(12 * math.pi, rel=1e-13)
    assert rec.energy(a0, params) == pytest.approx(-107 * math.pi, rel=1e-13)
    assert rec.nehari(a0, params) == pytest.approx(-360 * math.pi, rel=1e-13)
    assert rec.rho(a0, params) == pytest.approx(119 * math.pi, rel=1e-13)
    assert rec.delta(a0, params) == pytest.approx(109 * math.pi, rel=1e-13)
    # decimal freezes guard against silent convention drift
    assert rec.energy(a0, params) == pytest.approx(-336.15041393410786, rel=1e-12)
    assert rec.delta(a0, params) == pytest.approx(342.4335992412874, rel=1e-12)


def test_energy_gradient_term_scales_with_background(frozen_setup):
    grid, _, u1, _, params, nl = frozen_setup
    wave = make_profile(grid, "plane_mod", 0.5, width=2)
    rec = Start(wave, u1, nl).rec
    e1 = rec.energy(DeSitter(H=0.5, a0=1.0).eval(0.0)[0], params)
    e2 = rec.energy(DeSitter(H=0.5, a0=2.0).eval(0.0)[0], params)
    # only the gradient term carries a^-2; doubling a0 quarters it
    gterm = 0.5 * rec.grad_sq
    assert e1 - e2 == pytest.approx(gterm * (1.0 - 0.25), rel=1e-12)


def test_gap_zero_at_matched_eps_positive_below(frozen_setup):
    grid, u0, u1, sf, _, nl = frozen_setup
    state, a0 = State(0.0, u0, u1), sf.eval(0.0)[0]
    matched = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)   # eps = p - 1
    below = PhysicalParams(m=1.0, c=1.0, eps=0.5, n=1)
    scale = abs(Start(u0, u1, nl).rec.energy(a0, matched))
    assert abs(ref_rel_E_I_gap(state, sf, matched, nl)) <= 1e-12 * scale
    # closed form of the gap: c^2 lam |u|^(p+1) vol (1/(eps+2) - 1/(p+1))
    expect = 216.0 * 2 * math.pi * (1.0 / 2.5 - 1.0 / 3.0)
    assert ref_rel_E_I_gap(state, sf, below, nl) == pytest.approx(expect,
                                                                  rel=1e-12)


def test_linear_case_gap_is_positive_quadratic(frozen_setup):
    grid, u0, u1, sf, params, _ = frozen_setup
    # without the source term the gap reduces to zero
    gap = ref_rel_E_I_gap(State(0.0, u0, u1), sf, params, None)
    assert gap == pytest.approx(0.0, abs=1e-10)


SHORT = RunConfig(t_end=0.05, dt=1e-3, record_every=1)


def _short_run(name, **cert_fields):
    """The first 50 steps of a bundled scenario, every step recorded, under
    the certificate its config selects, with cert_fields replaced."""
    scn = load_bundled_scenario(name)
    u0, u1 = scn.build_fields()
    start = Start(u0, u1, scn.nl)
    rep = evaluate(start.rec, scn.run.t0, scn.sf, scn.params,
                   mode=scn.run.theorem_mode)
    cfg = dataclasses.replace(scn.run, t_end=SHORT.t_end,
                              record_every=SHORT.record_every)
    cert = dataclasses.replace(rep.cert, **cert_fields)
    return scn, rep, run(start, scn.sf, scn.params, cfg, cert)


def test_hdiag_value_and_massless_guard(frozen_setup):
    _, u0, u1, sf, params, nl = frozen_setup
    rows = run(Start(u0, u1, nl), sf, params, SHORT).rows
    # 2 Re(u0, u1) - 4 (eps + 2) E(0) / (|m| c eps) = 24 pi + 12 * 107 pi
    assert rows[0].Hdiag == pytest.approx(1308 * math.pi, rel=1e-13)
    # the diagnostic divides by |m|: undefined without mass
    massless = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
    rows = run(Start(u0, u1, nl), sf, massless, SHORT).rows
    assert all(math.isnan(r.Hdiag) for r in rows)


def _checks(frozen_setup, eps):
    """Both certificate checks on the frozen data at t0 = 0 with eps."""
    _, u0, u1, sf, _, nl = frozen_setup
    params = PhysicalParams(m=1.0, c=1.0, eps=eps, n=1)
    rep = evaluate(Start(u0, u1, nl).rec, 0.0, sf, params)
    return rep.thm1, rep.thm2


def test_kappa_modes(frozen_setup):
    for eps, k1, k2 in ((1.0, 0.25, 0.125), (3.0, 0.75, 0.375),
                        # eps/4 and eps/8 exactly; (eps + 1 - 1)/4 is one
                        # ulp off at eps = 0.3
                        (0.3, 0.3 / 4.0, 0.3 / 8.0)):
        t1, t2 = _checks(frozen_setup, eps)
        assert (t1.kappa, t2.kappa) == (k1, k2)
        assert (t1.kappa, t2.kappa) == (ref_kappa("thm1", eps),
                                        ref_kappa("thm2", eps))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([5e-324, 1e-320, 2.225073858507201e-308,
                                  sys.float_info.min, 0.3, 1e308,
                                  sys.float_info.max]),
                 st.floats(min_value=5e-324, allow_infinity=False)))
def test_zeta_weight_from_the_exponent_has_the_reference_bits(frozen_setup,
                                                              eps):
    """The run weighs zeta by 4 kappa + 1 from each check's kappa: the bits
    of eps + 1 and eps/2 + 1, for every positive eps. eps/4 and eps/8 are
    exact outside the subnormals, and there + 1.0 rounds both forms to 1.0."""
    for chk in _checks(frozen_setup, eps):
        assert same_bits(chk.kappa, ref_kappa(chk.name, eps))
        assert same_bits(4.0 * chk.kappa + 1.0,
                         ref_kappa_tilde(chk.name, eps))


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
    L, ||u_t||^2 and Re(u, u_t)."""
    t = np.linspace(0.0, t_end, n_pts)
    g = np.exp((0.3 + 0.7j) * t)
    gp = (0.3 + 0.7j) * g
    return SimpleNamespace(t=t, L=vol * np.abs(g) ** 2,
                           ut_sq=vol * np.abs(gp) ** 2,
                           re_u_ut=vol * (g * np.conj(gp)).real)


def test_theta_flat_background_reduces_to_norm():
    # flat anchor: no rate, no curvature, so theta is ||u||^2 bit for bit
    _, rep, trace = _short_run("minkowski-m0-u2-A3")
    assert rep.mode == "thm1" and rep.T_bound is not None
    assert len(trace.rows) == 51
    for r in trace.rows:
        assert r.theta == r.L
        assert r.theta_prime == r.Lp
        assert r.theta_second == 2.0 * (r.ut_sq - r.I)
        assert r.G == 0.0


def test_theta_anchor_term():
    # velocity-margin certificate on de Sitter: the anchor term
    # n (T - t) rate(t0) ||u0||^2 is all that the certificate's rate adds
    # to theta (at rate0 = 0.0 it adds +0.0)
    _, rep, with_T = _short_run("desitter-thm2")
    _, _, without = _short_run("desitter-thm2", rate0=0.0)
    t = np.array([r.t for r in with_T.rows])
    diff = (np.array([r.theta for r in with_T.rows])
            - np.array([r.theta for r in without.rows]))
    anchor = 1 * (rep.T_bound - t) * 0.5 * rep.L0
    assert np.allclose(diff, anchor, rtol=1e-12)
    for a, b in zip(with_T.rows, without.rows):
        assert (a.L, a.theta_prime, a.eta, a.zeta) == \
            (b.L, b.theta_prime, b.eta, b.zeta)


def test_eta_nonnegative_on_consistent_trajectory(frozen_setup):
    # rotating phase (u1 = i u0 / 6): Cauchy-Schwarz is strict, so eta > 0
    grid, u0, _, sf, params, nl = frozen_setup
    u1 = make_profile(grid, "homogeneous", 1j)
    rows = run(Start(u0, u1, nl), sf, params, SHORT).rows
    eta = np.array([r.eta for r in rows])
    assert np.all(eta > 0.0)


def test_zeta_formula_direct():
    # every step is a row, so a trapezoid over the rows rebuilds Q
    scn, rep, trace = _short_run("desitter-thm2")
    rows = trace.rows
    kt = ref_kappa_tilde(rep.mode, scn.params.eps)
    assert kt == 1.5
    t = np.array([r.t for r in rows])
    ut = np.array([r.ut_sq for r in rows])
    I = np.array([r.I for r in rows])
    rate = np.array([r.adot / r.a for r in rows])
    Q = cumulative_trapezoid(1 * rate * ut, t, initial=0.0)
    expect = -(kt + 1.0) * ut - 2.0 * I - (kt + 3.0) * Q
    assert np.allclose([r.zeta for r in rows], expect, rtol=1e-13)


def test_running_integrals_match_series():
    samples = _scalar_trajectory(n_pts=401, t_end=1.0)
    sf = DeSitter(H=0.5)
    acc = RunningIntegrals(n=1, c=1.0)
    for i in range(len(samples.t)):
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


# the sums a push accumulates, and its kept sample
ACCUMULATED = ("P", "Q", "R", "G", "IG", "dissipated", "light_path", "_prev")
# backgrounds from t0 on: static, decelerating, contracting (horizon 5 / n),
# de Sitter, and de Sitter at H = 100 from t = 4.9, where a^2 and adot^2
# overflow
PUSH_BACKGROUNDS = ((PowerLaw(0.0, H=0.0), 0.0), (PowerLaw(0.5, H=0.3), 0.0),
                    (PowerLaw(0.0, H=-0.4), 0.0), (DeSitter(H=0.5), 0.0),
                    (DeSitter(H=100.0), 4.9))
SAMPLE_FLOATS = st.one_of(st.floats(-1e6, 1e6),
                          st.sampled_from([0.0, -0.0, 1e300, -1e300]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PUSH_BACKGROUNDS), st.integers(1, 3),
       st.floats(0.1, 10.0),
       st.lists(st.tuples(st.floats(1e-6, 0.015),
                          *[SAMPLE_FLOATS] * 4), min_size=1, max_size=8))
def test_push_matches_the_plain_accumulator_bitwise(background, n, c,
                                                    samples):
    """RunningIntegrals.push, its integrands computed in one pass, against
    the accumulator it replaced (`RefRunningIntegrals`), bit for bit after
    every push: on a static, a decelerating, a contracting and two de
    Sitter backgrounds (one past the overflow of a^2), with signed zeros
    and integrals whose products overflow."""
    sf, t = background
    sf = dataclasses.replace(sf, n=n)
    acc, ref = RunningIntegrals(n, c), RefRunningIntegrals(n, c)
    for dt, L, ut_sq, re_u_ut, grad_sq in samples:
        t += dt
        args = (t, abs(L), abs(ut_sq), re_u_ut, abs(grad_sq), *sf.eval(t))
        acc.push(*args)
        ref.push(*args)
        assert same_bits([getattr(acc, k) for k in ACCUMULATED],
                         [getattr(ref, k) for k in ACCUMULATED])


def test_dissipation_past_a_cubed_overflow():
    """On de Sitter at H = 100 and t = 5, a = e^500 is finite but a^3 is
    not: the gradient channel of the dissipation integrand divides instead
    of taking the cube, so push records finite values."""
    sf = DeSitter(H=100.0)
    acc = RunningIntegrals(n=1, c=1.0)
    for t in (4.99, 5.0):
        acc.push(t, 1.0, 1.0, 0.0, 1.0, *sf.eval(t))
    assert math.isfinite(acc.dissipated) and acc.dissipated > 0.0
    assert math.isfinite(acc.light_path)
