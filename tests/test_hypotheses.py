"""Certificate checks, data classification, corollary coverage, margins.

Frozen oracles (homogeneous data on the 1-d torus of half width pi, volume
2 pi, with c = eps = 1, p = 2, lam = 1):

  flat, m = 0, u0 = 3, u1 = 0:   rho = delta = 18 pi, I = -54 pi,
                                  T1 = pi^2, T2 = 10 pi^2 / 3
  rate 1/2, m = 1, u0 = 6, u1 = 1: rho = 119 pi, delta = 109 pi,
                                  T1 = 108 pi^2 / 119, T2 = 360 pi^2 / 109
  flat, m = 1, u0 = 6, u1 = 1:    T2 = 240 pi^2 / 109

and the homogeneous norm-margin crossing rho(A) = (V/3) A^2 (A - 1) at
A = 1 exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgflrw import (DeSitter, GaugeInvariantPower, Grid, Integrals,
                    PhysicalParams, PowerLaw, Start, Tabulated,
                    bundled_scenario_names, evaluate, load_bundled_scenario,
                    make_profile, theorem1_bound, theorem2_bound)
from kgflrw.errors import HorizonTooShort
from kgflrw.scale_factor import t0_condition_threshold
from oracles import corollaries, count_calls

GRID = Grid(n=1, points_per_axis=16, half_width=math.pi)
PARAMS_M0 = PhysicalParams(m=0.0, c=1.0, eps=1.0, n=1)
PARAMS_M1 = PhysicalParams(m=1.0, c=1.0, eps=1.0, n=1)
NL = GaugeInvariantPower(p=2.0, lam=1.0)


def hom(a):
    return make_profile(GRID, "homogeneous", a)


def data(a0, a1, nl=NL):
    """The integrals of the homogeneous data u0 = a0, u1 = a1."""
    return Start(hom(a0), hom(a1), nl).rec


def test_frozen_anchor_report():
    rep = evaluate(data(3.0, 0.0), 0.0, PowerLaw(0.0, H=0.0), PARAMS_M0,
                   mode="auto")
    assert rep.theorem == "both"
    assert rep.mode == "thm1"
    assert rep.rho == pytest.approx(18 * math.pi, rel=1e-13)
    assert rep.delta == pytest.approx(18 * math.pi, rel=1e-13)
    assert rep.I_u0 == pytest.approx(-54 * math.pi, rel=1e-13)
    assert rep.T_bound == pytest.approx(math.pi ** 2, rel=1e-13)
    assert rep.corollary_case == "i"
    assert rep.case_label == "none"  # m~ = 0 sits outside the data table
    assert rep.thm2.T_bound == pytest.approx(10 * math.pi ** 2 / 3, rel=1e-13)


def test_frozen_desitter_report():
    sf = DeSitter(H=0.5)
    rep = evaluate(data(6.0, 1.0), 0.0, sf, PARAMS_M1, mode="thm2")
    assert rep.theorem == "both"
    assert rep.mode == "thm2"
    assert rep.rho == pytest.approx(119 * math.pi, rel=1e-13)
    assert rep.delta == pytest.approx(109 * math.pi, rel=1e-13)
    assert rep.I_u0 == pytest.approx(-360 * math.pi, rel=1e-13)
    assert rep.T_bound == pytest.approx(360 * math.pi ** 2 / 109, rel=1e-13)
    assert rep.T_bound == pytest.approx(32.596858572405225, rel=1e-12)
    assert rep.corollary_case == "iii"  # H = 1/2 below the rate threshold
    auto = evaluate(data(6.0, 1.0), 0.0, sf, PARAMS_M1, mode="auto")
    assert auto.mode == "thm1"
    assert auto.T_bound == pytest.approx(108 * math.pi ** 2 / 119, rel=1e-13)
    assert auto.corollary_case == "ii"


def test_frozen_flat_massive_thm2():
    rep = evaluate(data(6.0, 1.0), 0.0, PowerLaw(0.0, H=0.0), PARAMS_M1,
                   mode="thm2")
    assert rep.T_bound == pytest.approx(240 * math.pi ** 2 / 109, rel=1e-13)
    assert rep.T_bound == pytest.approx(21.73123904827015, rel=1e-12)


def test_bound_helpers():
    # scale invariance: the bound depends on L0/margin only
    b1 = theorem1_bound(18 * math.pi, 18 * math.pi, 1.0, 1, 0.0)
    assert b1 == pytest.approx(math.pi ** 2, rel=1e-15)
    assert theorem1_bound(36 * math.pi, 36 * math.pi, 1.0, 1, 0.0) == \
        pytest.approx(b1, rel=1e-15)
    # the floor kicks in for overwhelming margins
    assert theorem1_bound(1.0, 1e6, 1.0, 1, 0.0) == 1.0
    assert theorem2_bound(1.0, 1e6, 1.0, 1, 0.0, t0=0.25) == 1.25
    # expansion at t0 stretches both linearly in (1 + n rate0)
    assert theorem1_bound(2.0, 1.0, 1.0, 1, 0.5) == \
        pytest.approx(1.5 * theorem1_bound(2.0, 1.0, 1.0, 1, 0.0), rel=1e-15)
    with pytest.raises(ValueError):
        theorem1_bound(1.0, 0.0, 1.0, 1, 0.0)
    with pytest.raises(ValueError):
        theorem2_bound(1.0, -2.0, 1.0, 1, 0.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 4.0), b=st.floats(0.0, 2.0),
       m=st.sampled_from([0.0, 1.0]), rate=st.sampled_from([0.0, 0.3]))
def test_norm_margin_implies_nehari_negative(a, b, m, rate):
    sf = DeSitter(H=rate) if rate > 0 else PowerLaw(0.0, H=0.0)
    params = PhysicalParams(m=m, c=1.0, eps=1.0, n=1)
    rec = data(a, b)
    chk = evaluate(rec, 0.0, sf, params).thm1
    if chk.applicable:
        assert rec.nehari(sf.eval(0.0)[0], params) < 0.0


def test_table1_quadrants_frozen():
    sf = PowerLaw(0.0, H=0.0)

    def label(a, b, params=PARAMS_M1):
        return evaluate(data(a, b), 0.0, sf, params).case_label

    assert label(1.2, 0.3) == "I"
    assert label(1.5, 0.4) == "II"
    assert label(3.0, 3.5) == "III"
    assert label(3.0, 4.0) == "IV"
    assert label(0.5, 0.1) == "none"   # I(u0) > 0
    assert label(3.0, 0.0) == "none"   # E < 0
    assert label(1.5, 0.4, PARAMS_M0) == "none"


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.3, 4.0), b=st.floats(0.0, 4.0))
def test_table1_label_consistent(a, b):
    sf = PowerLaw(0.0, H=0.0)
    label = evaluate(data(a, b), 0.0, sf, PARAMS_M1).case_label
    vol = 2 * math.pi
    E = 0.5 * b * b * vol + 0.5 * a * a * vol - (a ** 3 / 3.0) * vol
    I = a * a * vol - a ** 3 * vol
    X = a * a * vol / 6.0
    Y = a * b * vol / 6.0
    if I >= 0 or E < 0:
        assert label == "none"
    else:
        expect = {(True, False): "I", (True, True): "II",
                  (False, True): "III", (False, False): "IV"}[(X > E, Y > E)]
        assert label == expect


def test_corollary_mapping():
    flat = PowerLaw(0.0, H=0.0)
    assert corollaries(flat, 0.0, PARAMS_M1) == \
        corollaries(flat, 0.0, PARAMS_M0)
    cc = corollaries(flat, 0.0, PARAMS_M1)
    assert (cc.thm1_case, cc.thm2_case) == ("i", "i")
    cc = corollaries(flat, 0.3, PARAMS_M1)
    assert (cc.thm1_case, cc.thm2_case) == ("n/a", "n/a")
    # slow expansion: the rate condition already holds at t0 = 0
    cc = corollaries(DeSitter(H=0.2), 0.0, PARAMS_M1)
    assert (cc.thm1_case, cc.thm2_case) == ("ii", "iii")
    # fast de Sitter: no finite waiting time (sigma = -1 edge)
    cc = corollaries(DeSitter(H=5.0), 0.0, PARAMS_M1)
    assert (cc.thm1_case, cc.thm2_case) == ("ii", "n/a")
    # fast power law: the matched waiting time enables case iv
    sf = PowerLaw(1.0, H=2.0)
    golden = (math.sqrt(5.0) + 1.0) / 2.0
    t0_req = golden - 1.0 / (1.0 * 2.0 * 2.0) * 2.0  # 2C/(1+s) - 2/(n(1+s)H)
    cc = corollaries(sf, t0_req, PARAMS_M1)
    assert cc.thm2_case == "iv"
    assert cc.thm1_case == "n/a"  # t0 > 0
    assert corollaries(sf, 0.0, PARAMS_M1).thm2_case == "n/a"
    # tabulated backgrounds carry no closed-form coverage
    t = np.linspace(0.0, 2.0, 5)
    tab = Tabulated(t, np.ones(5), np.zeros(5), np.zeros(5))
    cc = corollaries(tab, 0.0, PARAMS_M1)
    assert (cc.thm1_case, cc.thm2_case) == ("n/a", "n/a")


@pytest.mark.parametrize("excess", [8e-13, 5e-13])
def test_corollary_case_follows_the_t0_condition(excess):
    """Homogeneous data u0 = 3, u1 = 0.5 (m = c = eps = 1) on de Sitter just
    above the rate threshold, within thm2's slack 1e-12 max(1, threshold):
    thm2 follows with its t0_condition, and the corollary case is iii, as
    the one verdict decides both."""
    thr = t0_condition_threshold(1.0, 1.0, 1.0, 1)
    rep = evaluate(data(3.0, 0.5), 0.0, DeSitter(H=thr + excess), PARAMS_M1,
                   mode="thm2")
    assert rep.mode == "thm2" and rep.thm2.conditions["t0_condition"]
    assert rep.corollary_case == "iii"


def test_nan_energy_is_undecided():
    """Finite integrals whose E(t0) and I(u0) are NaN (c^2 a^-2 ||grad u||^2
    and c^2 int F both overflow to inf): the table cannot place the data,
    so the label is undecided, not quadrant IV."""
    rec = Integrals(1.0, 1.0, 1.0, 1e300, 1e300, 1e300)
    rep = evaluate(rec, 0.0, PowerLaw(0.0, H=0.0, a0=1e-5),
                   PhysicalParams(m=1.0, c=1e5, eps=1.0, n=1))
    assert math.isnan(rep.E_t0) and math.isnan(rep.I_u0)
    assert rep.case_label == "undecided"


def test_rho_changes_sign_at_unit_amplitude():
    a0 = PowerLaw(0.0, H=0.0).eval(0.0)[0]

    def rho(a):
        return data(a, 0.0).rho(a0, PARAMS_M1)

    # rho(A) = (V/3) A^2 (A - 1) crosses zero exactly at A = 1
    assert rho(1.0) == pytest.approx(0.0, abs=1e-12)
    assert rho(0.25) < rho(1.0 - 1e-9) < 0.0 < rho(1.0 + 1e-9) < rho(3.0)


def test_defocusing_delta_without_velocity_is_nonpositive():
    a0 = PowerLaw(0.0, H=0.0).eval(0.0)[0]
    defocusing = GaugeInvariantPower(p=2.0, lam=-1.0)
    # u1 = 0 kills the leading term and E > 0 always: delta = -E <= 0
    for k in range(21):
        rec = data(2.0 ** k, 0.0, defocusing)
        assert rec.delta(a0, PARAMS_M1) <= 0.0


def test_horizon_blocks_every_certificate():
    t = np.linspace(0.0, 2.0, 5)
    tab = Tabulated(t, np.ones(5), np.zeros(5), np.zeros(5))
    # flat data that both certificates accept, but T1 = pi^2 > 2 = horizon;
    # the error gives thm1's reason
    with pytest.raises(HorizonTooShort) as exc:
        evaluate(data(3.0, 0.0), 0.0, tab, PARAMS_M0, mode="auto")
    assert str(exc.value) == ("certificate needs T = 9.8696044 but the "
                              "background lifetime is 2")
    # on a table to t = 20, T1 fits and T2 = 10 pi^2 / 3 does not
    t = np.linspace(0.0, 20.0, 5)
    tab = Tabulated(t, np.ones(5), np.zeros(5), np.zeros(5))
    rep = evaluate(data(3.0, 0.0), 0.0, tab, PARAMS_M0, mode="auto")
    assert rep.theorem == "thm1"
    chk = rep.thm2
    assert not chk.applicable and chk.T_bound is None
    assert not chk.conditions["within_horizon"]
    assert chk.horizon == ("certificate needs T = 32.8986813 but the "
                           "background lifetime is 20")


def test_pinned_mode_fallback_keeps_bound():
    rep = evaluate(data(3.0, 0.0), 0.0, PowerLaw(0.0, H=0.0), PARAMS_M0,
                   mode="none")
    assert rep.mode == "none"
    assert rep.theorem == "both"
    assert rep.T_bound == pytest.approx(math.pi ** 2, rel=1e-13)


def test_positive_t0_disables_norm_margin():
    rep = evaluate(data(6.0, 1.0), 0.5, PowerLaw(0.0, H=0.0), PARAMS_M1,
                   mode="auto")
    assert not rep.thm1.applicable
    assert rep.thm2.applicable
    assert rep.mode == "thm2"
    assert rep.T_bound == pytest.approx(0.5 + 240 * math.pi ** 2 / 109, rel=1e-12)


def test_opposed_velocity_fails_re_condition():
    chk = evaluate(data(3.0, -1.0), 0.0, PowerLaw(0.0, H=0.0), PARAMS_M0).thm1
    assert not chk.applicable
    assert not chk.conditions["re_nonneg"]


def test_flat_report_shape():
    rep = evaluate(data(3.0, 0.0), 0.0, PowerLaw(0.0, H=0.0), PARAMS_M0,
                   mode="auto")
    flat = rep.flat()
    assert flat["theorem"] == "both"
    assert flat["mode"] == "thm1"
    assert any(k.startswith("margin.") for k in flat)
    for v in flat.values():
        assert isinstance(v, (int, float, str))
    with pytest.raises(ValueError):
        evaluate(data(3.0, 0.0), 0.0, PowerLaw(0.0, H=0.0), PARAMS_M0,
                 mode="always")


def test_bound_past_every_float_certifies_nothing():
    """eps^2 rho underflows to 0 at eps = 1e-300 and the bound overflows to
    inf at eps = 1e-160: both bounds are inf, not a ZeroDivisionError, and
    a certificate with a bound that is not a finite number does not
    apply."""
    L0 = rho = 18.0 * math.pi
    assert theorem1_bound(L0, rho, 1.0, 1, 0.0) == pytest.approx(math.pi ** 2,
                                                                 rel=1e-15)
    for eps in (1e-300, 1e-160):
        assert theorem1_bound(L0, rho, eps, 1, 0.0) == math.inf
        assert theorem2_bound(L0, rho, eps, 1, 0.0, 0.0) == math.inf
        params = PhysicalParams(m=0.0, c=1.0, eps=eps, n=1)
        nl = GaugeInvariantPower(p=2.0, lam=1.0, eps=eps)
        rep = evaluate(data(3.0, 0.0, nl), 0.0, PowerLaw(0.0, H=0.0), params)
        assert rep.theorem == "none" and rep.T_bound is None
        for chk in (rep.thm1, rep.thm2):
            assert not chk.applicable and chk.horizon is None
            assert chk.conditions["bound_finite"] is False


def test_background_of_another_dimension_is_refused():
    """A background built for n = 1 under data for n = 3 would decide the
    rate condition with one n and its slack with the other."""
    grid = Grid(n=3, points_per_axis=8, half_width=math.pi)
    rec = Start(make_profile(grid, "homogeneous", 3.0),
                make_profile(grid, "homogeneous", 0.0), NL).rec
    with pytest.raises(ValueError, match="n = 1 but the data for n = 3"):
        evaluate(rec, 0.0, DeSitter(H=0.4, n=1),
                 PhysicalParams(m=1.0, c=1.0, eps=1.0, n=3))


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_evaluate_reads_the_background_once(monkeypatch, name):
    """One sf.eval(t0) gives every input of both certificates and the
    table: rate, E(t0) and I(u0)."""
    scn = load_bundled_scenario(name)
    assert isinstance(scn.sf, PowerLaw)
    rec = Start(*scn.build_fields(), scn.nl).rec
    calls = count_calls(monkeypatch, PowerLaw, "eval")
    evaluate(rec, scn.run.t0, scn.sf, scn.params, mode=scn.run.theorem_mode)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(m=st.floats(-3.0, 3.0), c=st.floats(0.1, 3.0), eps=st.floats(0.05, 4.0),
       n=st.integers(1, 3), H=st.floats(0.0, 3.0))
def test_t0_condition_agrees_with_rate_slack(m, c, eps, n, H):
    """thm2's t0_condition holds exactly when the reported slack
    threshold - adot/a is at least -1e-12 max(1, |threshold|), up to the
    rounding of the two sides; with m = 0 there is no threshold, no slack,
    and the condition holds."""
    grid = Grid(n=n, points_per_axis=8, half_width=math.pi)
    rec = Start(make_profile(grid, "homogeneous", 1.0),
                make_profile(grid, "homogeneous", 0.0), None).rec
    rep = evaluate(rec, 0.0, DeSitter(H=H, n=n),
                   PhysicalParams(m=m, c=c, eps=eps, n=n))
    ok = rep.thm2.conditions["t0_condition"]
    if m == 0.0:
        assert ok and "thm2.t0_rate_slack" not in rep.margins
        return
    slack = rep.margins["thm2.t0_rate_slack"]
    thr = slack + rep.thm2.rate0
    tol = 1e-12 * max(1.0, abs(thr))
    fuzz = 4.0 * np.finfo(float).eps * (abs(thr) + abs(rep.thm2.rate0))
    if slack >= -tol + fuzz:
        assert ok
    elif slack < -tol - fuzz:
        assert not ok
