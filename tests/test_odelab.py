"""Scalar concavity laboratory.

Oracles, frozen first:

  kappa = 1/4, A = 12, y0 = 1 gives const_I = 1 exactly, so
    y1 =  0: II = 1, III = 1, z0 = 1,        bound = pi/2
    y1 = -1: II = 2, III = 1, z0 = 1/sqrt2,  bound = pi/4
  and the equality ODE y'' = -3 y^5 with y(0) = 1, y'(0) = 0 conserves
  (y')^2/2 + y^6/2, so its vanishing time is the elliptic-type integral
    int_0^1 dy / sqrt(1 - y^6) = 1.2143253239439595   (frozen)
  while y'(0) = -1 shifts the energy to 1 and gives
    int_0^1 dy / sqrt(2 - y^6)                         (quadrature oracle)
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from kgflrw import (ConcavityProblem, concavity_problem, evaluate,
                    load_bundled_scenario, random_admissible_problems,
                    solve_concavity, tstar_bound)
from kgflrw.errors import NoVanishBeforeT

VANISH_REST = 1.2143253239439595  # int_0^1 dy / sqrt(1 - y^6)


def worked_problem(y1):
    # window = pi^2 (2k+1) B / (8 k^2 A) = pi^2 / 4 ~ 2.47; floor (BT)^-k <= 1
    return ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=y1)


def test_worked_constants_rest():
    prob = worked_problem(0.0)
    assert prob.const_I == pytest.approx(1.0, rel=1e-15)
    assert prob.const_II == pytest.approx(1.0, rel=1e-15)
    assert prob.const_III == pytest.approx(1.0, rel=1e-15)
    assert prob.z0 == pytest.approx(1.0, rel=1e-15)
    assert tstar_bound(prob) == pytest.approx(math.pi / 2, rel=1e-14)


def test_worked_constants_moving():
    prob = worked_problem(-1.0)
    assert prob.const_II == pytest.approx(2.0, rel=1e-15)
    assert prob.z0 == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert tstar_bound(prob) == pytest.approx(math.pi / 4, rel=1e-14)


def test_vanish_time_rest_frozen():
    quad_val, quad_err = quad(lambda y: 1.0 / math.sqrt(1.0 - y ** 6), 0.0, 1.0)
    assert quad_err < 1e-9
    assert quad_val == pytest.approx(VANISH_REST, abs=1e-10)
    sol = solve_concavity(worked_problem(0.0))
    assert sol.t_vanish == pytest.approx(VANISH_REST, abs=1e-9)
    assert sol.t_vanish <= math.pi / 2


def test_vanish_time_moving_quadrature():
    oracle, err = quad(lambda y: 1.0 / math.sqrt(2.0 - y ** 6), 0.0, 1.0)
    assert err < 1e-10
    sol = solve_concavity(worked_problem(-1.0))
    assert sol.t_vanish == pytest.approx(oracle, abs=1e-9)
    assert sol.t_vanish <= math.pi / 4


def test_energy_conserved_along_solution():
    prob = worked_problem(-1.0)
    sol = solve_concavity(prob)
    # V(y) = kappa A y^(2+1/kappa) / (2+1/kappa) = y^6 / 2 here
    e = 0.5 * sol.y_prime ** 2 + 0.5 * np.clip(sol.y, 0.0, None) ** 6
    e0 = e[0]
    assert np.max(np.abs(e - e0)) <= 1e-9 * e0


def test_bound_monotone_in_speed_and_strength():
    bounds = [tstar_bound(ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=50.0,
                                           y0=1.0, y1=y1, validate=False))
              for y1 in (0.0, -0.5, -1.0, -2.0, -4.0)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    by_a = [tstar_bound(ConcavityProblem(kappa=0.25, A=a, B=1.0, T=50.0,
                                         y0=1.0, y1=-1.0, validate=False))
            for a in (1.0, 4.0, 12.0, 48.0, 200.0)]
    assert all(b1 >= b2 for b1, b2 in zip(by_a, by_a[1:]))
    assert by_a[0] > by_a[-1]


def test_random_problems_chain():
    probs = random_admissible_problems(40, seed=1)
    assert len(probs) == 40
    for prob in probs:
        bound = tstar_bound(prob)
        assert bound <= prob.T * (1.0 + 1e-12)
        sol = solve_concavity(prob)
        assert sol.t_vanish <= bound * (1.0 + 1e-8)
        assert sol.t_vanish > prob.t0


def test_problem_validation():
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=0.5)
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=-1.0, y1=0.0)
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=-0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=0.0)
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=0.0, y0=1.0, y1=0.0, t0=0.5)
    # T - t0 inside the admissibility window
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.0, y0=1.0, y1=0.0)
    # y0 below the floor (B T)^(-kappa): B T = 2.6 -> floor ~ 0.787
    with pytest.raises(ValueError):
        ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=0.5, y1=0.0)
    # validate=False admits both
    ConcavityProblem(kappa=0.25, A=12.0, B=1.0, T=2.0, y0=0.5, y1=0.0,
                     validate=False)
    # a non-finite value, such as A = inf from overflowed data, is no problem
    ok = dict(kappa=0.25, A=12.0, B=1.0, T=2.6, y0=1.0, y1=0.0, t0=0.0)
    for key in ok:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ConcavityProblem(**dict(ok, **{key: bad}), validate=False)


def test_no_vanish_before_cutoff():
    with pytest.raises(NoVanishBeforeT):
        solve_concavity(worked_problem(0.0), t_max=0.5)


def _report(name):
    scn = load_bundled_scenario(name)
    u0, u1 = scn.build_fields()
    rep = evaluate(u0, u1, scn.run.t0, scn.sf, scn.params, scn.nl,
                   mode=scn.run.theorem_mode)
    return scn, rep


def test_certificate_mapping():
    # flat massless anchor at rest: theta0 = ||u0||^2 = 18 pi, theta'0 = 0
    scn, rep = _report("minkowski-m0-u2-A3")
    prob = concavity_problem(rep, scn.sf, scn.params)
    assert (prob.kappa, prob.t0, prob.T) == (0.25, 0.0, rep.T_bound)
    assert prob.A == 2.0 * 3.0 * rep.rho
    assert prob.B == rep.L0 == pytest.approx(18 * math.pi, rel=1e-13)
    assert prob.y0 == pytest.approx((18 * math.pi) ** -0.25, rel=1e-15)
    assert prob.y1 == 0.0
    # moving data on de Sitter (rate 1/2, velocity margin): the anchor term
    # enters theta0 and y1 = -kappa theta'0 theta0^(-kappa-1) < 0
    scn, rep = _report("desitter-thm2")
    prob = concavity_problem(rep, scn.sf, scn.params)
    theta0 = rep.L0 * (1.0 + 0.5 * rep.T_bound)
    assert prob.kappa == 0.125 and prob.A == 2.0 * 3.0 * rep.delta
    assert prob.B == pytest.approx(1.5 * rep.L0, rel=1e-15)
    assert prob.y0 == pytest.approx(theta0 ** -0.125, rel=1e-14)
    assert prob.y1 == pytest.approx(
        -0.125 * 2.0 * rep.re_u0_u1 * theta0 ** -1.125, rel=1e-14)
    assert prob.y1 < 0.0
    with pytest.raises(ValueError):
        concavity_problem(dataclasses.replace(rep, L0=-1.0), scn.sf,
                          scn.params)

